"""The object-at-a-time, per-band, per-piece reference scanner.

Test equipment, not a mode of the engine: the shipped scanner decodes a
band per leaf run and keeps what the touched leaves *prove* around it.
The reference does neither, and installs through the engine's one
scanner seam (``QueryEngine.new_scanner``):

* every band is decoded one entry at a time off
  ``BPlusTree.scan_range`` + ``ObjectRecordCodec.unpack`` — one
  ``struct.unpack`` and one ``MovingObject`` per row, no fence read;
* so its rows carry no proof (``rows.proven is None``): a residency
  learns only the interval that was asked, and I/O stays per band;
* its prefetch fetches the same keys, each as the band ``[key; key]``.

Results, ``candidates_examined``, ``rounds`` and ``requests`` must equal
the shipped scanner's; physical scans and reads may only be higher.
"""

from repro.engine import BandScanner, QueryEngine
from repro.motion.rows import BandRows
from repro.shard.engine import ShardScatterScanner


class EntryAtATimeTree:
    """What a :class:`BandScanner` asks of its tree, answered per entry."""

    def __init__(self, tree):
        self.codec = tree.codec
        self.btree = tree.btree
        self.unpack = tree.records.unpack

    def scan_band_rows(self, tid, sv_lo_q, sv_hi_q, z_lo, z_hi):
        lo = self.codec.compose_quantized(tid, sv_lo_q, z_lo)
        hi = self.codec.compose_quantized(tid, sv_hi_q, z_hi)
        return self._rows(lo, hi)

    def get_many(self, keys):
        for key in keys:
            yield self._rows(key, key)

    def _rows(self, lo, hi):
        zvs, records, objects = [], [], []
        for key, uid, payload in self.btree.scan_range(lo, hi):
            obj, pntp = self.unpack(uid, payload)
            zvs.append(self.codec.zv_of(key))
            records.append((obj.uid, obj.x, obj.y, obj.vx, obj.vy, obj.t_update, pntp))
            objects.append(obj)
        return BandRows(zvs, records, objects)


class ReferenceScanner(BandScanner):
    """A :class:`BandScanner` that scans per entry and forgets proofs."""

    def __init__(self, tree):
        super().__init__(EntryAtATimeTree(tree))


def reference_scatter(sharded):
    """A scatter scanner whose per-shard scanners are the reference."""
    scatter = ShardScatterScanner(sharded)
    scatter.scanners = [ReferenceScanner(tree) for tree in sharded.trees]
    return scatter


class ReferenceEngine(QueryEngine):
    def new_scanner(self):
        return ReferenceScanner(self.tree)


class ShardedReferenceEngine(QueryEngine):
    def new_scanner(self):
        return reference_scatter(self.tree)
