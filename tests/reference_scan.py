"""The object-at-a-time, per-band, per-piece reference scanner.

Test equipment, not a mode of the engine: the shipped scanner decodes a
band per leaf run, keeps what the touched leaves *prove* around it and
lets the PkNN walk skip what is proven quiet.  The reference does none
of that, and installs through the engine's one scanner seam
(``QueryEngine.new_scanner``):

* every band is decoded one entry at a time off
  ``BPlusTree.scan_range`` + ``ObjectRecordCodec.unpack`` — one
  ``struct.unpack`` and one ``MovingObject`` per row, no fence read;
* so its rows carry no proof (``rows.proven is None``): a residency
  learns only the interval that was asked, and I/O stays per band;
* its residencies never report a quiet interval, so the matrix search
  asks for every annulus piece;
* its prefetch pulls the same merged coverage runs, one band at a time.

Results, ``candidates_examined``, ``rounds`` and ``requests`` must equal
the shipped scanner's; physical scans and reads may only be higher.

The shipped PkNN walk decides an idle cell by comparing flat per-round
hulls against its rows' quiet intervals, starts at the first round whose
window meets the space, and runs its stop test only where the outcome can
change.  :class:`PerCellSearch` is the walk it replaced: every cell of the
traversal order, from round 1, asked in turn whether it can act, the stop
test after each.  Same scanner, same cells entering ``scan_cell``: every
counter must be equal.
"""

from repro.core.pknn import _MatrixSearch
from repro.engine import BandScanner, QueryEngine
from repro.engine.scanner import NOT_QUIET, StratumResidency
from repro.motion.rows import BandRows
from repro.shard.engine import ShardScatterScanner, VerifyTimeline


class EntryAtATimeTree:
    """What a :class:`BandScanner` asks of its tree, answered per entry."""

    def __init__(self, tree):
        self.codec = tree.codec
        self.btree = tree.btree
        self.unpack = tree.records.unpack

    def scan_band_rows(self, tid, sv_lo_q, sv_hi_q, z_lo, z_hi):
        lo = self.codec.compose_quantized(tid, sv_lo_q, z_lo)
        hi = self.codec.compose_quantized(tid, sv_hi_q, z_hi)
        zvs, records, objects = [], [], []
        for key, uid, payload in self.btree.scan_range(lo, hi):
            obj, pntp = self.unpack(uid, payload)
            zvs.append(self.codec.zv_of(key))
            records.append((obj.uid, obj.x, obj.y, obj.vx, obj.vy, obj.t_update, pntp))
            objects.append(obj)
        return BandRows(zvs, records, objects)

    def scan_bands_rows(self, bands):
        for tid, sv_q, z_lo, z_hi in bands:
            yield self.scan_band_rows(tid, sv_q, sv_q, z_lo, z_hi)


class NeverQuietResidency(StratumResidency):
    __slots__ = ()

    def quiet_around(self, z, located):
        return NOT_QUIET


class ReferenceScanner(BandScanner):
    """A :class:`BandScanner` that scans per entry and forgets proofs."""

    def __init__(self, tree, **kwargs):
        super().__init__(EntryAtATimeTree(tree), **kwargs)

    def residency(self, tid, sv_q):
        resident = super().residency(tid, sv_q)
        if resident is not None:
            resident.__class__ = NeverQuietResidency  # same slots, one override
        return resident


def reference_scatter(sharded):
    """A scatter scanner whose per-shard scanners are the reference."""
    scatter = ShardScatterScanner(sharded)
    scatter.scanners = [ReferenceScanner(tree) for tree in sharded.trees]
    if scatter.timeline is not None:  # it reads residency off the scanners
        scatter.timeline = VerifyTimeline(scatter)
    return scatter


class ReferenceEngine(QueryEngine):
    def new_scanner(self):
        return ReferenceScanner(self.tree)


class ShardedReferenceEngine(QueryEngine):
    def new_scanner(self):
        return reference_scatter(self.tree)


class PerCellSearch(_MatrixSearch):
    """The PkNN matrix walk one cell at a time, in the traversal order."""

    def run(self, order="triangular"):
        rows = len(self.friends)
        if rows == 0 or self.k <= 0:
            return self.result
        friend_uids = {uid for _, uid in self.friends}
        located = self.verifier.located
        located_checked = 0  # len(located) when the friends were last checked
        candidates = self.candidates
        k = self.k
        rounds = 0
        friends = self.friends
        for row, round_index in self._cell_order(rows, order):
            # Only a cell that can do work is scanned: its friend is
            # not located yet and some piece may hold somebody new.
            if friends[row][1] not in located and not self._all_quiet(
                row, self._round_pieces(round_index)
            ):
                self.scan_cell(row, round_index)
            if round_index > rounds:
                rounds = round_index
            if len(candidates) >= k:
                kth_distance = candidates[k - 1][0]
                if kth_distance <= round_index * self.rq:
                    self.vertical_scan(row + 1, kth_distance)
                    break
            if len(located) != located_checked:
                located_checked = len(located)
                if friend_uids <= located:
                    break  # every friend located; no window can add more
        self.result.rounds = rounds
        return self._finish()

    def _cell_order(self, rows, order):
        if order == "triangular":
            for diagonal in range(rows + self.max_rounds):
                for row in range(min(diagonal + 1, rows)):
                    round_index = diagonal - row + 1
                    if round_index <= self.max_rounds:
                        yield row, round_index
        elif order == "column":
            for round_index in range(1, self.max_rounds + 1):
                for row in range(rows):
                    yield row, round_index
        else:
            raise ValueError(f"unknown search order {order!r}")
