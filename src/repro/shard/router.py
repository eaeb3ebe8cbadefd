"""Key-space partitioning for the sharded multi-tree (pure routing).

The PEB-key packs ``[TID]2 ⊕ [SV]2 ⊕ [ZV]2`` (Equation 5).  A
:class:`ShardRouter` partitions that key space across N shards by
*sequence-value* range: each shard owns a contiguous run of quantized
SVs.  Because SV sits above ZV, every single-SV band of the Section
5.3 pipeline is key-contiguous inside exactly one shard, and a user's
shard never changes (location updates move the ZV and TID fields,
never the SV) — velocity/sequence partitioning in the spirit of
"Boosting Moving Object Indexing through Velocity Partitioning".
Boundaries are chosen at population quantiles of the store's assigned
sequence values, so shards start balanced.

The router maps keys/bands/op-runs to shard indexes and never
touches a tree.  Splitting is exact — the sub-bands of
:meth:`split_band` cover the original band's key range with no overlap
and no gap, in ascending key order, so concatenating per-shard scans
reproduces a single tree's scan byte for byte.  Splitting a
key-sorted op run (:meth:`split_sorted_run`) bisects it at the
boundary keys of each TID block and keeps every slice in order, so each
shard receives a still-sorted run ready for
:meth:`repro.btree.BPlusTree.apply_sorted_batch` — no re-sorting and no
per-op routing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.plan import BandRequest

if TYPE_CHECKING:
    from repro.core.peb_key import PEBKeyCodec
    from repro.policy.store import PolicyStore


_KEY_OF_OP = itemgetter(1)


class ShardRouter:
    """Maps PEB-key space onto shard indexes.

    Args:
        codec: the deployment's shared key codec (field geometry).
        boundaries: ascending quantized SVs; ``boundaries[i]`` is the
            first SV owned by shard ``i + 1``.  ``n_shards ==
            len(boundaries) + 1``.  Duplicate boundaries are legal and
            leave the squeezed-out shard empty.
    """

    def __init__(self, codec: "PEBKeyCodec", boundaries: Sequence[int]):
        bounds = tuple(boundaries)
        if any(b < 0 for b in bounds):
            raise ValueError("shard boundaries must be non-negative")
        if any(b > a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"shard boundaries must ascend, got {bounds}")
        if not codec.sv_major:
            raise ValueError("a router cuts an SV-major key space (SV above ZV)")
        self.codec = codec
        self.boundaries = bounds
        self._max_z = (1 << codec.zv_bits) - 1
        tid_shift, sv_shift, _, _, _ = codec.layout
        self._tid_shift = tid_shift
        # Where each boundary's shard starts inside one TID block: the
        # key offset of ``boundary ⊕ 0`` (one past the block for a
        # boundary past every SV, which the cut's bisection caps).
        self._cut_offsets = tuple(bound << sv_shift for bound in bounds)

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) + 1

    @classmethod
    def for_store(
        cls,
        n_shards: int,
        codec: "PEBKeyCodec",
        store: "PolicyStore",
        uids: Iterable[int],
    ) -> "ShardRouter":
        """Boundaries balanced for one population.

        Cuts the uid population at SV quantiles (every user weighs one
        entry, so equal slices of the sorted quantized SVs start the
        shards equal).  Ties at a cut point are legal — the squeezed
        shard simply starts empty and the skew statistic reports it.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        svs = sorted(codec.quantize_sv(store.sequence_value(uid)) for uid in uids)
        if not svs:
            raise ValueError("cannot place SV boundaries for an empty population")
        bounds = [svs[(index * len(svs)) // n_shards] for index in range(1, n_shards)]
        return cls(codec, bounds)

    # ------------------------------------------------------------------
    # Point routing
    # ------------------------------------------------------------------

    def shard_of(self, sv_q: int) -> int:
        """The shard owning keys with this quantized SV."""
        return bisect_right(self.boundaries, sv_q)

    def shard_of_key(self, key: int) -> int:
        """The shard owning one composed PEB-key."""
        _, sv_q, _ = self.codec.decompose(key)
        return self.shard_of(sv_q)

    def shard_field_range(self, shard: int) -> tuple[int, int]:
        """Inclusive ``[lo, hi]`` of the shard's owned quantized SVs.

        ``hi < lo`` for a shard squeezed empty by duplicate boundaries.
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} outside [0, {self.n_shards})")
        lo = self.boundaries[shard - 1] if shard > 0 else 0
        if shard < len(self.boundaries):
            hi = self.boundaries[shard] - 1
        else:
            hi = (1 << self.codec.sv_bits) - 1
        return lo, hi

    # ------------------------------------------------------------------
    # Band and run splitting
    # ------------------------------------------------------------------

    def split_band(self, band: BandRequest) -> list[tuple[int, BandRequest]]:
        """Scatter one band request to its owning shards.

        Returns ``(shard, sub_band)`` pairs in ascending shard — and
        therefore ascending key — order.  Single-SV bands route whole;
        a multi-SV span band straddling an SV boundary is cut *at the
        boundary key*: the low fragment keeps the original ``z_lo`` and
        runs to the end of its SV range, interior fragments span their
        SVs fully, and the high fragment ends at the original ``z_hi``
        — exactly the key interval arithmetic of one contiguous scan.
        """
        first = self.shard_of(band.sv_lo_q)
        if band.is_single_sv:
            return [(first, band)]
        last = self.shard_of(band.sv_hi_q)
        if first == last:
            return [(first, band)]
        parts: list[tuple[int, BandRequest]] = []
        for shard in range(first, last + 1):
            range_lo, range_hi = self.shard_field_range(shard)
            sv_lo = max(band.sv_lo_q, range_lo)
            sv_hi = min(band.sv_hi_q, range_hi)
            if sv_lo > sv_hi:
                continue  # shard squeezed empty by duplicate boundaries
            parts.append(
                (
                    shard,
                    BandRequest(
                        tid=band.tid,
                        sv_lo_q=sv_lo,
                        sv_hi_q=sv_hi,
                        z_lo=band.z_lo if sv_lo == band.sv_lo_q else 0,
                        z_hi=band.z_hi if sv_hi == band.sv_hi_q else self._max_z,
                    ),
                )
            )
        return parts

    def split_sorted_run(self, ops: Sequence[tuple]) -> list[tuple[int, list[tuple]]]:
        """Cut one key-sorted batch-op run at shard-key boundaries.

        A key-sorted run is TID-major and, within one TID, SV-ascending,
        so each shard's ops inside one TID block are one contiguous
        slice: the run is cut by bisecting its keys at each block's
        boundary keys ``TID ⊕ boundary ⊕ 0``, with no per-op routing.
        Each op ``(kind, key, uid, payload)`` joins its key's shard,
        preserving relative order, so every returned run is itself
        key-sorted and feeds
        :meth:`repro.btree.BPlusTree.apply_sorted_batch` directly — the
        whole point of letting the update pipeline sort once globally.
        Returns ``(shard, run)`` pairs in ascending shard order,
        non-empty runs only.
        """
        keys = list(map(_KEY_OF_OP, ops))
        tid_shift = self._tid_shift
        offsets = self._cut_offsets
        last = len(offsets)
        runs: dict[int, list[tuple]] = {}
        start, stop = 0, len(keys)
        while start < stop:
            block = keys[start] >> tid_shift << tid_shift
            block_end = bisect_left(keys, block + (1 << tid_shift), start)
            for shard, offset in enumerate(offsets):
                cut = bisect_left(keys, block + offset, start, block_end)
                if cut > start:
                    runs.setdefault(shard, []).extend(ops[start:cut])
                    start = cut
            if block_end > start:
                runs.setdefault(last, []).extend(ops[start:block_end])
                start = block_end
        return sorted(runs.items())


__all__ = ["ShardRouter"]
