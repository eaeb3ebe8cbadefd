"""Ablation variants of the paper's design choices.

Section 5.2 argues the key layout must give "higher priority to sequence
values than to location mapping values"; Figure 9 argues for triangular
search order; Section 5.3's prose describes per-(SV, interval) search
ranges while Figure 7's pseudo-code sketches one coarse scan from
``SVmin ⊕ ZV_lo`` to ``SVmax ⊕ ZV_hi``.  The variants here make each
choice swappable so ``benchmarks/bench_ablations.py`` can measure what
the choice is worth:

* :class:`ZVFirstKeyCodec` — swaps the SV and ZV fields (location gets
  priority).  Every query algorithm still returns correct results —
  search ranges remain valid key intervals — but ranges now span all
  sequence values inside a Z window, so scans over-read.
* :func:`prq_span_scan` — the literal Figure 7 procedure: per Z-interval
  one scan covering the issuer's whole ``[SVmin ; SVmax]`` band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.core.peb_key import PEBKeyCodec
from repro.core.peb_tree import PEBTree
from repro.core.prq import PRQResult
from repro.engine import QueryEngine
from repro.spatial.geometry import Rect


@dataclass(frozen=True)
class ZVFirstKeyCodec(PEBKeyCodec):
    """PEB-key variant with the Z-value above the sequence value.

    ``key = [TID]2 ⊕ [ZV]2 ⊕ [SV]2`` — the layout the paper argues
    against.  ``search_range`` bounds stay correct (the low/high corner
    keys of the requested (SV, Z-window) cell) but now enclose every
    sequence value whose Z-value falls inside the window.
    """

    sv_major: ClassVar[bool] = False

    def compose_quantized(self, tid: int, sv_q: int, zv: int) -> int:
        if not 0 <= tid < self.tid_count:
            raise ValueError(f"tid {tid} outside [0, {self.tid_count})")
        if zv.bit_length() > self.zv_bits:
            raise ValueError(f"zv {zv} does not fit in {self.zv_bits} bits")
        if zv < 0 or sv_q < 0:
            raise ValueError("key components must be non-negative")
        if sv_q.bit_length() > self.sv_bits:
            raise ValueError(f"sv_q {sv_q} does not fit in {self.sv_bits} bits")
        return ((tid << self.zv_bits) | zv) << self.sv_bits | sv_q

    def decompose(self, key: int) -> tuple[int, int, int]:
        sv_q = key & ((1 << self.sv_bits) - 1)
        rest = key >> self.sv_bits
        zv = rest & ((1 << self.zv_bits) - 1)
        tid = rest >> self.zv_bits
        return tid, sv_q, zv

    @property
    def layout(self) -> tuple[int, int, int, int, int]:
        """SV in the low bits, ZV shifted past it."""
        return (
            self.sv_bits + self.zv_bits,
            0,
            (1 << self.sv_bits) - 1,
            self.sv_bits,
            self._zv_mask,
        )

    def zv_of(self, key: int) -> int:
        """ZV sits in the middle of this layout: shift past SV, mask."""
        return (key >> self.sv_bits) & self._zv_mask

    def zvs_of(self, keys: "list[tuple[int, int]]") -> list[int]:
        """Batched :meth:`zv_of` for the ZV-middle layout."""
        shift = self.sv_bits
        mask = self._zv_mask
        return [(key >> shift) & mask for key, _ in keys]


def make_zv_first_tree(pool, grid, partitioner, store, sv_bits=32, sv_scale=None):
    """A PEB-tree whose keys put location above policy proximity.

    The scale defaults as :class:`PEBTree`'s does, so the ablation
    compares like with like.
    """
    tree = PEBTree(pool, grid, partitioner, store, sv_bits=sv_bits, sv_scale=sv_scale)
    tree.codec = ZVFirstKeyCodec(
        tid_count=partitioner.num_partitions,
        sv_bits=sv_bits,
        zv_bits=grid.zv_bits,
        sv_scale=tree.codec.sv_scale,
    )
    return tree


def prq_span_scan(
    tree: PEBTree, q_uid: int, window: Rect, t_query: float
) -> PRQResult:
    """Figure 7's literal procedure: one ``SVmin..SVmax`` scan per
    (partition, Z-interval) pair.

    Correct but coarse — the scanned band contains every user whose SV
    falls between the issuer's least and greatest friend, regardless of
    any policy with the issuer.  The benchmark compares its I/O against
    the per-SV ranges the prose of Section 5.3 describes (our default
    :func:`repro.core.prq.prq`).  The scan runs through the engine's
    span-scan plan (:meth:`repro.engine.QueryPlanner.plan_span_scan`).
    """
    result = PRQResult()

    def collect(obj, x, y) -> bool:
        result.users.append(obj)
        return False

    execution = QueryEngine(tree).execute_span_scan(q_uid, window, t_query, collect)
    result.candidates_examined = execution.candidates_examined
    return result
