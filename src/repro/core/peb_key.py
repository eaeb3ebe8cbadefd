"""The PEB-key codec: ``PEB_key = [TID]2 ⊕ [SV]2 ⊕ [ZV]2`` (Equation 5).

"The construction of the PEB key gives higher priority to sequence values
than to location mapping values" (Section 5.2): the time-partition id
occupies the most significant bits, the sequence value the middle bits,
and the Z-value the least significant bits, so plain integer comparison
orders users first by partition, then by policy proximity, then by
location.

Sequence values are reals; they are packed order-preservingly as
fixed-point integers with ``sv_scale`` sub-unit steps.  The index derives
the scale where it is built (:func:`derive_sv_scale`): the finest power of
two at which the store's largest SV still fits ``sv_bits``.  Invariant:
raw SVs at least one step ``1 / sv_scale`` apart get distinct ``sv_q``, so
a stratum ``(TID, sv_q)`` holds one raw SV.  A step is ``2**-26`` on
Figure 5's SVs in [2, 40] and ``2**-20`` on BFS's up to ~2 210, far finer
than the compatibility degree resolves: on the benchmark population the
4 312 distinct raw SVs give 4 312 strata.  Raw ties (members whose C ties
share an SV) stay in one stratum — that is Figure 5's output, and the
composite ``(key, uid)`` entry identity in the B+-tree handles it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

#: Fixed-point scale of a store with no sequence values, where there is
#: nothing to derive one from (7 fractional bits).
DEFAULT_SV_SCALE = 128

#: Default bit width of the packed sequence value.  The derived scale
#: spends every bit the largest SV leaves free on the fraction; SVs
#: below 2**32 fit at scale 1, far above ``sv0 + δ·N`` for the paper's
#: largest N of 100 K users.
DEFAULT_SV_BITS = 32


def derive_sv_scale(max_sv: float | None, sv_bits: int = DEFAULT_SV_BITS) -> int:
    """The largest power of two ``s`` with ``round(max_sv · s) < 2**sv_bits``.

    ``max_sv`` is the largest sequence value of the store the index is
    built over; None (no SVs yet) keeps :data:`DEFAULT_SV_SCALE`.  A
    largest SV below 1 derives as 1, so the scale stays finite, and one
    of ``2**sv_bits`` or more derives scale 1 (its insert then raises,
    as at any scale).
    """
    if max_sv is None:
        return DEFAULT_SV_SCALE
    exponent = sv_bits - math.frexp(max(max_sv, 1.0))[1]
    if round(math.ldexp(max_sv, exponent)) >> sv_bits:
        exponent -= 1  # rounding reached 2**sv_bits
    return 1 << max(exponent, 0)


@dataclass(frozen=True)
class PEBKeyCodec:
    """Packs and unpacks PEB-keys.

    Args:
        tid_count: number of distinct time-partition ids (``n + 1``).
        sv_bits: bit width of the quantized sequence value.
        zv_bits: bit width of the Z-value (twice the grid bits).
        sv_scale: fixed-point scale applied to sequence values.
    """

    #: Key layout marker: True when the SV field sits above the ZV field
    #: (Equation 5), so all entries of one quantized SV are key-contiguous
    #: and ordered by ZV.  Layout-dependent optimizations — band scans
    #: report fence proofs and the engine's stratum residency subdivides
    #: scans by ZV — must check this;
    #: the ZV-first ablation codec overrides it to False.
    sv_major: ClassVar[bool] = True

    tid_count: int
    sv_bits: int = DEFAULT_SV_BITS
    zv_bits: int = 20
    sv_scale: int = DEFAULT_SV_SCALE

    def __post_init__(self):
        if self.tid_count < 1:
            raise ValueError("tid_count must be at least 1")
        if self.sv_bits < 1 or self.zv_bits < 1:
            raise ValueError("sv_bits and zv_bits must be positive")
        if self.sv_scale < 1:
            raise ValueError("sv_scale must be at least 1")
        # Precomputed once: zv_of runs per scanned row.
        object.__setattr__(self, "_zv_mask", (1 << self.zv_bits) - 1)

    @property
    def tid_bits(self) -> int:
        """Bits needed for the partition id field."""
        return max(1, (self.tid_count - 1).bit_length())

    @property
    def total_bits(self) -> int:
        """Width of a complete PEB-key."""
        return self.tid_bits + self.sv_bits + self.zv_bits

    @property
    def key_bytes(self) -> int:
        """Byte width a B+-tree must reserve for these keys."""
        return (self.total_bits + 7) // 8

    def quantize_sv(self, sv: float) -> int:
        """Order-preserving fixed-point image of a sequence value."""
        if sv < 0:
            raise ValueError(f"sequence values must be non-negative, got {sv}")
        quantized = round(sv * self.sv_scale)
        if quantized.bit_length() > self.sv_bits:
            raise ValueError(
                f"sequence value {sv} does not fit in {self.sv_bits} bits "
                f"at scale {self.sv_scale}"
            )
        return quantized

    def compose(self, tid: int, sv: float, zv: int) -> int:
        """Equation 5: concatenate the three binary components."""
        return self.compose_quantized(tid, self.quantize_sv(sv), zv)

    def compose_quantized(self, tid: int, sv_q: int, zv: int) -> int:
        """Compose from an already-quantized sequence value."""
        if not 0 <= tid < self.tid_count:
            raise ValueError(f"tid {tid} outside [0, {self.tid_count})")
        if zv.bit_length() > self.zv_bits:
            raise ValueError(f"zv {zv} does not fit in {self.zv_bits} bits")
        if zv < 0 or sv_q < 0:
            raise ValueError("key components must be non-negative")
        return ((tid << self.sv_bits) | sv_q) << self.zv_bits | zv

    @property
    def layout(self) -> tuple[int, int, int, int, int]:
        """``(tid_shift, sv_shift, sv_mask, zv_shift, zv_mask)``.

        A key's TID is ``key >> tid_shift``, its quantized SV ``key >>
        sv_shift & sv_mask`` and its ZV ``key >> zv_shift & zv_mask``:
        a loop over many keys splits them inline instead of calling
        :meth:`decompose` per key.  Layout variants override this in
        step with :meth:`decompose`.
        """
        return (
            self.sv_bits + self.zv_bits,
            self.zv_bits,
            (1 << self.sv_bits) - 1,
            0,
            self._zv_mask,
        )

    def decompose(self, key: int) -> tuple[int, int, int]:
        """Split a key into ``(tid, quantized_sv, zv)``."""
        zv = key & ((1 << self.zv_bits) - 1)
        rest = key >> self.zv_bits
        sv_q = rest & ((1 << self.sv_bits) - 1)
        tid = rest >> self.sv_bits
        return tid, sv_q, zv

    def zv_of(self, key: int) -> int:
        """The Z-value field alone — one precomputed mask, no full
        decomposition.

        The band-scan hot path runs this once per returned row; see
        ``benchmarks/bench_batch_updates.py --micro`` for what skipping
        the tuple build and extra shifts of :meth:`decompose` is worth
        there.  Layout variants that move the ZV field (the ZV-first
        ablation codec) override this to match their ``decompose``.
        """
        return key & self._zv_mask

    def zvs_of(self, keys: "list[tuple[int, int]]") -> list[int]:
        """Batched :meth:`zv_of` over one leaf run's composite keys.

        One mask load and one comprehension per leaf instead of a
        method call per row — the packed band scan's ZV column.
        Layout variants must override this in step with :meth:`zv_of`.
        """
        mask = self._zv_mask
        return [key & mask for key, _ in keys]

    def search_range(
        self, tid: int, sv: float, z_lo: int, z_hi: int
    ) -> tuple[int, int]:
        """Key interval ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]``.

        These are the per-(SV, Z-interval) search ranges of Section 5.3.
        """
        sv_q = self.quantize_sv(sv)
        return (
            self.compose_quantized(tid, sv_q, z_lo),
            self.compose_quantized(tid, sv_q, z_hi),
        )
