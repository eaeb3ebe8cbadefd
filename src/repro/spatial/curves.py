"""Space-filling-curve abstraction: Z-order (the paper's choice) and
Hilbert (the natural alternative).

The paper linearizes locations with the Z-curve but motivates the choice
through Moon et al.'s analysis of space-filling-curve clustering [22] —
an analysis whose headline result is that *Hilbert* clusters better.
Making the curve pluggable turns that trade-off into a measurable
ablation (``benchmarks/bench_ablations.py``): both the Bx-tree and the
PEB-tree run unmodified on either curve because they only consume the
:class:`Grid` interface.

Both supported curves are quadrant-recursive: every quadtree-aligned
``s x s`` cell block maps to one contiguous curve-value range of length
``s²`` (the fine curve fills a coarse cell completely before leaving
it).  That shared property drives the generic rectangle decomposition
:func:`curve_decompose` — descend the quadtree, emit the whole range of
any block fully inside the query, recurse into partial blocks.
"""

from __future__ import annotations

from repro.spatial.hilbert import hilbert_decode, hilbert_encode
from repro.spatial.zcurve import z_decode, z_encode

CurveInterval = tuple[int, int]

#: Grids up to this many bits per axis encode by table lookup; a table
#: holds one spread value per cell index, so at most 2**16 entries.
SPREAD_TABLE_BITS = 16

#: bits -> the spread value of every cell index of a ``2**bits`` grid
#: (x's share of its Morton code), built on the first encode at that
#: resolution; a memo of constants, never changed once built.
_SPREAD_TABLES: dict[int, list[int]] = {}


class ZOrderCurve:
    """The Morton curve of the paper (Section 5.2, component ZV)."""

    name = "z"
    #: The Morton code is monotone in each coordinate separately, so the
    #: min/max over an axis-aligned box sit at its low/high corners.
    corner_monotone = True

    def encode(self, ix: int, iy: int, bits: int) -> int:
        """Curve value of cell ``(ix, iy)`` on a ``2**bits`` grid.

        Every location update and every PkNN round window encodes, so
        grids of up to :data:`SPREAD_TABLE_BITS` bits look both spreads
        up in a per-``bits`` table instead of computing them.
        """
        side = 1 << bits
        if not (0 <= ix < side and 0 <= iy < side):
            raise ValueError(f"cell ({ix}, {iy}) outside {side}x{side} grid")
        if bits > SPREAD_TABLE_BITS:
            return z_encode(ix, iy)
        spread = _SPREAD_TABLES.get(bits)
        if spread is None:
            spread = _SPREAD_TABLES[bits] = [z_encode(v, 0) for v in range(side)]
        return spread[ix] | spread[iy] << 1

    def decode(self, value: int, bits: int) -> tuple[int, int]:
        """Cell of a curve value on a ``2**bits`` grid."""
        if value < 0 or value >= 1 << (2 * bits):
            raise ValueError(f"value {value} out of range for {bits}-bit grid")
        return z_decode(value)

    def __repr__(self) -> str:
        return "ZOrderCurve()"


class HilbertCurve:
    """The Hilbert curve — better clustering, costlier arithmetic [22]."""

    name = "hilbert"
    #: Hilbert values are *not* monotone per axis; box extremes require a
    #: decomposition rather than a corner lookup.
    corner_monotone = False

    def encode(self, ix: int, iy: int, bits: int) -> int:
        return hilbert_encode(ix, iy, bits)

    def decode(self, value: int, bits: int) -> tuple[int, int]:
        return hilbert_decode(value, bits)

    def __repr__(self) -> str:
        return "HilbertCurve()"


#: Shared stateless instances.
ZCURVE = ZOrderCurve()
HILBERT = HilbertCurve()

CURVES = {ZCURVE.name: ZCURVE, HILBERT.name: HILBERT}


def make_curve(name: str):
    """Look up a curve by name (``"z"`` or ``"hilbert"``)."""
    try:
        return CURVES[name]
    except KeyError:
        known = ", ".join(sorted(CURVES))
        raise ValueError(f"unknown curve {name!r}; known: {known}") from None


def curve_decompose(
    curve,
    ix_lo: int,
    ix_hi: int,
    iy_lo: int,
    iy_hi: int,
    bits: int,
    min_quad_side: int = 1,
) -> list[CurveInterval]:
    """Sorted maximal curve-value intervals covering the inclusive cell box.

    Works for any quadrant-recursive curve.  A quadtree block of side
    ``s`` at cell ``(qx, qy)`` covers curve values
    ``[encode(qx/s, qy/s, bits - log2 s) * s², ... + s² - 1]``; blocks
    fully inside the box emit their range, partial blocks recurse down to
    ``min_quad_side`` (which then over-covers, exactly like the Z-only
    :func:`repro.spatial.decompose.decompose_rect`).

    Unlike the Z-only decomposition the visit order is not output order
    for every curve, so intervals are sorted and merged at the end.
    """
    if bits <= 0 or bits > 32:
        raise ValueError(f"bits must be in 1..32, got {bits}")
    if min_quad_side < 1:
        raise ValueError(f"min_quad_side must be at least 1, got {min_quad_side}")
    side = 1 << bits
    ix_lo, ix_hi = max(ix_lo, 0), min(ix_hi, side - 1)
    iy_lo, iy_hi = max(iy_lo, 0), min(iy_hi, side - 1)
    if ix_lo > ix_hi or iy_lo > iy_hi:
        return []

    intervals: list[CurveInterval] = []
    stack = [(0, 0, side)]
    while stack:
        qx, qy, size = stack.pop()
        if qx > ix_hi or qx + size - 1 < ix_lo or qy > iy_hi or qy + size - 1 < iy_lo:
            continue
        fully_inside = (
            ix_lo <= qx
            and qx + size - 1 <= ix_hi
            and iy_lo <= qy
            and qy + size - 1 <= iy_hi
        )
        if fully_inside or size <= min_quad_side:
            base = _block_base(curve, qx, qy, size, bits)
            intervals.append((base, base + size * size - 1))
            continue
        half = size // 2
        stack.append((qx + half, qy + half, half))
        stack.append((qx, qy + half, half))
        stack.append((qx + half, qy, half))
        stack.append((qx, qy, half))

    intervals.sort()
    merged: list[CurveInterval] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def curve_span(
    curve,
    ix_lo: int,
    ix_hi: int,
    iy_lo: int,
    iy_hi: int,
    bits: int,
) -> CurveInterval | None:
    """The single covering ``(min, max)`` curve window of a cell box.

    For corner-monotone curves (Z) this is the two-corner lookup.  For
    the others the extremes come from a coarsened decomposition — its
    over-covering blocks can only *widen* the window, so the span always
    covers the exact one (the PkNN algorithm's verification step filters
    the extra candidates, as it already does for enlargement slack).
    """
    side = 1 << bits
    ix_lo, ix_hi = max(ix_lo, 0), min(ix_hi, side - 1)
    iy_lo, iy_hi = max(iy_lo, 0), min(iy_hi, side - 1)
    if ix_lo > ix_hi or iy_lo > iy_hi:
        return None
    if curve.corner_monotone:
        return curve.encode(ix_lo, iy_lo, bits), curve.encode(ix_hi, iy_hi, bits)
    extent = max(ix_hi - ix_lo + 1, iy_hi - iy_lo + 1)
    min_quad = 1
    while min_quad * 16 <= extent:
        min_quad *= 2
    intervals = curve_decompose(curve, ix_lo, ix_hi, iy_lo, iy_hi, bits, min_quad)
    return intervals[0][0], intervals[-1][1]


def _block_base(curve, qx: int, qy: int, size: int, bits: int) -> int:
    """First curve value inside the aligned ``size x size`` block."""
    if size >= 1 << bits:
        return 0
    level_bits = bits - (size.bit_length() - 1)
    return curve.encode(qx // size, qy // size, level_bits) * size * size
