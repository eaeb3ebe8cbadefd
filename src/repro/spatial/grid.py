"""Mapping between continuous space and the space-filling-curve grid.

The experiments use a square space of side 1000 (Section 7.1).  A
``Grid`` divides it into ``2**bits`` cells per axis, converts continuous
coordinates to cell indexes, encodes locations on a space-filling curve
(the paper's Z-curve by default, Hilbert as an ablation), and decomposes
(enlarged, possibly out-of-bounds) query rectangles into curve-value
intervals, clipping to the space first.
"""

from __future__ import annotations

from repro.spatial.curves import ZCURVE, coarse_quad_side, curve_decompose, curve_span
from repro.spatial.decompose import ZInterval
from repro.spatial.geometry import Rect

#: Default grid resolution; 2**10 cells per axis over a side-1000 space
#: gives cells just under one space unit across.
DEFAULT_GRID_BITS = 10


class Grid:
    """A ``2**bits`` x ``2**bits`` cell grid over a square space.

    Args:
        space_side: side length of the (square) space domain.
        bits: per-axis resolution in bits.
        curve: space-filling curve linearizing the cells; defaults to the
            paper's Z-curve.  Any :mod:`repro.spatial.curves` curve works —
            the ``z_value``/``z_span`` method names are kept for
            continuity with the paper's ZV notation even when the curve
            is not Z.
    """

    def __init__(self, space_side: float, bits: int = DEFAULT_GRID_BITS, curve=ZCURVE):
        if space_side <= 0:
            raise ValueError(f"space_side must be positive, got {space_side}")
        if bits <= 0 or bits > 32:
            raise ValueError(f"bits must be in 1..32, got {bits}")
        self.space_side = float(space_side)
        self.bits = bits
        self.curve = curve
        self.cells_per_axis = 1 << bits
        self.cell_size = self.space_side / self.cells_per_axis
        #: The full space domain as a rectangle; every ``z_span`` and
        #: ``decompose`` clips against it.
        self.bounds = Rect(0.0, self.space_side, 0.0, self.space_side)

    @property
    def zv_bits(self) -> int:
        """Bit width of a curve value on this grid."""
        return 2 * self.bits

    @property
    def max_z(self) -> int:
        """Largest curve value on this grid."""
        return (1 << self.zv_bits) - 1

    def cell_of(self, coordinate: float) -> int:
        """Cell index of one axis coordinate, clamped into the grid
        (an infinite coordinate included: a window over the whole space
        may have infinite bounds)."""
        if coordinate <= 0.0:
            return 0
        if coordinate >= self.space_side:
            return self.cells_per_axis - 1
        return min(int(coordinate / self.cell_size), self.cells_per_axis - 1)

    def z_value(self, x: float, y: float) -> int:
        """Curve value of the cell containing ``(x, y)`` (clamped into space)."""
        return self.curve.encode(self.cell_of(x), self.cell_of(y), self.bits)

    def cell_box(self, rect: Rect) -> tuple[int, int, int, int]:
        """Inclusive cell-index bounds of all cells intersecting ``rect``."""
        return (
            self.cell_of(rect.x_lo),
            self.cell_of(rect.x_hi),
            self.cell_of(rect.y_lo),
            self.cell_of(rect.y_hi),
        )

    def decompose(self, rect: Rect, coarsen: bool = False) -> list[ZInterval]:
        """Curve intervals covering every cell that intersects ``rect``.

        The rectangle is clipped to the space domain first (enlarged query
        windows routinely overhang the space boundary).

        With ``coarsen=True`` the quadtree descent stops at roughly 1/8 of
        the window's cell extent, emitting a bounded number of slightly
        over-covering intervals — the query algorithms use this to keep
        the interval count (and hence the number of B+-tree descents)
        independent of the grid resolution.
        """
        clipped = rect.intersection(self.bounds)
        if clipped is None:
            return []
        box = self.cell_box(clipped)
        min_quad = coarse_quad_side(*box) if coarsen else 1
        return curve_decompose(self.curve, *box, self.bits, min_quad)

    def z_span(self, rect: Rect) -> ZInterval | None:
        """The single ``(min, max)`` curve window of a rectangle.

        This is the coarse one-interval-per-range form the PkNN algorithm
        uses (Section 5.4: "we consider only the one interval formed by
        the minimum and maximum 1-dimensional values of the query range").

        On the Z-curve this is a two-corner lookup (the Morton code is
        monotone per coordinate); on other curves the window comes from a
        coarsened decomposition and may over-cover slightly — candidates
        outside the rectangle are discarded by verification either way.
        """
        return self.z_span_of(rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi)

    def z_span_of(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> ZInterval | None:
        """:meth:`z_span` of the rectangle with these bounds, built from none.

        The one implementation: the rectangle (``x_lo <= x_hi``, ``y_lo
        <= y_hi``) is clipped to the space exactly as
        ``Rect.intersection(self.bounds)`` clips it (closed sides; None
        when the two are disjoint), so a caller that holds bounds — the
        PkNN search computes a window per round — gets the same span
        without allocating a ``Rect``.
        """
        side = self.space_side
        if not (x_lo <= side and 0.0 <= x_hi and y_lo <= side and 0.0 <= y_hi):
            return None
        # cell_of() of each clipped bound, spelled out: every round of a
        # PkNN search computes one span per live partition.
        size, last = self.cell_size, self.cells_per_axis - 1
        ix_lo = int(x_lo / size) if x_lo > 0.0 else 0
        ix_hi = int(x_hi / size) if x_hi < side else last
        iy_lo = int(y_lo / size) if y_lo > 0.0 else 0
        iy_hi = int(y_hi / size) if y_hi < side else last
        if ix_lo > last or ix_hi > last or iy_lo > last or iy_hi > last:
            # A bound within rounding of the far edge: cell_of's clamp.
            ix_lo, ix_hi = min(ix_lo, last), min(ix_hi, last)
            iy_lo, iy_hi = min(iy_lo, last), min(iy_hi, last)
        return curve_span(self.curve, ix_lo, ix_hi, iy_lo, iy_hi, self.bits)
