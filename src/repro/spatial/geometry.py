"""Axis-aligned geometry primitives used across the library.

Rectangles are closed on all sides; a zero-width or zero-height rectangle
is valid (a segment or a point) with zero area.  Everything operates in
the continuous coordinate space of the paper's experiments, a square of
side 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle ``[x_lo, x_hi] x [y_lo, y_hi]``."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        # Written so a NaN bound fails the test instead of passing it.
        if not (self.x_lo <= self.x_hi and self.y_lo <= self.y_hi):
            raise ValueError(f"degenerate rectangle bounds: {self}")

    @classmethod
    def from_center(cls, x: float, y: float, half_side: float) -> Rect:
        """The square of side ``2 * half_side`` centered at ``(x, y)``."""
        if half_side < 0:
            raise ValueError(f"half_side must be non-negative, got {half_side}")
        return cls(x - half_side, x + half_side, y - half_side, y + half_side)

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_lo + self.x_hi) / 2.0, (self.y_lo + self.y_hi) / 2.0

    def contains(self, x: float, y: float) -> bool:
        """True if the point lies inside or on the boundary."""
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def contains_rect(self, other: Rect) -> bool:
        """True if ``other`` lies entirely inside this rectangle."""
        return (
            self.x_lo <= other.x_lo
            and other.x_hi <= self.x_hi
            and self.y_lo <= other.y_lo
            and other.y_hi <= self.y_hi
        )

    def intersects(self, other: Rect) -> bool:
        """True if the closed rectangles share at least a boundary point."""
        return (
            self.x_lo <= other.x_hi
            and other.x_lo <= self.x_hi
            and self.y_lo <= other.y_hi
            and other.y_lo <= self.y_hi
        )

    def intersection(self, other: Rect) -> Rect | None:
        """The overlap rectangle, or None when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.x_lo, other.x_lo),
            min(self.x_hi, other.x_hi),
            max(self.y_lo, other.y_lo),
            min(self.y_hi, other.y_hi),
        )

    def overlap_area(self, other: Rect) -> float:
        """Area of the overlap (0.0 when disjoint); O(locr1, locr2) in 5.1."""
        overlap = self.intersection(other)
        return 0.0 if overlap is None else overlap.area

    def expanded(self, dx: float, dy: float) -> Rect:
        """Grow by ``dx`` on both x sides and ``dy`` on both y sides.

        This is the query enlargement of Figure 2.  Negative growth is
        allowed (shrinking) but must not invert the rectangle.
        """
        return Rect(self.x_lo - dx, self.x_hi + dx, self.y_lo - dy, self.y_hi + dy)

    def clipped(self, other: Rect) -> Rect | None:
        """Alias of :meth:`intersection` that reads better at call sites."""
        return self.intersection(other)

    def min_distance(self, x: float, y: float) -> float:
        """Euclidean distance from the point to the rectangle (0 inside)."""
        dx = max(self.x_lo - x, 0.0, x - self.x_hi)
        dy = max(self.y_lo - y, 0.0, y - self.y_hi)
        return math.hypot(dx, dy)


def euclidean(x1: float, y1: float, x2: float, y2: float) -> float:
    """Euclidean distance between two points."""
    return math.hypot(x1 - x2, y1 - y2)
