"""Time intervals on a cyclic time domain.

Policies constrain *when* a location may be seen ("during work hours,
8 a.m. to 5 p.m." in the paper's example).  We model the time domain as a
cycle of length ``T`` (one day, by default 1440 minutes); a policy's
``tint`` is a subset of ``[0, T)`` — a single interval or a union of
intervals.  Absolute simulation timestamps are folded into the domain
with ``t mod T`` at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default cyclic time-domain length: one day in minutes.
DEFAULT_TIME_DOMAIN = 1440.0


@dataclass(frozen=True)
class TimeInterval:
    """A half-open interval ``[start, end)`` within the time domain."""

    start: float
    end: float

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """Membership of a (already domain-folded) instant."""
        return self.start <= t < self.end

    def overlap(self, other: TimeInterval) -> float:
        """Duration of the overlap — D(tint1, tint2) in Section 5.1."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        return max(0.0, hi - lo)

    def intersects(self, other: TimeInterval) -> bool:
        return self.overlap(other) > 0.0


class TimeSet:
    """A union of disjoint :class:`TimeInterval` pieces.

    Built from arbitrary (possibly overlapping, unsorted) intervals, which
    are normalized on construction.  Supports the same membership and
    overlap operations as a single interval, so policies can use either.
    """

    def __init__(self, intervals: list[TimeInterval]):
        self.intervals = self._normalize(intervals)

    @classmethod
    def from_normalized(cls, intervals: list[TimeInterval]) -> "TimeSet":
        """Adopt intervals that are already sorted, disjoint, non-empty.

        Deserialization fast path: payloads written from a ``TimeSet``
        are normalized by construction, and re-sorting hundreds of
        thousands of two-piece sets dominates checkpoint restore time.
        The caller vouches for the invariant.
        """
        timeset = cls.__new__(cls)
        timeset.intervals = intervals
        return timeset

    @staticmethod
    def _normalize(intervals: list[TimeInterval]) -> list[TimeInterval]:
        pieces = sorted(
            (iv for iv in intervals if iv.duration > 0), key=lambda iv: iv.start
        )
        merged: list[TimeInterval] = []
        for piece in pieces:
            if merged and piece.start <= merged[-1].end:
                merged[-1] = TimeInterval(
                    merged[-1].start, max(merged[-1].end, piece.end)
                )
            else:
                merged.append(piece)
        return merged

    @property
    def duration(self) -> float:
        """Total covered duration — |tint| in Section 5.1."""
        return sum(iv.duration for iv in self.intervals)

    def contains(self, t: float) -> bool:
        for piece in self.intervals:
            if piece.start <= t < piece.end:
                return True
        return False

    def overlap(self, other: TimeInterval | TimeSet) -> float:
        other_pieces = other.intervals if isinstance(other, TimeSet) else [other]
        return sum(
            mine.overlap(theirs)
            for mine in self.intervals
            for theirs in other_pieces
        )

    def intersects(self, other: TimeInterval | TimeSet) -> bool:
        return self.overlap(other) > 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeSet) and self.intervals == other.intervals

    def __repr__(self) -> str:
        return f"TimeSet({self.intervals!r})"


def fold(t: float, domain: float = DEFAULT_TIME_DOMAIN) -> float:
    """Fold an absolute timestamp into the cyclic time domain."""
    return t % domain
