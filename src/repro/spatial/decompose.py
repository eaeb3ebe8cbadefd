"""Curve-value intervals: the 1-D ranges every index scan is issued over.

"The enlarged query range is then converted into intervals of consecutive
space-filling curve values.  As a result, a sequence of range queries are
issued to the Bx-tree" (Section 2.1).  The conversion itself is
:func:`repro.spatial.curves.curve_decompose`; this module holds the
interval type and the set operations on sorted interval lists that the
decomposition, the band scanner and the PkNN search share.
"""

from __future__ import annotations

ZInterval = tuple[int, int]


def merge_intervals(intervals: list[ZInterval]) -> list[ZInterval]:
    """Merge a sorted list of intervals, fusing overlaps and adjacencies."""
    merged: list[ZInterval] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def subtract_interval(outer: ZInterval, inner: ZInterval) -> list[ZInterval]:
    """Set-difference ``outer - inner`` as up to two intervals.

    Used by the PkNN search (Section 5.4): round *j* scans the 1-D window
    of the enlarged square minus the window already scanned in round
    *j - 1* ("the region R'q2 - R'q1 is searched").
    """
    out_lo, out_hi = outer
    in_lo, in_hi = inner
    if in_lo > out_hi or in_hi < out_lo:
        return [outer]
    pieces: list[ZInterval] = []
    if out_lo < in_lo:
        pieces.append((out_lo, in_lo - 1))
    if in_hi < out_hi:
        pieces.append((in_hi + 1, out_hi))
    return pieces
