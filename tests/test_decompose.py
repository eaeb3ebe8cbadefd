"""Tests for rectangle -> curve-interval decomposition.

``curve_decompose`` is the one quadtree descent behind ``Grid.decompose``;
the brute-force checks run it on the paper's Z-curve and on Hilbert.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.curves import HILBERT, ZCURVE, coarse_quad_side, curve_decompose
from repro.spatial.decompose import merge_intervals, subtract_interval

BOTH_CURVES = pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)


def brute_cells(x0, x1, y0, y1, curve=ZCURVE, bits=3):
    return {
        curve.encode(x, y, bits)
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
    }


def covered(intervals):
    cells = set()
    for lo, hi in intervals:
        cells.update(range(lo, hi + 1))
    return cells


@BOTH_CURVES
def test_full_grid_is_one_interval(curve):
    assert curve_decompose(curve, 0, 7, 0, 7, 3) == [(0, 63)]


@BOTH_CURVES
def test_single_cell(curve):
    value = curve.encode(5, 3, 3)
    assert curve_decompose(curve, 5, 5, 3, 3, 3) == [(value, value)]


def test_paper_example_rows():
    """The Section 5.3 worked example: R = ([2,2],[4,6]) in an 8x8 space.

    The paper's own Z numbering ([13;16] and [25;28]) interleaves with the
    opposite bit orientation; what is invariant across orientations — and
    what this asserts — is that the decomposition covers exactly the
    rectangle's cells.
    """
    intervals = curve_decompose(ZCURVE, 2, 2, 4, 6, 3)
    assert covered(intervals) == brute_cells(2, 2, 4, 6)


@BOTH_CURVES
def test_exactness_small_cases(curve):
    for box in [(0, 3, 0, 0), (1, 6, 2, 5), (7, 7, 0, 7), (3, 4, 3, 4)]:
        intervals = curve_decompose(curve, *box, 3)
        assert covered(intervals) == brute_cells(*box, curve)


@BOTH_CURVES
def test_output_sorted_disjoint_non_adjacent(curve):
    intervals = curve_decompose(curve, 1, 6, 2, 5, 3)
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 + 1 < lo2


@BOTH_CURVES
def test_clipping_to_grid(curve):
    assert curve_decompose(curve, -5, 100, -5, 100, 3) == [(0, 63)]
    assert curve_decompose(curve, 9, 12, 0, 3, 3) == []


@BOTH_CURVES
def test_empty_box(curve):
    assert curve_decompose(curve, 5, 4, 0, 3, 3) == []


@BOTH_CURVES
def test_invalid_bits(curve):
    with pytest.raises(ValueError):
        curve_decompose(curve, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        curve_decompose(curve, 0, 1, 0, 1, 33)


@BOTH_CURVES
def test_coarsening_covers_superset_with_fewer_intervals(curve):
    exact = curve_decompose(curve, 3, 60, 5, 58, 6)
    coarse = curve_decompose(curve, 3, 60, 5, 58, 6, min_quad_side=8)
    assert len(coarse) <= len(exact)
    assert covered(exact) <= covered(coarse)


@BOTH_CURVES
def test_coarsening_validation(curve):
    with pytest.raises(ValueError):
        curve_decompose(curve, 0, 1, 0, 1, 3, min_quad_side=0)


def test_coarse_quad_side_is_an_eighth_of_the_longer_side():
    extents = (1, 15, 16, 31, 32)
    sides = [coarse_quad_side(0, extent - 1, 0, 0) for extent in extents]
    assert sides == [1, 1, 2, 2, 4]
    assert coarse_quad_side(0, 3, 10, 10 + 255) == 32


@settings(max_examples=200, deadline=None)
@given(
    x0=st.integers(0, 2000),
    y0=st.integers(0, 2000),
    width=st.integers(1, 4000),
    height=st.integers(1, 4000),
)
def test_coarse_quad_side_is_the_largest_power_of_two_within_an_eighth(
    x0, y0, width, height
):
    side = coarse_quad_side(x0, x0 + width - 1, y0, y0 + height - 1)
    extent = max(width, height)
    assert side & (side - 1) == 0
    assert side == 1 or side * 8 <= extent
    assert side * 16 > extent


@BOTH_CURVES
@settings(max_examples=120, deadline=None)
@given(
    bits=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_exact_decomposition_property(curve, bits, data):
    side = 1 << bits
    x0 = data.draw(st.integers(0, side - 1))
    x1 = data.draw(st.integers(x0, side - 1))
    y0 = data.draw(st.integers(0, side - 1))
    y1 = data.draw(st.integers(y0, side - 1))
    intervals = curve_decompose(curve, x0, x1, y0, y1, bits)
    assert covered(intervals) == brute_cells(x0, x1, y0, y1, curve, bits)
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 + 1 < lo2


@BOTH_CURVES
@settings(max_examples=120, deadline=None)
@given(
    bits=st.integers(min_value=3, max_value=6),
    quad_exp=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_coarse_decomposition_is_superset(curve, bits, quad_exp, data):
    side = 1 << bits
    x0 = data.draw(st.integers(0, side - 1))
    x1 = data.draw(st.integers(x0, side - 1))
    y0 = data.draw(st.integers(0, side - 1))
    y1 = data.draw(st.integers(y0, side - 1))
    coarse = curve_decompose(curve, x0, x1, y0, y1, bits, 1 << quad_exp)
    assert brute_cells(x0, x1, y0, y1, curve, bits) <= covered(coarse)
    for (lo1, hi1), (lo2, hi2) in zip(coarse, coarse[1:]):
        assert hi1 + 1 < lo2


@BOTH_CURVES
@pytest.mark.parametrize("bits", [8, 10])
@pytest.mark.parametrize("min_quad_side", [1, 8], ids=["exact", "coarse"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decomposition_at_grid_resolution(curve, bits, min_quad_side, data):
    """Boxes of up to 24 cells a side anywhere on the 8- and 10-bit grids
    the experiments use: the exact descent covers the box's cells and
    nothing else; the coarsened one covers them, with no more intervals
    and no cell outside the side-``min_quad_side`` blocks the box meets."""
    side = 1 << bits
    x0 = data.draw(st.integers(0, side - 1))
    x1 = data.draw(st.integers(x0, min(x0 + 23, side - 1)))
    y0 = data.draw(st.integers(0, side - 1))
    y1 = data.draw(st.integers(y0, min(y0 + 23, side - 1)))
    intervals = curve_decompose(curve, x0, x1, y0, y1, bits, min_quad_side)
    cells = brute_cells(x0, x1, y0, y1, curve, bits)
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 + 1 < lo2
    if min_quad_side == 1:
        assert covered(intervals) == cells
        return
    assert cells <= covered(intervals)
    assert len(intervals) <= len(curve_decompose(curve, x0, x1, y0, y1, bits))
    q = min_quad_side
    blocks = brute_cells(
        x0 // q * q, x1 // q * q + q - 1, y0 // q * q, y1 // q * q + q - 1, curve, bits
    )
    assert covered(intervals) <= blocks


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 6)), max_size=12).map(
        lambda pairs: sorted((lo, lo + width) for lo, width in pairs)
    )
)
def test_merge_intervals_is_the_maximal_cover_of_the_union(intervals):
    merged = merge_intervals(intervals)
    assert covered(merged) == covered(intervals)
    for (lo1, hi1), (lo2, hi2) in zip(merged, merged[1:]):
        assert hi1 + 1 < lo2


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
    st.tuples(st.integers(0, 40), st.integers(0, 40)).map(sorted),
)
def test_subtract_interval_is_the_set_difference(outer, inner):
    pieces = subtract_interval(tuple(outer), tuple(inner))
    assert covered(pieces) == covered([outer]) - covered([inner])
    assert len(pieces) <= 2
    for (lo1, hi1), (lo2, hi2) in zip(pieces, pieces[1:]):
        assert hi1 < lo2


# ----------------------------------------------------------------------
# Interval helpers
# ----------------------------------------------------------------------

def test_merge_intervals_fuses_adjacent():
    assert merge_intervals([(0, 3), (4, 6), (9, 10)]) == [(0, 6), (9, 10)]


def test_merge_intervals_fuses_overlap():
    assert merge_intervals([(0, 5), (2, 8)]) == [(0, 8)]


def test_merge_intervals_empty():
    assert merge_intervals([]) == []


def test_subtract_disjoint():
    assert subtract_interval((0, 5), (10, 20)) == [(0, 5)]


def test_subtract_covering():
    assert subtract_interval((3, 7), (0, 100)) == []


def test_subtract_middle():
    assert subtract_interval((0, 10), (4, 6)) == [(0, 3), (7, 10)]


def test_subtract_left_overlap():
    assert subtract_interval((0, 10), (0, 4)) == [(5, 10)]


def test_subtract_right_overlap():
    assert subtract_interval((0, 10), (8, 12)) == [(0, 7)]
