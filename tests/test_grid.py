"""Tests for the continuous-space <-> cell-grid mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import Grid, Rect
from repro.spatial.curves import (
    HILBERT,
    ZCURVE,
    coarse_quad_side,
    curve_decompose,
    curve_span,
)
from repro.spatial.zcurve import z_encode


def test_cell_size():
    grid = Grid(1000.0, 10)
    assert grid.cells_per_axis == 1024
    assert grid.cell_size == pytest.approx(1000.0 / 1024)
    assert grid.zv_bits == 20
    assert grid.max_z == (1 << 20) - 1


def test_cell_of_clamps():
    grid = Grid(1000.0, 4)
    assert grid.cell_of(-10) == 0
    assert grid.cell_of(0) == 0
    assert grid.cell_of(999.99) == 15
    assert grid.cell_of(5000) == 15


def test_z_value_of_known_cell():
    grid = Grid(8.0, 3)  # cell size 1
    assert grid.z_value(2.5, 3.5) == z_encode(2, 3)


def test_cell_box():
    grid = Grid(8.0, 3)
    assert grid.cell_box(Rect(1.2, 3.8, 0.0, 2.0)) == (1, 3, 0, 2)


BOTH_CURVES = pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)


def decoded_cells(grid, intervals):
    return {
        grid.curve.decode(value, grid.bits)
        for lo, hi in intervals
        for value in range(lo, hi + 1)
    }


@BOTH_CURVES
def test_decompose_covers_exactly_intersecting_cells(curve):
    grid = Grid(8.0, 3, curve=curve)
    intervals = grid.decompose(Rect(1.2, 3.8, 0.0, 2.0))
    cells = decoded_cells(grid, intervals)
    assert cells == {(x, y) for x in range(1, 4) for y in range(0, 3)}


@BOTH_CURVES
def test_decompose_clips_overhanging_windows(curve):
    grid = Grid(8.0, 3, curve=curve)
    assert grid.decompose(Rect(-100, 100, -100, 100)) == [(0, 63)]


@BOTH_CURVES
def test_decompose_outside_space_is_empty(curve):
    grid = Grid(8.0, 3, curve=curve)
    assert grid.decompose(Rect(10, 20, 0, 5)) == []
    assert grid.decompose(Rect(10, 20, 0, 5), coarsen=True) == []


@BOTH_CURVES
def test_coarsened_decompose_descends_to_an_eighth_of_the_window(curve):
    """``coarsen=True`` stops at quads of the side ``coarse_quad_side``
    picks for the window's cell box: 8 for a box 64 cells wide."""
    grid = Grid(1024.0, 10, curve=curve)  # cell size 1
    window = Rect(100.5, 163.5, 300.5, 320.5)
    box = grid.cell_box(window)
    assert box == (100, 163, 300, 320)
    assert coarse_quad_side(*box) == 8
    coarse = grid.decompose(window, coarsen=True)
    assert coarse == curve_decompose(curve, *box, 10, 8)
    exact_cells = decoded_cells(grid, grid.decompose(window))
    assert exact_cells == {
        (x, y) for x in range(100, 164) for y in range(300, 321)
    }
    coarse_cells = decoded_cells(grid, coarse)
    assert exact_cells <= coarse_cells
    assert coarse_cells <= {(x, y) for x in range(96, 168) for y in range(296, 328)}


def test_z_span_is_corner_codes():
    grid = Grid(8.0, 3)
    span = grid.z_span(Rect(1.0, 3.0, 2.0, 5.0))
    assert span == (z_encode(1, 2), z_encode(3, 5))


def test_z_span_outside_space_is_none():
    grid = Grid(8.0, 3)
    assert grid.z_span(Rect(9, 10, 0, 1)) is None


def test_invalid_parameters():
    with pytest.raises(ValueError):
        Grid(0, 4)
    with pytest.raises(ValueError):
        Grid(10, 0)
    with pytest.raises(ValueError):
        Grid(10, 40)


@BOTH_CURVES
@settings(max_examples=120, deadline=None)
@given(
    x0=st.floats(min_value=0, max_value=7.9),
    y0=st.floats(min_value=0, max_value=7.9),
    w=st.floats(min_value=0, max_value=8),
    h=st.floats(min_value=0, max_value=8),
)
def test_z_span_contains_every_decomposed_interval(curve, x0, y0, w, h):
    """The single-span window is always a superset of the exact cover
    (on Hilbert the span is itself read off a coarsened decomposition)."""
    grid = Grid(8.0, 3, curve=curve)
    window = Rect(x0, x0 + w, y0, y0 + h)
    span = grid.z_span(window)
    intervals = grid.decompose(window)
    assert span is not None
    for lo, hi in intervals:
        assert span[0] <= lo and hi <= span[1]


def rect_span(grid, rect):
    """``z_span`` as the Rect operations spell it: clip, cell box, span."""
    clipped = rect.intersection(grid.bounds)
    if clipped is None:
        return None
    return curve_span(grid.curve, *grid.cell_box(clipped), grid.bits)


#: Bounds on, inside, just outside and far outside a side-``side`` space.
def bound(side):
    return st.one_of(
        st.sampled_from((0.0, -0.0, side, -1e-12, side + 1e-12, -1e7, side * 1e4)),
        st.floats(min_value=-2 * side, max_value=3 * side),
    )


@settings(max_examples=300, deadline=None)
@given(
    setup=st.sampled_from(
        ((1000.0, 10, ZCURVE), (7.3, 3, ZCURVE), (1000.0, 10, HILBERT), (7.3, 3, HILBERT))
    ),
    data=st.data(),
)
def test_z_span_of_bounds_equals_the_rect_spelling(setup, data):
    """One implementation behind ``z_span``: the bounds-taking primitive
    clips and buckets exactly as ``Rect.intersection`` + ``cell_box`` do,
    on a side that divides into cells exactly and on one that does not."""
    side, bits, curve = setup
    grid = Grid(side, bits, curve=curve)
    x = sorted(data.draw(st.tuples(bound(side), bound(side))))
    y = sorted(data.draw(st.tuples(bound(side), bound(side))))
    rect = Rect(x[0], x[1], y[0], y[1])
    assert grid.z_span_of(x[0], x[1], y[0], y[1]) == rect_span(grid, rect)
    assert grid.z_span(rect) == rect_span(grid, rect)


@BOTH_CURVES
@settings(max_examples=120, deadline=None)
@given(
    x=st.floats(min_value=0, max_value=999.999),
    y=st.floats(min_value=0, max_value=999.999),
)
def test_point_z_value_inside_own_window_span(curve, x, y):
    grid = Grid(1000.0, 8, curve=curve)
    z = grid.z_value(x, y)
    span = grid.z_span(Rect(x, x, y, y))
    assert span == (z, z)
