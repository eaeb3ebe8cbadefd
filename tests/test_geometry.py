"""Tests for rectangles and distances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Rect, euclidean

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


def rect(x_lo=0, x_hi=10, y_lo=0, y_hi=10):
    return Rect(x_lo, x_hi, y_lo, y_hi)


def test_degenerate_bounds_rejected():
    with pytest.raises(ValueError):
        Rect(5, 4, 0, 1)
    with pytest.raises(ValueError):
        Rect(0, 1, 5, 4)


@pytest.mark.parametrize("field", range(4))
def test_nan_bound_rejected(field):
    """NaN compares false both ways: the bounds test must fail closed."""
    bounds = [0.0, 10.0, 0.0, 10.0]
    bounds[field] = math.nan
    with pytest.raises(ValueError):
        Rect(*bounds)


def test_infinite_bounds_are_valid():
    """An unbounded window is meaningful; the grid clamps it."""
    plane = Rect(-math.inf, math.inf, -math.inf, math.inf)
    assert plane.contains(1e300, -1e300)
    assert plane.intersection(rect()) == rect()
    assert Rect(-math.inf, 5, 0, math.inf).contains(-1e9, 1e9)


def test_zero_area_rect_is_valid():
    point = Rect(3, 3, 4, 4)
    assert point.area == 0
    assert point.contains(3, 4)


def test_from_center():
    square = Rect.from_center(5, 5, 2)
    assert (square.x_lo, square.x_hi, square.y_lo, square.y_hi) == (3, 7, 3, 7)
    with pytest.raises(ValueError):
        Rect.from_center(0, 0, -1)


def test_dimensions():
    r = rect(0, 4, 1, 7)
    assert r.width == 4
    assert r.height == 6
    assert r.area == 24
    assert r.center == (2, 4)


def test_contains_boundary_is_closed():
    r = rect()
    assert r.contains(0, 0)
    assert r.contains(10, 10)
    assert not r.contains(10.001, 5)


def test_contains_rect():
    outer = rect(0, 10, 0, 10)
    assert outer.contains_rect(rect(2, 8, 2, 8))
    assert outer.contains_rect(outer)
    assert not outer.contains_rect(rect(2, 11, 2, 8))


def test_intersection_cases():
    a = rect(0, 10, 0, 10)
    assert a.intersection(rect(5, 15, 5, 15)) == rect(5, 10, 5, 10)
    assert a.intersection(rect(20, 30, 0, 10)) is None
    # Touching edges intersect with zero area (closed rectangles).
    touching = a.intersection(rect(10, 20, 0, 10))
    assert touching is not None
    assert touching.area == 0


def test_overlap_area():
    a = rect(0, 10, 0, 10)
    assert a.overlap_area(rect(5, 15, 5, 15)) == 25
    assert a.overlap_area(rect(50, 60, 50, 60)) == 0.0


def test_expanded():
    r = rect(2, 4, 6, 8).expanded(1, 2)
    assert (r.x_lo, r.x_hi, r.y_lo, r.y_hi) == (1, 5, 4, 10)


def test_min_distance():
    r = rect(0, 10, 0, 10)
    assert r.min_distance(5, 5) == 0
    assert r.min_distance(13, 5) == 3
    assert r.min_distance(13, 14) == pytest.approx(5.0)


def test_euclidean():
    assert euclidean(0, 0, 3, 4) == 5.0
    assert euclidean(1, 1, 1, 1) == 0.0


@settings(max_examples=100, deadline=None)
@given(ax=coords, ay=coords, w=st.floats(0, 100), h=st.floats(0, 100))
def test_intersection_commutes(ax, ay, w, h):
    a = Rect(ax, ax + w, ay, ay + h)
    b = Rect(0, 50, 0, 50)
    assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))
    assert a.intersects(b) == b.intersects(a)


@settings(max_examples=100, deadline=None)
@given(ax=coords, ay=coords, w=st.floats(0, 100), h=st.floats(0, 100))
def test_overlap_bounded_by_areas(ax, ay, w, h):
    a = Rect(ax, ax + w, ay, ay + h)
    b = Rect(-20, 30, -20, 30)
    overlap = a.overlap_area(b)
    assert overlap <= a.area + 1e-9
    assert overlap <= b.area + 1e-9
    assert overlap >= 0
