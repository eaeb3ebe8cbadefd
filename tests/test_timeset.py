"""Tests for time intervals and interval unions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.timeset import DEFAULT_TIME_DOMAIN, TimeInterval, TimeSet, fold

times = st.floats(min_value=0, max_value=1440, allow_nan=False)


def test_interval_basics():
    work = TimeInterval(480, 1020)  # 8am - 5pm in minutes
    assert work.duration == 540
    assert work.contains(480)
    assert work.contains(1019.9)
    assert not work.contains(1020)  # half-open
    assert not work.contains(100)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        TimeInterval(100, 50)


def test_empty_interval_contains_nothing():
    empty = TimeInterval(100, 100)
    assert empty.duration == 0
    assert not empty.contains(100)


def test_overlap():
    a = TimeInterval(0, 100)
    assert a.overlap(TimeInterval(50, 150)) == 50
    assert a.overlap(TimeInterval(100, 200)) == 0
    assert a.overlap(TimeInterval(20, 30)) == 10
    assert a.intersects(TimeInterval(99, 200))
    assert not a.intersects(TimeInterval(100, 200))


def test_timeset_normalizes():
    ts = TimeSet([TimeInterval(50, 80), TimeInterval(0, 60), TimeInterval(200, 300)])
    assert ts.intervals == [TimeInterval(0, 80), TimeInterval(200, 300)]
    assert ts.duration == 180


def test_timeset_drops_empty_pieces():
    ts = TimeSet([TimeInterval(5, 5), TimeInterval(1, 2)])
    assert ts.intervals == [TimeInterval(1, 2)]


def test_timeset_contains():
    ts = TimeSet([TimeInterval(0, 10), TimeInterval(20, 30)])
    assert ts.contains(5)
    assert not ts.contains(15)
    assert ts.contains(25)


def test_timeset_overlap_with_interval_and_set():
    ts = TimeSet([TimeInterval(0, 10), TimeInterval(20, 30)])
    assert ts.overlap(TimeInterval(5, 25)) == 10
    other = TimeSet([TimeInterval(8, 22)])
    assert ts.overlap(other) == 4
    assert ts.intersects(other)


def test_timeset_equality():
    a = TimeSet([TimeInterval(0, 10)])
    b = TimeSet([TimeInterval(0, 5), TimeInterval(5, 10)])
    assert a == b


def test_fold():
    assert fold(0) == 0
    assert fold(1440) == 0
    assert fold(1500) == 60
    assert fold(2 * 1440 + 7) == 7
    assert DEFAULT_TIME_DOMAIN == 1440.0


@settings(max_examples=100, deadline=None)
@given(s1=times, d1=st.floats(0, 500), s2=times, d2=st.floats(0, 500))
def test_overlap_symmetry_and_bounds(s1, d1, s2, d2):
    a = TimeInterval(s1, s1 + d1)
    b = TimeInterval(s2, s2 + d2)
    assert a.overlap(b) == pytest.approx(b.overlap(a))
    assert a.overlap(b) <= min(a.duration, b.duration) + 1e-9
    assert a.overlap(b) >= 0


@settings(max_examples=100, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(times, st.floats(0, 200)), min_size=0, max_size=6
    )
)
def test_timeset_duration_never_exceeds_piece_sum(pieces):
    intervals = [TimeInterval(start, start + width) for start, width in pieces]
    ts = TimeSet(intervals)
    assert ts.duration <= sum(iv.duration for iv in intervals) + 1e-9
    # Normalized pieces are sorted and disjoint.
    for first, second in zip(ts.intervals, ts.intervals[1:]):
        assert first.end < second.start


@settings(max_examples=100, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(times, st.floats(0, 200)), min_size=0, max_size=6
    )
)
def test_timeset_contains_equals_any_piece_contains(pieces):
    """The one-loop membership test agrees with each piece's own test at
    every piece boundary, at 0 and just below the domain's end."""
    intervals = [TimeInterval(start, start + width) for start, width in pieces]
    ts = TimeSet(intervals)
    instants = {0.0, math.nextafter(DEFAULT_TIME_DOMAIN, 0.0), DEFAULT_TIME_DOMAIN}
    for piece in ts.intervals + intervals:
        for edge in (piece.start, piece.end):
            instants.update(
                (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))
            )
    for t in instants:
        expected = any(piece.contains(t) for piece in ts.intervals)
        assert ts.contains(t) == expected
        # ... and normalizing kept the union of the pieces it was given.
        assert expected == any(piece.contains(t) for piece in intervals)
