"""Tests for the continuous privacy-aware range query monitor.

Central invariant: between two consecutive events reported by
``events_between`` the result set is constant, and at every sampled time
``result_at`` equals the brute-force Definition-2 evaluation over the
tracked population.
"""

import random

import pytest

from repro.bench.oracle import brute_force_prq
from repro.core.continuous import (
    ContinuousPRQ,
    MembershipEvent,
    _axis_crossing,
    _merge,
    _rect_crossing,
    _unrolled_tint,
)
from repro.core.peb_tree import PEBTree
from repro.core.sequencing import assign_sequence_values
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

from tests.conftest import build_world

T = 1440.0
EVERYWHERE = Rect(0, 1000, 0, 1000)
ALWAYS = TimeInterval(0, 1440)


def mover(uid, x, y, vx=0.0, vy=0.0, t=0.0):
    return MovingObject(uid=uid, x=x, y=y, vx=vx, vy=vy, t_update=t)


def policy(owner, locr=EVERYWHERE, tint=ALWAYS):
    return LocationPrivacyPolicy(owner=owner, role="friend", locr=locr, tint=tint)


def build_tree(states, store, page_size=1024):
    grid = Grid(1000.0, 10)
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity=512)
    tree = PEBTree(pool, grid, TimePartitioner(120.0, 2), store)
    for obj in states.values():
        tree.insert(obj)
    return tree


# ----------------------------------------------------------------------
# Interval arithmetic helpers
# ----------------------------------------------------------------------


def test_axis_crossing_static_inside():
    assert _axis_crossing(5.0, 0.0, 0.0, 10.0) == (-float("inf"), float("inf"))


def test_axis_crossing_static_outside():
    assert _axis_crossing(15.0, 0.0, 0.0, 10.0) is None


def test_axis_crossing_moving_right():
    # x(t) = 0 + 2t enters [4, 10] at t=2, exits at t=5.
    assert _axis_crossing(0.0, 2.0, 4.0, 10.0) == (2.0, 5.0)


def test_axis_crossing_moving_left():
    # x(t) = 20 - 2t: enters [4, 10] at t=5, exits at t=8.
    assert _axis_crossing(20.0, -2.0, 4.0, 10.0) == (5.0, 8.0)


def test_rect_crossing_combines_axes():
    obj = mover(1, 0.0, 0.0, vx=1.0, vy=2.0)
    rect = Rect(5, 20, 8, 30)
    # x in [5,20] for t in [5,20]; y in [8,30] for t in [4,15] -> [5,15].
    assert _rect_crossing(obj, rect, 0.0, 100.0) == (5.0, 15.0)


def test_rect_crossing_clamps_to_horizon():
    obj = mover(1, 0.0, 0.0, vx=1.0, vy=1.0)
    rect = Rect(0, 100, 0, 100)
    assert _rect_crossing(obj, rect, 10.0, 50.0) == (10.0, 50.0)


def test_rect_crossing_disjoint_none():
    obj = mover(1, 0.0, 0.0, vx=-1.0, vy=0.0)
    assert _rect_crossing(obj, Rect(5, 10, 0, 10), 0.0, 100.0) is None


def test_rect_crossing_respects_update_time():
    obj = mover(1, 0.0, 0.0, vx=1.0, vy=0.0, t=100.0)
    rect = Rect(10, 20, -5, 5)
    assert _rect_crossing(obj, rect, 0.0, 1000.0) == (110.0, 120.0)


def test_unrolled_tint_spans_cycles():
    p = policy(1, tint=TimeInterval(60, 120))
    pieces = _unrolled_tint(p, T, 0.0, 2 * T)
    assert pieces == [(60.0, 120.0), (T + 60.0, T + 120.0)]


def test_unrolled_tint_clips_to_window():
    p = policy(1, tint=TimeInterval(60, 120))
    assert _unrolled_tint(p, T, 90.0, 100.0) == [(90.0, 100.0)]


def test_unrolled_tint_timeset():
    p = policy(1, tint=TimeSet([TimeInterval(0, 10), TimeInterval(50, 60)]))
    pieces = _unrolled_tint(p, T, 0.0, 100.0)
    assert pieces == [(0.0, 10.0), (50.0, 60.0)]


def test_merge_fuses_overlaps():
    assert _merge([(5.0, 8.0), (0.0, 6.0), (10.0, 11.0)]) == [
        (0.0, 8.0),
        (10.0, 11.0),
    ]


# ----------------------------------------------------------------------
# Monitor on a hand-built scenario
# ----------------------------------------------------------------------


@pytest.fixture
def crossing_world():
    """Issuer 0; friend 1 crosses the window; friend 2 sits inside but has
    a time-limited policy; user 3 crosses but is not a friend."""
    store = PolicyStore(time_domain=T)
    store.add_policy(policy(1), [0])
    store.add_policy(policy(2, tint=TimeInterval(0, 50)), [0])
    states = {
        0: mover(0, 500, 500),
        1: mover(1, 0, 500, vx=2.0),  # reaches x=400 at t=200, x=600 at t=300
        2: mover(2, 450, 450),
        3: mover(3, 0, 450, vx=2.0),
    }
    report = assign_sequence_values(sorted(states), store, 1000.0**2)
    store.set_sequence_values(report.sequence_values)
    tree = build_tree(states, store)
    return states, store, tree


WINDOW = Rect(400, 600, 400, 600)


def test_monitor_tracks_only_friends(crossing_world):
    states, _, tree = crossing_world
    # Cold buffer so the seeding scan's I/O is observable.
    tree.btree.pool.flush()
    tree.btree.pool.clear()
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    assert monitor.tracked_count == 2  # users 1 and 2; 3 is not a friend
    assert monitor.seed_io > 0


def test_monitor_initial_result(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    # At t=0: friend 1 at x=0 (outside); friend 2 inside and in tint.
    assert monitor.result_at(0.0) == {2}


def test_monitor_result_evolves(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    # t=100: friend 2's tint [0,50) expired; friend 1 at x=200, outside.
    assert monitor.result_at(100.0) == set()
    # t=250: friend 1 at x=500, inside window and always-visible.
    assert monitor.result_at(250.0) == {1}
    # t=350: friend 1 at x=700, left the window.
    assert monitor.result_at(350.0) == set()


def test_monitor_events_match_transitions(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    events = monitor.events_between(0.0, 400.0)
    # Friend 2 leaves at t=50 (tint end); friend 1 enters at 200, leaves at 300.
    assert events == [
        MembershipEvent(time=50.0, uid=2, enters=False),
        MembershipEvent(time=200.0, uid=1, enters=True),
        MembershipEvent(time=300.0, uid=1, enters=False),
    ]


def test_monitor_refresh_changes_prediction(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    # Friend 1 stops dead at (100, 500) at t=100: never enters.
    assert monitor.refresh(mover(1, 100, 500, vx=0.0, t=100.0))
    assert monitor.result_at(250.0) == set()
    assert monitor.events_between(100.0, 400.0) == []


def test_monitor_ignores_non_friend_updates(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    assert not monitor.refresh(mover(3, 500, 500))
    assert monitor.result_at(0.0) == {2}


def test_monitor_forget(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    assert monitor.forget(2)
    assert not monitor.forget(2)
    assert monitor.result_at(0.0) == set()


def test_monitor_rejects_bad_horizon(crossing_world):
    _, _, tree = crossing_world
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    with pytest.raises(ValueError):
        monitor.events_between(10.0, 5.0)


def test_tint_reentry_across_cycles():
    """A static friend with a morning-only policy re-enters every day."""
    store = PolicyStore(time_domain=T)
    store.add_policy(policy(1, tint=TimeInterval(60, 120)), [0])
    states = {0: mover(0, 500, 500), 1: mover(1, 450, 450)}
    report = assign_sequence_values([0, 1], store, 1000.0**2)
    store.set_sequence_values(report.sequence_values)
    tree = build_tree(states, store)
    monitor = ContinuousPRQ(tree, 0, WINDOW, t_start=0.0)
    events = monitor.events_between(0.0, 2 * T)
    times = [(e.time, e.enters) for e in events]
    assert times == [
        (60.0, True),
        (120.0, False),
        (T + 60.0, True),
        (T + 120.0, False),
    ]


# ----------------------------------------------------------------------
# Equivalence against brute force on a random population
# ----------------------------------------------------------------------


def test_monitor_matches_brute_force_over_time():
    world = build_world(n_users=120, n_policies=8, seed=21)
    states, store, tree = world.states, world.store, world.peb
    rng = random.Random(33)
    issuers = rng.sample(sorted(states), 5)
    window = Rect(300, 700, 300, 700)
    for q_uid in issuers:
        monitor = ContinuousPRQ(tree, q_uid, window, t_start=0.0)
        for t in (0.0, 15.0, 40.0, 90.0, 200.0):
            expected = brute_force_prq(states, store, q_uid, window, t)
            assert monitor.result_at(t) == expected, (q_uid, t)


def test_result_constant_between_events():
    world = build_world(n_users=80, n_policies=8, seed=5)
    states, store, tree = world.states, world.store, world.peb
    q_uid = sorted(states)[0]
    window = Rect(200, 800, 200, 800)
    monitor = ContinuousPRQ(tree, q_uid, window, t_start=0.0)
    horizon = (0.0, 300.0)
    events = monitor.events_between(*horizon)
    boundaries = [horizon[0]] + [e.time for e in events] + [horizon[1]]
    for lo, hi in zip(boundaries, boundaries[1:]):
        if hi - lo < 1e-6:
            continue
        # Sample strictly inside the open segment: membership must agree.
        probes = [lo + (hi - lo) * f for f in (0.25, 0.5, 0.75)]
        reference = monitor.result_at(probes[0])
        for t in probes[1:]:
            assert monitor.result_at(t) == reference, (lo, hi, t)


def test_events_sorted_and_well_formed():
    world = build_world(n_users=60, n_policies=8, seed=8)
    states, tree = world.states, world.peb
    q_uid = sorted(states)[1]
    monitor = ContinuousPRQ(tree, q_uid, Rect(100, 900, 100, 900), t_start=0.0)
    events = monitor.events_between(0.0, 500.0)
    times = [e.time for e in events]
    assert times == sorted(times)
    # Per uid, enters/leaves must alternate.
    last_kind: dict[int, bool] = {}
    for event in events:
        if event.uid in last_kind:
            assert event.enters != last_kind[event.uid], event
        last_kind[event.uid] = event.enters


# ----------------------------------------------------------------------
# Property: monitor stays exact under a random update stream
# ----------------------------------------------------------------------


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(min_value=0, max_value=2**31))
def test_monitor_exact_under_update_stream(seed):
    """Interleaved updates + probes: the monitor must always agree with a
    brute-force evaluation over the *current* server state."""
    rng = random.Random(seed)
    world = build_world(n_users=60, n_policies=8, seed=seed % 1000)
    states, store, tree = world.states, world.store, world.peb
    q_uid = rng.choice(sorted(states))
    window = Rect(
        *(sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))),
        *(sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))),
    )
    monitor = ContinuousPRQ(tree, q_uid, window, t_start=0.0)

    now = 0.0
    for _ in range(25):
        now += rng.uniform(0.5, 10.0)
        if rng.random() < 0.6:
            uid = rng.choice(sorted(states))
            old = states[uid]
            x, y = old.position_at(now)
            moved = old.moved_to(
                x % 1000, y % 1000, rng.uniform(-3, 3), rng.uniform(-3, 3), now
            )
            states[uid] = moved
            tree.update(moved)
            monitor.refresh(moved)
        else:
            expected = brute_force_prq(states, store, q_uid, window, now)
            assert monitor.result_at(now) == expected, (q_uid, now)

    # Final probe regardless of the action mix.
    expected = brute_force_prq(states, store, q_uid, window, now)
    assert monitor.result_at(now) == expected
