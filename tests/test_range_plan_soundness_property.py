"""Property pin: a range plan plans every user Definition 2 admits.

A range plan holds one ``(live key, uid)`` pair per friend, and only
for a friend whose cell, at its partition's label, lies inside the
window enlarged for that partition (Figure 2 applied per friend,
``QueryPlanner.plan_range``).  Stated against the brute-force oracle
(``repro.bench.oracle.brute_force_prq``), not against that rule: after
a random history, every user who satisfies Definition 2 in the window
at ``t_query`` is planned at its live key, and ``prq`` answers the
oracle, on one tree and on four shards.

The histories lean on what the rule must survive:

* updates that report from outside the space, or drift out of it
  before ``t_query`` (``Grid.cell_of`` clamps a position outside the
  space into an edge cell);
* a partition rollover, after which both live partitions hold users;
* windows that overhang the space or lie wholly outside it;
* ``t_query`` anywhere from the last report to one phase past it.

Every user reports at least once per ``max_update_interval`` before
every ``t_query`` drawn here (every user reports at 0, and no query is
later than 120), so no entry has expired and the oracle runs over every
user's latest state.  Policies are wide (half the users see each owner,
all day, one region in three reaching past the space), so most windows
hold someone to find.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_prq
from repro.core.peb_tree import PEBTree
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.engine.plan import QueryPlanner
from repro.motion import MovingObject, TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval
from repro.shard import ShardedPEBTree
from repro.spatial import Grid
from repro.spatial.geometry import Rect
from repro.storage import BufferPool, SimulatedDisk

SIDE = 1000.0
T = 1440.0
N_USERS = 80
GRID = Grid(SIDE, 10)
PARTITIONER = TimePartitioner(120.0, 2)
PHASE = PARTITIONER.phase
#: Reports land up to this far outside the space, at up to this speed.
OVERHANG = 150.0
SPEED = 4.0
#: Regions reaching past the space (so a user outside it can qualify),
#: the space, and half of it.
REGIONS = [
    Rect(-3 * OVERHANG, SIDE + 3 * OVERHANG, -3 * OVERHANG, SIDE + 3 * OVERHANG),
    Rect(0.0, SIDE, 0.0, SIDE),
    Rect(0.0, SIDE / 2, 0.0, SIDE),
]


def build_store():
    """Each user lets half the others see it, all day, in one region."""
    rng = random.Random(46)
    store = PolicyStore(time_domain=T)
    for owner in range(N_USERS):
        viewers = rng.sample([uid for uid in range(N_USERS) if uid != owner], 40)
        policy = LocationPrivacyPolicy(
            owner=owner,
            role="friend",
            locr=REGIONS[owner % len(REGIONS)],
            tint=TimeInterval(0.0, T),
        )
        store.add_policy(policy, viewers)
    sequence = assign_sequence_values(list(range(N_USERS)), store, SIDE * SIDE)
    store.set_sequence_values(sequence.sequence_values)
    return store


STORE = build_store()

def start_states():
    """Every user inside the space at 0, heading anywhere."""
    rng = random.Random(47)
    return {
        uid: MovingObject(
            uid,
            rng.uniform(0.0, SIDE),
            rng.uniform(0.0, SIDE),
            rng.uniform(-SPEED, SPEED),
            rng.uniform(-SPEED, SPEED),
            0.0,
        )
        for uid in range(N_USERS)
    }


START = start_states()


def deploy(n_shards):
    if n_shards is None:
        tree = PEBTree(
            BufferPool(SimulatedDisk(page_size=1024), capacity=64),
            GRID,
            PARTITIONER,
            STORE,
        )
    else:
        tree = ShardedPEBTree.build(
            n_shards,
            GRID,
            PARTITIONER,
            STORE,
            uids=range(N_USERS),
            page_size=1024,
            buffer_pages=64,
        )
    for uid in range(N_USERS):
        tree.insert(START[uid])
    return tree


def reports(now, count, seed):
    """``count`` users reporting at ``now``, a third of them from outside
    the space, heading anywhere."""
    rng = random.Random(seed)

    def coordinate():
        side = rng.randrange(3)
        if side == 0:
            return rng.uniform(-OVERHANG, 0.0)
        if side == 1:
            return rng.uniform(SIDE, SIDE + OVERHANG)
        return rng.uniform(0.0, SIDE)

    return [
        MovingObject(
            uid,
            coordinate(),
            coordinate(),
            rng.uniform(-SPEED, SPEED),
            rng.uniform(-SPEED, SPEED),
            now,
        )
        for uid in rng.sample(range(N_USERS), count)
    ]


STEP = st.one_of(
    st.tuples(st.just("update"), st.integers(1, N_USERS), st.integers(0, 2**16)),
    st.tuples(st.just("rollover")),
)
QUERY = st.tuples(
    st.integers(0, N_USERS - 1), st.integers(0, 2**16), st.floats(0.0, 1.0)
)


def window_of(seed):
    """Per axis: inside the space, over its low edge, at or past its high
    edge (out to ``OVERHANG``), or zero-wide on an edge."""
    rng = random.Random(seed)
    bounds = []
    for _ in "xy":
        kind = rng.randrange(4)
        if kind == 0:
            lo, extent = rng.uniform(0.0, 800.0), rng.uniform(50.0, 400.0)
        elif kind == 1:
            lo, extent = rng.uniform(-OVERHANG, 0.0), rng.uniform(50.0, 400.0)
        elif kind == 2:
            lo, extent = rng.uniform(SIDE - 200.0, SIDE + OVERHANG), rng.uniform(0.0, 300.0)
        else:
            lo, extent = rng.choice((0.0, SIDE)), 0.0
        bounds += [lo, lo + extent]
    return Rect(*bounds)


def assert_one_key_per_friend_in_key_order(plan):
    """At most one key per friend, in key order: what lets the verify
    pipeline verify a key's rows as soon as its stratum lands
    (``VerifyTimeline.book_verified``)."""
    friends = [uid for _, uid in plan.bands]
    assert len(set(friends)) == len(friends)
    assert plan.bands == sorted(plan.bands)


@pytest.mark.parametrize("n_shards", (None, 4))
@settings(max_examples=50, deadline=None)
@given(
    steps=st.lists(STEP, min_size=1, max_size=8),
    queries=st.lists(QUERY, min_size=1, max_size=6),
)
def test_every_user_definition_2_admits_has_a_point_band(n_shards, steps, queries):
    tree = deploy(n_shards)
    states = dict(START)
    now = 0.0
    for step in steps:
        if step[0] == "rollover":
            now = PHASE  # one rollover: the next reports land one partition on
            continue
        batch = reports(now, step[1], step[2])
        tree.update_batch(batch)
        states.update((obj.uid, obj) for obj in batch)

    planner = QueryPlanner(tree)
    for q_uid, seed, late in queries:
        window = window_of(seed)
        t_query = now + late * PHASE
        plan = planner.plan_range(q_uid, window, t_query)
        banded = {uid for _, uid in plan.bands}
        expected = brute_force_prq(states, STORE, q_uid, window, t_query)
        assert expected <= banded, (
            f"users {sorted(expected - banded)} satisfy Definition 2 at "
            f"t={t_query} in {window} but are not planned"
        )
        for key, uid in plan.bands:
            assert key == tree.live_key(uid)
        assert_one_key_per_friend_in_key_order(plan)
        assert prq(tree, q_uid, window, t_query).uids == expected


@pytest.mark.parametrize("n_shards", (None, 4))
def test_a_window_with_infinite_bounds_is_the_whole_space(n_shards):
    """An infinite bound reaches across the whole space: over the whole
    plane every kept friend is planned, and over a half plane the answer
    is the oracle's."""
    tree = deploy(n_shards)
    planner = QueryPlanner(tree)
    plane = Rect(-math.inf, math.inf, -math.inf, math.inf)
    half = Rect(-math.inf, math.inf, -math.inf, 0.5 * SIDE)
    for q_uid in range(0, N_USERS, 7):
        plan = planner.plan_range(q_uid, plane, 30.0)
        assert {uid for _, uid in plan.bands} == set(plan.visible)
        for window in (plane, half):
            expected = brute_force_prq(START, STORE, q_uid, window, 30.0)
            assert prq(tree, q_uid, window, 30.0).uids == expected
