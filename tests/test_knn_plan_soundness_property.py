"""Property pin: a PkNN plan bands every user that can be among the k nearest.

A served PkNN plans, in one round, only the friends whose distance lower
bound is at most ``τ`` (``QueryPlanner.plan_knn_probe``): a friend's
live key names its cell at its partition's label, that cell grown by
the partition's enlargement (Figure 2) and clipped to the friend's
visible regions bounds where it can qualify, and ``τ`` is the k-th
smallest distance upper bound among the friends whose grown cell lies
inside one region.  Stated against the brute-force oracle
(``repro.bench.oracle.brute_force_pknn``), not against that rule: after
a random history, every user of the oracle's k nearest is planned at
its live key, and ``pknn`` answers the oracle's ``(round(d, 9), uid)``
list, on one tree and on four shards; so does the Section 5.4 walk
(``pknn_walk``), which ranks users at one distance by uid as the oracle
does.  Every plan holds at most one ``(live key, uid)`` pair per
friend, in key order.

The worlds lean on what the rule must survive:

* reports from outside the space, and drifts out of it before
  ``t_query`` (``Grid.cell_of`` clamps a position outside the space into
  an edge cell, so an edge cell is unbounded outward);
* users standing still on cell edges, where ``cell_of`` rounds, in the
  space and outside it;
* zero-area regions (a line on a cell edge, a point), a small box, half
  the space, the space, and a region reaching past the space, which
  every third user adds toward some viewers, so a map entry holds
  several regions;
* twins: users reporting identical states, so distances tie, and ``k``
  drawn at the first tie of the oracle's ranking when there is one;
* ``k`` from 1 to above the visible-friend count;
* query points inside the space, on a cell edge, just outside it and
  far outside it;
* a partition rollover, after which both live partitions hold users,
  and ``t_query`` anywhere from the last report to one phase past it.

Every user reports at 0, and no query is later than 120 (one
``max_update_interval``), so no entry has expired and the oracle runs
over every user's latest state.

Scratch mutants of ``plan_knn_probe`` each fail it: the enlargement
dropped (the cell grown by nothing), edge cells bounded like inner ones,
and ``τ`` taken over every friend whose grown cell meets a region
instead of the sure ones.
"""

import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn
from repro.core.peb_tree import PEBTree
from repro.core.pknn import plan_pknn, pknn, pknn_walk
from repro.core.sequencing import assign_sequence_values
from repro.engine.plan import QueryPlanner
from repro.motion import MovingObject, TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.timeset import TimeInterval
from repro.shard import ShardedPEBTree
from repro.spatial import Grid
from repro.spatial.geometry import Rect
from repro.storage import BufferPool, SimulatedDisk

from tests.test_range_plan_soundness_property import (
    assert_one_key_per_friend_in_key_order,
)

SIDE = 1000.0
T = 1440.0
N_USERS = 80
GRID = Grid(SIDE, 10)
CELL = GRID.cell_size
PARTITIONER = TimePartitioner(120.0, 2)
PHASE = PARTITIONER.phase
#: Reports land up to this far outside the space, at up to this speed.
OVERHANG = 150.0
SPEED = 4.0
#: A coordinate on a cell edge (512 cells in), where the zero-area
#: regions lie.
EDGE = 512 * CELL
#: Cell edges a report standing still may lie on outside the space.
EDGES_OUT = int(OVERHANG / CELL)
REGIONS = [
    Rect(-3 * OVERHANG, SIDE + 3 * OVERHANG, -3 * OVERHANG, SIDE + 3 * OVERHANG),
    Rect(0.0, SIDE, 0.0, SIDE),
    Rect(0.0, SIDE / 2, 0.0, SIDE),
    Rect(300.0, 420.0, 550.0, 700.0),
    Rect(EDGE, EDGE, 0.0, SIDE),  # zero width, on a cell edge
    Rect(EDGE, EDGE, EDGE, EDGE),  # a point
]
#: ``twin -> original``: the twin reports whatever its original reports
#: and holds the same policies, so the two tie wherever they stand.
TWINS = {N_USERS - 1: 1, N_USERS - 2: 2, N_USERS - 3: 6, N_USERS - 4: 7}
REPORTERS = [uid for uid in range(N_USERS) if uid not in TWINS]
#: 100 examples by default, a fifth of the loaded profile's under
#: ``--hypothesis-profile=deep`` (200).
EXAMPLES = max(100, settings.default.max_examples // 5)


def build_store():
    """Each user lets half the others see it, all day, in one region;
    every third user also lets a quarter of them see it past the space.
    A twin copies its original's policies."""
    rng = random.Random(47)
    calls = {}
    for owner in REPORTERS:
        viewers = rng.sample([uid for uid in range(N_USERS) if uid != owner], 40)
        calls[owner] = [("friend", REGIONS[owner % len(REGIONS)], viewers)]
        if owner % 3 == 0:
            calls[owner].append(("close", REGIONS[0], viewers[:20]))
    for twin, original in TWINS.items():
        calls[twin] = [
            (role, region, [original if uid == twin else uid for uid in viewers])
            for role, region, viewers in calls[original]
        ]
    store = MultiPolicyStore(time_domain=T)
    for owner in range(N_USERS):
        for role, region, viewers in calls[owner]:
            policy = LocationPrivacyPolicy(
                owner=owner, role=role, locr=region, tint=TimeInterval(0.0, T)
            )
            store.add_policy(policy, viewers)
    sequence = assign_sequence_values(list(range(N_USERS)), store, SIDE * SIDE)
    store.set_sequence_values(sequence.sequence_values)
    return store


STORE = build_store()


def with_twins(states):
    """``states`` plus an identical state for the twin of each original."""
    out = list(states)
    for twin, original in TWINS.items():
        for obj in states:
            if obj.uid == original:
                out.append(MovingObject(twin, obj.x, obj.y, obj.vx, obj.vy, obj.t_update))
    return out


def start_states():
    """Every user inside the space at 0: one in four standing still on
    a cell edge or a zero-area region, the rest heading anywhere."""
    rng = random.Random(48)
    states = []
    for uid in REPORTERS:
        if uid % 4 == 0:
            x = EDGE if uid % 8 == 0 else rng.randrange(1025) * CELL
            states.append(MovingObject(uid, x, rng.randrange(1025) * CELL, 0.0, 0.0, 0.0))
        else:
            states.append(
                MovingObject(
                    uid,
                    rng.uniform(0.0, SIDE),
                    rng.uniform(0.0, SIDE),
                    rng.uniform(-SPEED, SPEED),
                    rng.uniform(-SPEED, SPEED),
                    0.0,
                )
            )
    return {obj.uid: obj for obj in with_twins(states)}


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
    """``count`` users (and their twins) reporting at ``now``: one in
    four standing still on a cell edge, in or up to ``OVERHANG`` outside
    the space, the rest heading anywhere from coordinates a third of
    which lie outside it."""
    rng = random.Random(seed)

    def coordinate():
        side = rng.randrange(3)
        if side == 0:
            return rng.uniform(-OVERHANG, 0.0)
        if side == 1:
            return rng.uniform(SIDE, SIDE + OVERHANG)
        return rng.uniform(0.0, SIDE)

    states = []
    for uid in rng.sample(REPORTERS, count):
        if rng.random() < 0.25:
            x, y = (rng.randrange(-EDGES_OUT, 1025 + EDGES_OUT) * CELL for _ in "xy")
            states.append(MovingObject(uid, x, y, 0.0, 0.0, now))
        else:
            states.append(
                MovingObject(
                    uid,
                    coordinate(),
                    coordinate(),
                    rng.uniform(-SPEED, SPEED),
                    rng.uniform(-SPEED, SPEED),
                    now,
                )
            )
    return with_twins(states)


def query_point(where, fx, fy):
    if where == "inside":
        return fx * SIDE, fy * SIDE
    if where == "edge":
        return round(fx * 1024) * CELL, round(fy * 1024) * CELL
    if where == "near":  # up to OVERHANG outside one side of the space
        side, out = divmod(fx * 4, 1.0)
        along, out = fy * SIDE, out * OVERHANG
        return [(-out, along), (SIDE + out, along), (along, -out), (along, SIDE + out)][
            min(int(side), 3)
        ]
    return (-1e6 if fx < 0.5 else SIDE + 1e6), (-1e6 if fy < 0.5 else SIDE + 1e6)


def rounded(pairs):
    return [(round(d, 9), uid) for d, uid in pairs]


def ranked(result):
    return [(round(d, 9), obj.uid) for d, obj in result.neighbors]


STEP = st.one_of(
    st.tuples(st.just("update"), st.integers(1, len(REPORTERS)), st.integers(0, 2**16)),
    st.tuples(st.just("rollover")),
)
QUERY = st.tuples(
    st.integers(0, N_USERS - 1),
    st.sampled_from(("inside", "inside", "edge", "near", "far")),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((1, 3, 5, "tie", "tie", "above")),
    st.floats(0.0, 1.0),
)


#: Draws on which the three scratch mutants of the module docstring
#: failed (shrunk), so each fails on every run and not only on the draws
#: a seed reaches: the enlargement dropped, edge cells bounded, ``τ``
#: over friends that are not sure.
MUTANT_DRAWS = [
    dict(
        steps=[("update", 1, 0)],
        queries=[(0, "inside", 0.0, 0.0, 1, 0.0), (0, "inside", 0.0, 0.5, 1, 0.0)],
    ),
    dict(
        steps=[("update", 29, 1)],
        queries=[(0, "inside", 0.0, 0.0, 1, 0.0), (1, "inside", 1.0, 1.0, 1, 1.0)],
    ),
    dict(
        steps=[("rollover",)],
        queries=[(0, "inside", 0.0, 0.0, 1, 0.0), (0, "inside", 0.5, 1.0, "tie", 0.5)],
    ),
]


@pytest.mark.parametrize("n_shards", (None, 4))
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
@given(
    steps=st.lists(STEP, min_size=1, max_size=6),
    queries=st.lists(QUERY, min_size=2, max_size=8),
)
@example(**MUTANT_DRAWS[0])
@example(**MUTANT_DRAWS[1])
@example(**MUTANT_DRAWS[2])
def test_every_user_of_the_k_nearest_has_a_point_band(n_shards, steps, queries):
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
    for q_uid, where, fx, fy, k, late in queries:
        qx, qy = query_point(where, fx, fy)
        t_query = now + late * PHASE
        if k == "above":
            k = len(STORE.visibility_map(q_uid, t_query)) + 3
        elif k == "tie":
            ranking = brute_force_pknn(states, STORE, q_uid, qx, qy, N_USERS, t_query)
            ties = [
                place
                for place in range(1, len(ranking))
                if ranking[place - 1][0] == ranking[place][0]
            ]
            k = ties[0] if ties else 1
        expected = brute_force_pknn(states, STORE, q_uid, qx, qy, k, t_query)
        plan = plan_pknn(planner, q_uid, qx, qy, k, t_query)
        banded = {uid for _, uid in plan.bands}
        missing = {uid for _, uid in expected} - banded
        assert not missing, (
            f"users {sorted(missing)} are among the {k} nearest of "
            f"({qx}, {qy}) at t={t_query} but are not planned"
        )
        for key, uid in plan.bands:
            assert key == tree.live_key(uid)
        assert_one_key_per_friend_in_key_order(plan)
        expected = rounded(expected)
        assert ranked(pknn(tree, q_uid, qx, qy, k, t_query)) == expected
        walked = ranked(pknn_walk(tree, q_uid, qx, qy, k, t_query))
        assert walked == expected
