"""Policy-aware planning against the planner that scans every friend.

Under Definition 2 a friend is in an answer only if one of its policies
toward the issuer holds at ``t_query`` and it stands inside that
policy's ``locr``.  The shipped planner therefore plans a band only for
a friend with a time-admitting policy whose region meets the window,
and a PkNN — the served fetch and the Section 5.4 walk alike — reads
only a friend with a time-admitting policy.  The reference is a
test-local subclass whose ``range_friends`` and ``visible_friends``
hand back the unwindowed visibility map and the whole friend list — the
planner as it was before.  Against it, over random single- and
multi-policy stores on one tree and on 1 and 4 shards (its range plan
is the window-span plan of ``tests/reference_plan.py``, every kept
friend banded over the enlarged window's Z-span in every live
partition, so the reference stays unpruned in space as well):

* PRQ, ``pcount``, ``pdensity_grid``, ``at_least`` and PkNN answer
  identically (PkNN: neighbours and their distances, fetch and walk),
  and equal the brute-force oracle;
* ``candidates_examined`` is never higher, except the Section 5.4
  walk's: it reads only the kept friends' strata, but pruning shifts
  its Figure 9 schedule, so it can examine more (ROADMAP item 17);
* a range plan holds at most one point band per kept friend, at the
  live key the memo names, in a live partition, in key order, and every
  user in the answer has one; the PkNN fetch's point bands are some of
  the reference's bands of the friends it keeps, in the same order, and
  every user in the answer has one (the reference fetch bands every
  friend on the list, without the map or the distance bound);
* a friend is pruned exactly when it provably fails Definition 2: no
  policy admits it at the point of the window nearest its region.

The draws lean on the edges: time windows that wrap midnight or end at
``T``, ``t_query`` at 0, ``T``, ``k·T`` and just below ``T``, windows
that touch a region's edge, windows and regions of zero width, and
users standing on those edges.
"""

import contextlib
import importlib
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.aggregate import pcount, pdensity_grid
from repro.core.peb_tree import PEBTree
from repro.core.pknn import _MatrixSearch, pknn, pknn_walk
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.engine import QueryEngine
from repro.engine.plan import BandRequest, PlannedBand, QueryPlanner
from repro.motion import MovingObject, TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.shard import ShardedPEBTree
from repro.spatial import Grid
from repro.spatial.geometry import Rect
from repro.storage import BufferPool, SimulatedDisk
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.reference_plan import WindowSpanPlanner

SIDE = 1000.0
T = 1440.0
N_USERS = 40

REGIONS = [
    Rect(0.0, SIDE, 0.0, SIDE),
    Rect(0.0, 500.0, 0.0, SIDE),
    Rect(500.0, SIDE, 0.0, 500.0),
    Rect(620.0, 880.0, 620.0, 880.0),
    Rect(250.0, 250.0, 100.0, 900.0),  # zero width
    Rect(100.0, 400.0, 600.0, 600.0),  # zero height
]
WINDOWS = [
    Rect(500.0, 700.0, 200.0, 400.0),  # touches Rect(0, 500, ...) at x = 500
    Rect(880.0, SIDE, 0.0, SIDE),  # touches Rect(620, 880, ...) at x = 880
    Rect(250.0, 250.0, 0.0, SIDE),  # zero width, on the zero-width region
    Rect(0.0, SIDE, 600.0, 600.0),  # zero height, on the zero-height region
    Rect(0.0, 249.9, 0.0, 599.9),  # misses both degenerate regions
    Rect(300.0, 600.0, 300.0, 600.0),
    Rect(0.0, 600.0, 100.0, SIDE),
    Rect(250.0, SIDE, 0.0, 600.0),
    Rect(0.0, SIDE, 0.0, SIDE),
]
TINTS = [
    TimeInterval(0.0, T),
    TimeInterval(287.3, 600.0),
    TimeInterval(0.0, 1.0),  # holds at 0, T, k·T
    TimeInterval(T - 1.0, T),  # holds just below T, not at T
    TimeInterval(600.0, 600.0),  # zero duration: never holds
    TimeSet([TimeInterval(1111.1, T), TimeInterval(0.0, 333.3)]),  # wraps
    TimeSet([TimeInterval(1300.0, T), TimeInterval(0.0, 0.5)]),  # wraps
]
T_QUERIES = [0.0, T, 2 * T, 3 * T, T - 1e-6, math.nextafter(T, 0.0), 5.0, 600.0]
#: Coordinates users stand on exactly: the regions' and windows' edges.
EDGES = [0.0, 100.0, 250.0, 500.0, 600.0, 880.0, SIDE]

POLICY_CALLS = st.lists(
    st.tuples(
        st.integers(0, N_USERS - 1),
        st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=12),
        st.sampled_from(REGIONS),
        st.sampled_from(TINTS),
    ),
    min_size=30,
    max_size=90,
)


# ----------------------------------------------------------------------
# The reference: every friend gets a band and a matrix row
# ----------------------------------------------------------------------


class UnprunedPlanner(WindowSpanPlanner):
    def range_friends(self, q_uid, window, t_query):
        return self.tree.store.visibility_map(q_uid, t_query), self.friends(q_uid)

    def visible_friends(self, q_uid, visible):
        return self.friends(q_uid)

    def plan_knn_probe(self, q_uid, visible, qx, qy, k, t_query):
        """One point band per friend on the list whose live key lies in
        a live partition, in key order: neither the map nor the
        distance bound prunes anyone."""
        live = {context.tid for context in self.contexts(t_query)}
        bands = []
        for _, uid in self.visible_friends(q_uid, visible):
            key = self.tree.live_key(uid)
            if key is None:
                continue
            tid, sv_q, zv = self.tree.codec.decompose(key)
            if tid in live:
                bands.append(PlannedBand(uid, BandRequest(tid, sv_q, sv_q, zv, zv)))
        return sorted(bands, key=lambda planned: planned.band)


class UnprunedEngine(QueryEngine):
    def __init__(self, tree):
        super().__init__(tree)
        self.planner = UnprunedPlanner(tree)


@contextlib.contextmanager
def unpruned():
    """The public adapters, run on the reference planner."""
    # By module: ``repro.core`` re-exports functions named like them.
    module = importlib.import_module
    with mock.patch.object(
        module("repro.core.prq"), "QueryEngine", UnprunedEngine
    ), mock.patch.object(
        module("repro.core.aggregate"), "QueryEngine", UnprunedEngine
    ), mock.patch.object(
        module("repro.core.pknn"), "QueryEngine", UnprunedEngine
    ), mock.patch.object(
        module("repro.core.pknn"), "QueryPlanner", UnprunedPlanner
    ):
        yield


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------


def build_store(store_type, calls):
    store = store_type(time_domain=T)
    for owner, members, locr, tint in calls:
        policy = LocationPrivacyPolicy(owner=owner, role="friend", locr=locr, tint=tint)
        try:
            store.add_policy(policy, members)
        except ValueError:
            pass  # a self-policy or a duplicate pair: rejected whole
    sequence = assign_sequence_values(list(range(N_USERS)), store, SIDE * SIDE)
    store.set_sequence_values(sequence.sequence_values)
    return store


def build_states(seed, t_query):
    """Users live at ``t_query``; about half stand on an edge in x or y
    (never both, so no two users tie in distance from a query point)."""
    rng = random.Random(seed)
    states = {}
    for uid in range(N_USERS):
        x, y = rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE)
        vx = vy = 0.0
        roll = rng.random()
        if roll < 0.25:
            x = rng.choice(EDGES)
        elif roll < 0.5:
            y = rng.choice(EDGES)
        else:
            vx, vy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        t_update = max(0.0, t_query - rng.uniform(0.0, 59.0))
        x, y = x - vx * (t_query - t_update), y - vy * (t_query - t_update)
        states[uid] = MovingObject(uid, x, y, vx, vy, t_update)
    return states


def build_tree(store, states, n_shards):
    """The single tree (``n_shards is None``) or an N-shard deployment."""
    grid = Grid(SIDE, 10)
    partitioner = TimePartitioner(120.0, 2)
    if n_shards is None:
        tree = PEBTree(
            BufferPool(SimulatedDisk(page_size=1024), capacity=64),
            grid,
            partitioner,
            store,
        )
    else:
        tree = ShardedPEBTree.build(
            n_shards,
            grid,
            partitioner,
            store,
            uids=sorted(states),
            page_size=1024,
            buffer_pages=64,
        )
    for uid in sorted(states):
        tree.insert(states[uid])
    return tree


def engines(tree):
    return QueryEngine(tree), UnprunedEngine(tree)


# ----------------------------------------------------------------------
# Definition 2, independently of the planner
# ----------------------------------------------------------------------


def clamp(value, lo, hi):
    return min(max(value, lo), hi)


def can_qualify(store, owner, viewer, t_query, window=None):
    """True when some policy of ``owner`` toward ``viewer`` admits it at
    one point of ``window`` (anywhere, without a window).

    The witness is a corner of the policy's region clamped into the
    window: it lies in the region exactly when region and window meet,
    so if no policy admits its witness, no position in the window can
    satisfy Definition 2 — the friend provably fails it.
    """
    for policy in store.policies_for(owner, viewer):
        x, y = policy.locr.x_lo, policy.locr.y_lo
        if window is not None:
            x = clamp(x, window.x_lo, window.x_hi)
            y = clamp(y, window.y_lo, window.y_hi)
        if policy.admits(x, y, t_query, store.time_domain):
            return True
    return False


def knn_answer(result):
    return [(d, obj.uid) for d, obj in result.neighbors]


# ----------------------------------------------------------------------
# Recorded draws
# ----------------------------------------------------------------------


def encoded_calls(encoded):
    """Policy calls from ``(owner, members, region index, tint index)``."""
    return [(owner, list(members), REGIONS[r], TINTS[t]) for owner, members, r, t in encoded]


#: ROADMAP item 17's draws: the recorded ``seed``, ``t_query`` and query
#: (issuer, window, ``k``), with policy calls found (and minimised) for
#: them on a ``MultiPolicyStore``, under which the matrix walk, while it
#: served PkNN, broke a pruned <= unpruned bound: the 1-shard and the
#: 4-shard batch requested more bands, and the third walk examined more
#: candidates (6 against 5, on either store type).
ITEM_17_DRAWS = [
    dict(
        calls=encoded_calls(
            [(39, (34, 27), 1, 0), (34, (17,), 3, 3), (27, (17,), 0, 2),
             (23, (17,), 4, 2), (39, (22, 3), 2, 0), (21, (17,), 0, 5)]
        ),
        seed=8656, t_query=0.0, queries=[(17, WINDOWS[0], 1, None)],
    ),
    dict(
        calls=encoded_calls(
            [(3, (25,), 2, 3), (11, (25,), 4, 2), (29, (25,), 2, 4),
             (17, (3, 29, 2), 0, 3), (9, (25,), 2, 0), (22, (25,), 0, 6),
             (22, (29, 35), 2, 3)]
        ),
        seed=3389, t_query=0.0, queries=[(25, WINDOWS[0], 1, None)],
    ),
    dict(
        calls=encoded_calls(
            [(11, (7, 4, 20, 35, 21, 24), 3, 6), (29, (11, 17), 1, 6),
             (21, (15,), 0, 5), (20, (17, 11), 0, 2), (15, (37,), 1, 2),
             (15, (33, 1, 39, 8, 6), 0, 0), (4, (17, 15), 1, 2),
             (1, (17, 8, 32, 29, 12), 2, 1), (19, (33, 34, 8, 17, 0, 3), 1, 2),
             (33, (17,), 4, 5)]
        ),
        seed=8656, t_query=0.0, queries=[(17, WINDOWS[0], 1, None)],
    ),
]


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", (None, 1, 4))
@pytest.mark.parametrize("store_type", (PolicyStore, MultiPolicyStore))
@settings(max_examples=25, deadline=None)
@given(
    calls=POLICY_CALLS,
    seed=st.integers(0, 2**16),
    t_query=st.sampled_from(T_QUERIES),
    queries=st.lists(
        st.tuples(
            st.integers(0, N_USERS - 1),
            st.sampled_from(WINDOWS),
            st.sampled_from((1, 3, 8, 50)),
            st.sampled_from((None, 1, 2)),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example(**ITEM_17_DRAWS[2])
def test_pruned_planner_matches_the_unpruned_reference(
    n_shards, store_type, calls, seed, t_query, queries
):
    store = build_store(store_type, calls)
    states = build_states(seed, t_query)
    tree = build_tree(store, states, n_shards)
    rng = random.Random(seed + 1)
    pruned_planner, full_planner = QueryPlanner(tree), UnprunedPlanner(tree)

    specs = []
    for q_uid, window, k, at_least in queries:
        # -- the plan: exactly the friends who can qualify, bands ⊆ --
        plan = pruned_planner.plan_range(q_uid, window, t_query)
        full = full_planner.plan_range(q_uid, window, t_query)
        # The reference really plans unpruned: one band per friend per
        # live context, from the map without the window.
        assert full.friends == store.friend_list(q_uid)
        assert len(full.bands) == len(full.friends) * len(full.contexts)
        assert full.visible == store.visibility_map(q_uid, t_query)
        kept = {uid for _, uid in plan.friends}
        assert plan.friends == [
            friend
            for friend in full.friends
            if can_qualify(store, friend[1], q_uid, t_query, window)
        ]
        live = {context.tid for context in plan.contexts}
        banded = [b.friend_uid for b in plan.bands]
        assert set(banded) <= kept and len(set(banded)) == len(banded)
        for planned in plan.bands:
            tid, sv_q, zv = tree.codec.decompose(tree.live_key(planned.friend_uid))
            assert planned.band == (tid, sv_q, sv_q, zv, zv) and tid in live
        assert [b.band for b in plan.bands] == sorted(b.band for b in plan.bands)

        # -- range-shaped answers: identical, never more candidates --
        got = prq(tree, q_uid, window, t_query)
        with unpruned():
            expected = prq(tree, q_uid, window, t_query)
        assert got.uids == expected.uids == brute_force_prq(
            states, store, q_uid, window, t_query
        )
        assert got.uids <= set(banded) <= kept
        assert got.candidates_examined <= expected.candidates_examined

        got = pcount(tree, q_uid, window, t_query, at_least)
        with unpruned():
            expected = pcount(tree, q_uid, window, t_query, at_least)
        assert (got.count, got.terminated_early) == (
            expected.count,
            expected.terminated_early,
        )
        assert got.candidates_examined <= expected.candidates_examined

        if window.width > 0 and window.height > 0:
            got = pdensity_grid(tree, q_uid, window, t_query, rows=3, columns=2)
            with unpruned():
                expected = pdensity_grid(tree, q_uid, window, t_query, rows=3, columns=2)
            assert (got.cells, got.total) == (expected.cells, expected.total)
            assert got.candidates_examined <= expected.candidates_examined

        # -- PkNN: the fetch bands only, and the walk's rows are, the
        # friends with a time-admitting policy; the fetch bands every
        # user of the answer --
        qx, qy = rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE)
        visible = store.visibility_map(q_uid, t_query)
        bands = pruned_planner.plan_knn_probe(q_uid, visible, qx, qy, k, t_query)
        full_bands = full_planner.plan_knn_probe(q_uid, visible, qx, qy, k, t_query)
        assert len(full_bands) == len(store.friend_list(q_uid))
        admissible = [
            b for b in full_bands if can_qualify(store, b.friend_uid, q_uid, t_query)
        ]
        assert bands == [b for b in admissible if b in bands]
        nearest = brute_force_pknn(states, store, q_uid, qx, qy, k, t_query)
        assert {uid for _, uid in nearest} <= {b.friend_uid for b in bands}
        search = _MatrixSearch(tree, q_uid, qx, qy, k, t_query)
        reference = _MatrixSearch(
            tree, q_uid, qx, qy, k, t_query, planner=full_planner
        )
        assert search.friends == [
            friend
            for friend in reference.friends
            if can_qualify(store, friend[1], q_uid, t_query)
        ]
        got, expected = search.run(), reference.run()
        assert knn_answer(got) == knn_answer(expected)
        # The walk reads only the strata of the friends it keeps.  How
        # many of their users it examines is not bounded by the
        # unpruned walk's count: Figure 9 puts cell (row, round) on
        # anti-diagonal row + round, so a dropped row moves every later
        # row's cells one anti-diagonal earlier, and the walk can stop
        # on an anti-diagonal whose first cell, scanned before the stop
        # test, is an unlocated friend's (ITEM_17_DRAWS[2]: 6 against 5).
        kept_strata = {tree.codec.quantize_sv(sv) for sv, _ in search.friends}
        assert {
            tree.codec.quantize_sv(store.sequence_value(uid))
            for uid in search.verifier.located
        } <= kept_strata
        assert got.candidates_examined == len(search.verifier.located)
        assert [(round(d, 9), uid) for d, uid in knn_answer(got)] == [
            (round(d, 9), uid)
            for d, uid in brute_force_pknn(states, store, q_uid, qx, qy, k, t_query)
        ]
        served = pknn(tree, q_uid, qx, qy, k, t_query)
        with unpruned():
            assert knn_answer(pknn_walk(tree, q_uid, qx, qy, k, t_query)) == knn_answer(
                expected
            )
            unpruned_served = pknn(tree, q_uid, qx, qy, k, t_query)
        assert knn_answer(served) == knn_answer(unpruned_served) == knn_answer(got)
        assert served.candidates_examined <= unpruned_served.candidates_examined

        specs.append(RangeQuerySpec(q_uid, window, t_query))
        specs.append(KnnQuerySpec(q_uid, qx, qy, k, t_query))

    # -- a mixed batch through the deployment's own engine --
    engine, reference_engine = engines(tree)
    got, expected = engine.execute_batch(specs), reference_engine.execute_batch(specs)
    for spec, mine, theirs in zip(specs, got.results, expected.results):
        if isinstance(spec, RangeQuerySpec):
            assert mine.uids == theirs.uids
        else:
            assert knn_answer(mine) == knn_answer(theirs)
    assert got.stats.bands_requested <= expected.stats.bands_requested


# ----------------------------------------------------------------------
# The served fetch: never more than the unpruned one (defect twenty-five)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_shards", (None, 1, 4))
@pytest.mark.parametrize("store_type", (PolicyStore, MultiPolicyStore))
@settings(max_examples=25, deadline=None)
@given(
    calls=POLICY_CALLS,
    seed=st.integers(0, 2**16),
    t_query=st.sampled_from(T_QUERIES),
    queries=st.lists(
        st.tuples(
            st.integers(0, N_USERS - 1),
            st.sampled_from(WINDOWS),
            st.sampled_from((1, 3, 8, 50)),
            st.sampled_from((None, 1, 2)),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example(**ITEM_17_DRAWS[0])
@example(**ITEM_17_DRAWS[1])
@example(**ITEM_17_DRAWS[2])
def test_the_served_fetch_never_reads_more_than_the_unpruned_one(
    n_shards, store_type, calls, seed, t_query, queries
):
    """The served PkNN bands a friend only where its live key is, so
    pruning a friend removes exactly its one band: single PkNNs answer
    as the unpruned planner's and examine no more candidates, and a
    mixed batch requests no more bands — the bounds the matrix walk
    broke on item 17's draws."""
    store = build_store(store_type, calls)
    states = build_states(seed, t_query)
    tree = build_tree(store, states, n_shards)
    rng = random.Random(seed + 1)  # the query points the property above draws
    specs = []
    for q_uid, window, k, _ in queries:
        qx, qy = rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE)
        got = pknn(tree, q_uid, qx, qy, k, t_query)
        with unpruned():
            expected = pknn(tree, q_uid, qx, qy, k, t_query)
        assert knn_answer(got) == knn_answer(expected)
        assert [(round(d, 9), uid) for d, uid in knn_answer(got)] == [
            (round(d, 9), uid)
            for d, uid in brute_force_pknn(states, store, q_uid, qx, qy, k, t_query)
        ]
        assert got.candidates_examined <= expected.candidates_examined
        specs.append(RangeQuerySpec(q_uid, window, t_query))
        specs.append(KnnQuerySpec(q_uid, qx, qy, k, t_query))
    engine, reference_engine = engines(tree)
    got, expected = engine.execute_batch(specs), reference_engine.execute_batch(specs)
    for spec, mine, theirs in zip(specs, got.results, expected.results):
        if isinstance(spec, RangeQuerySpec):
            assert mine.uids == theirs.uids
        else:
            assert knn_answer(mine) == knn_answer(theirs)
            assert mine.candidates_examined <= theirs.candidates_examined
    assert got.stats.bands_requested <= expected.stats.bands_requested


# ----------------------------------------------------------------------
# An issuer whose every friend is pruned
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", (None, 1, 4))
def test_an_issuer_whose_every_friend_is_pruned_scans_nothing(n_shards):
    """Every friend of user 0 lets it look only between 600 and 700, or
    only inside a region the window misses until 300: at t = 5 nothing
    is planned and nothing is examined, while the reference scans and
    examines."""
    calls = [
        (owner, [0], Rect(0.0, SIDE, 0.0, SIDE), TimeInterval(600.0, 700.0))
        for owner in range(1, 11)
    ] + [
        (owner, [0], Rect(620.0, 880.0, 620.0, 880.0), TimeInterval(0.0, 300.0))
        for owner in range(11, 21)
    ]
    store = build_store(PolicyStore, calls)
    states = build_states(7, 5.0)
    tree = build_tree(store, states, n_shards)
    window = Rect(0.0, 500.0, 0.0, 500.0)

    plan = QueryPlanner(tree).plan_range(0, window, 5.0)
    assert plan.friends == [] and plan.bands == []
    assert len(UnprunedPlanner(tree).plan_range(0, window, 5.0).bands) > 0

    got = prq(tree, 0, window, 5.0)
    with unpruned():
        expected = prq(tree, 0, window, 5.0)
    assert got.users == [] and expected.users == []
    assert got.candidates_examined == 0 < expected.candidates_examined

    # PkNN keeps the ten friends whose policy holds at t = 5.
    search = _MatrixSearch(tree, 0, 500.0, 500.0, 3, 5.0)
    assert {uid for _, uid in search.friends} == set(range(11, 21))
    assert [uid for _, uid in knn_answer(search.run())] == [
        uid for _, uid in brute_force_pknn(states, store, 0, 500.0, 500.0, 3, 5.0)
    ]
    # ... and none at t = 800, when no policy holds: no row, no band.
    search = _MatrixSearch(tree, 0, 500.0, 500.0, 3, 800.0)
    assert search.friends == []
    result = search.run()
    assert result.neighbors == [] and result.candidates_examined == 0
    planner = QueryPlanner(tree)
    visible = store.visibility_map(0, 800.0)
    assert planner.plan_knn_probe(0, visible, 500.0, 500.0, 3, 800.0) == []
    result = pknn(tree, 0, 500.0, 500.0, 3, 800.0)
    assert result.neighbors == [] and result.candidates_examined == 0


# ----------------------------------------------------------------------
# One visibility map per query
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", (None, 4))
def test_one_visibility_map_per_query(n_shards):
    """The planner's map reaches the verifier, and a PkNN's plan and
    replay share one map: a mixed batch computes one per spec,
    over the window for a range spec and without one for a kNN spec."""
    calls = [
        (
            owner,
            [(owner * 7 + j) % N_USERS for j in range(1, 6)],
            REGIONS[owner % len(REGIONS)],
            TINTS[owner % len(TINTS)],
        )
        for owner in range(N_USERS)
    ]
    store = build_store(MultiPolicyStore, calls)
    states = build_states(3, 5.0)
    tree = build_tree(store, states, n_shards)
    engine = QueryEngine(tree)
    specs = [
        RangeQuerySpec(uid, WINDOWS[uid % len(WINDOWS)], 5.0) for uid in range(8)
    ] + [KnnQuerySpec(uid, 400.0, 600.0, 3, 5.0) for uid in range(8, 12)]
    calls_made = []
    visibility_map = PolicyStore.visibility_map

    def counted(self, viewer, t, window=None):
        calls_made.append((viewer, window))
        return visibility_map(self, viewer, t, window)

    with mock.patch.object(PolicyStore, "visibility_map", counted):
        engine.execute_batch(specs)
        assert sorted(calls_made, key=lambda call: call[0]) == [
            (spec.q_uid, spec.window if isinstance(spec, RangeQuerySpec) else None)
            for spec in specs
        ]
        calls_made.clear()
        prq(tree, 0, WINDOWS[0], 5.0)
        pcount(tree, 1, WINDOWS[1], 5.0)
        pknn(tree, 2, 400.0, 600.0, 3, 5.0)
        assert calls_made == [(0, WINDOWS[0]), (1, WINDOWS[1]), (2, None)]
