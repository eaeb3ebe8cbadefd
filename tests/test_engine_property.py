"""Property tests: the engine is observationally identical to the seed.

The unified engine replaced five hand-rolled copies of the Section 5.3
pipeline.  These tests pin the refactor: over randomized populations,
policies, and seeds, the engine-based ``prq`` / ``pcount`` return
*identical results and identical ``candidates_examined``* to the seed
implementations (reproduced below, verbatim from the pre-engine code
except for the friend list they loop over: the planner bands only the
friends who can qualify, so the seed loops are handed the same list,
derived here from the policies themselves) when the engine runs the
seed's plan, the window-span plan of ``tests/reference_plan.py``.  The
served plan bands a friend only at its live key, when that key's cell
can reach the window: it answers exactly as the window-span plan does
and never examines more candidates.  ``pdensity_grid`` agrees with
``prq``, ``pknn`` matches the brute-force oracle, and a batch of N
queries matches N individual runs exactly.
"""

import random

import pytest

from repro.bench.oracle import brute_force_pknn
from repro.core.aggregate import pcount, pdensity_grid
from repro.core.continuous import ContinuousPRQ
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.engine import QueryEngine

from repro.bxtree.queries import enlargement_for_label
from repro.policy.timeset import fold

from tests.conftest import build_world
from tests.reference_plan import window_span

SEEDS = (3, 23, 59)


@pytest.fixture(scope="module", params=SEEDS)
def world(request):
    return build_world(n_users=220, n_policies=8, seed=request.param)


# ----------------------------------------------------------------------
# Reference implementations (the seed pipelines, kept verbatim)
# ----------------------------------------------------------------------


def admissible_friends(store, q_uid, window, t_query):
    """The friend list minus every friend no policy can admit: one must
    hold at ``t_query`` over a ``locr`` that meets ``window`` (any
    ``locr`` when ``window`` is None)."""
    instant = fold(t_query, store.time_domain)
    return [
        (sv, uid)
        for sv, uid in store.friend_list(q_uid)
        if any(
            policy.tint.contains(instant)
            and (window is None or policy.locr.intersects(window))
            for policy in store.policies_for(uid, q_uid)
        )
    ]


def reference_prq(tree, q_uid, window, t_query):
    """The pre-engine PRQ loop; returns (uids, candidates_examined)."""
    friends = admissible_friends(tree.store, q_uid, window, t_query)
    users, candidates = set(), 0
    if not friends:
        return users, candidates
    located = set()
    for label in tree.partitioner.live_labels(t_query):
        tid = tree.partitioner.partition_of_label(label)
        enlarged = window.expanded(
            enlargement_for_label(label, t_query, tree.live.max_speed_x),
            enlargement_for_label(label, t_query, tree.live.max_speed_y),
        )
        span = tree.grid.z_span(enlarged)
        if span is None:
            continue
        z_lo, z_hi = span
        for sv, friend_uid in friends:
            if friend_uid in located:
                continue
            for obj in tree.scan_sv_zrange(tid, sv, z_lo, z_hi):
                if obj.uid in located:
                    continue
                located.add(obj.uid)
                candidates += 1
                x, y = obj.position_at(t_query)
                if window.contains(x, y) and tree.store.evaluate(
                    obj.uid, q_uid, x, y, t_query
                ):
                    users.add(obj.uid)
    return users, candidates


def reference_pcount(tree, q_uid, window, t_query, at_least=None):
    """The pre-engine pcount loop; (count, candidates, terminated_early)."""
    friends = admissible_friends(tree.store, q_uid, window, t_query)
    count, candidates = 0, 0
    if not friends:
        return count, candidates, False
    located = set()
    for label in tree.partitioner.live_labels(t_query):
        tid = tree.partitioner.partition_of_label(label)
        enlarged = window.expanded(
            enlargement_for_label(label, t_query, tree.live.max_speed_x),
            enlargement_for_label(label, t_query, tree.live.max_speed_y),
        )
        span = tree.grid.z_span(enlarged)
        if span is None:
            continue
        z_lo, z_hi = span
        for sv, friend_uid in friends:
            if friend_uid in located:
                continue
            for obj in tree.scan_sv_zrange(tid, sv, z_lo, z_hi):
                if obj.uid in located:
                    continue
                located.add(obj.uid)
                candidates += 1
                x, y = obj.position_at(t_query)
                if window.contains(x, y) and tree.store.evaluate(
                    obj.uid, q_uid, x, y, t_query
                ):
                    count += 1
                    if at_least is not None and count >= at_least:
                        return count, candidates, True
    return count, candidates, False


def reference_seed_states(tree, q_uid):
    """The pre-engine ContinuousPRQ._seed sweep."""
    friends = tree.store.friend_list(q_uid)
    tracked = {}
    for tid in range(tree.partitioner.num_partitions):
        for sv, friend_uid in friends:
            if friend_uid in tracked:
                continue
            for obj in tree.scan_sv_zrange(tid, sv, 0, tree.grid.max_z):
                if obj.uid not in tracked and tree.store.policies_for(
                    obj.uid, q_uid
                ):
                    tracked[obj.uid] = obj
    return tracked


# ----------------------------------------------------------------------
# Engine == seed, per query type
# ----------------------------------------------------------------------


def test_prq_identical_to_seed_implementation(world):
    for query in world.query_generator().range_queries(world.uids, 20, 280.0, 5.0):
        expected_uids, expected_candidates = reference_prq(
            world.peb, query.q_uid, query.window, query.t_query
        )
        with window_span():
            result = prq(world.peb, query.q_uid, query.window, query.t_query)
        assert result.uids == expected_uids
        assert result.candidates_examined == expected_candidates


def test_pcount_identical_to_seed_implementation(world):
    rng = random.Random(101)
    for query in world.query_generator().range_queries(world.uids, 12, 350.0, 5.0):
        at_least = rng.choice((None, 1, 2, 5))
        count, candidates, early = reference_pcount(
            world.peb, query.q_uid, query.window, query.t_query, at_least
        )
        with window_span():
            result = pcount(
                world.peb, query.q_uid, query.window, query.t_query, at_least
            )
        assert result.count == count
        assert result.candidates_examined == candidates
        assert result.terminated_early == early


def test_served_prq_answers_as_the_window_span_plan(world):
    for query in world.query_generator().range_queries(world.uids, 20, 280.0, 5.0):
        args = (world.peb, query.q_uid, query.window, query.t_query)
        with window_span():
            expected = prq(*args)
        result = prq(*args)
        assert result.uids == expected.uids
        assert result.candidates_examined <= expected.candidates_examined


def test_served_pcount_answers_as_the_window_span_plan(world):
    rng = random.Random(101)
    for query in world.query_generator().range_queries(world.uids, 12, 350.0, 5.0):
        args = (world.peb, query.q_uid, query.window, query.t_query)
        at_least = rng.choice((None, 1, 2, 5))
        with window_span():
            expected = pcount(*args, at_least)
        result = pcount(*args, at_least)
        assert (result.count, result.terminated_early) == (
            expected.count,
            expected.terminated_early,
        )
        assert result.candidates_examined <= expected.candidates_examined


def test_pdensity_consistent_with_prq(world):
    for query in world.query_generator().range_queries(world.uids, 8, 400.0, 5.0):
        range_result = prq(world.peb, query.q_uid, query.window, query.t_query)
        density = pdensity_grid(
            world.peb, query.q_uid, query.window, query.t_query, rows=3, columns=3
        )
        assert density.total == len(range_result.users)
        assert sum(density.cells.values()) == density.total
        assert density.candidates_examined == range_result.candidates_examined


def test_pknn_matches_brute_force(world):
    for query in world.query_generator().knn_queries(world.states, 12, 3, 5.0):
        expected = brute_force_pknn(
            world.states,
            world.store,
            query.q_uid,
            query.qx,
            query.qy,
            query.k,
            query.t_query,
        )
        result = pknn(
            world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        assert [round(d, 9) for d, _ in result.neighbors] == [
            round(d, 9) for d, _ in expected
        ]


def test_continuous_seed_identical_to_seed_implementation(world):
    for issuer in world.uids[:8]:
        expected = reference_seed_states(world.peb, issuer)
        monitor = ContinuousPRQ(
            world.peb,
            issuer,
            window=world.grid.bounds,
            t_start=0.0,
        )
        assert set(monitor._tracked) == set(expected)
        for uid, obj in monitor._tracked.items():
            assert obj.uid == expected[uid].uid
            assert (obj.x, obj.y) == (expected[uid].x, expected[uid].y)


# ----------------------------------------------------------------------
# Batch == N individual runs
# ----------------------------------------------------------------------


def test_batch_identical_to_individual_runs(world):
    generator = world.query_generator()
    for batch_size in (1, 7, 33):
        specs = generator.range_queries(world.uids, batch_size, 260.0, 5.0)
        report = QueryEngine(world.peb).execute_batch(specs)
        assert len(report.results) == batch_size
        for spec, batched in zip(specs, report.results):
            single = prq(world.peb, spec.q_uid, spec.window, spec.t_query)
            assert batched.uids == single.uids
            assert batched.candidates_examined == single.candidates_examined
