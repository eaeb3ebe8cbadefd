"""The central correctness invariant (DESIGN.md):

For every workload, PRQ/PkNN on the PEB-tree, the spatial-filter
baseline, and the brute-force oracle return identical results.

Hypothesis drives whole-system randomization: movement seeds, policy
shapes, grouping factors, query times, and query parameters.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.pknn import pknn
from repro.core.prq import prq

from tests.conftest import build_world


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    theta=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
    t_query=st.floats(min_value=0.0, max_value=100.0),
)
def test_prq_equivalence_randomized(seed, theta, t_query):
    world = build_world(n_users=150, n_policies=6, theta=theta, seed=seed)
    generator = world.query_generator()
    for query in generator.range_queries(world.uids, 4, 300.0, t_query):
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, query.t_query
        )
        peb_found = prq(world.peb, query.q_uid, query.window, query.t_query).uids
        base_found = {
            obj.uid
            for obj in world.baseline.range_query(
                query.q_uid, query.window, query.t_query
            )
        }
        assert peb_found == expected
        assert base_found == expected


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=7),
    t_query=st.floats(min_value=0.0, max_value=100.0),
)
def test_pknn_equivalence_randomized(seed, k, t_query):
    world = build_world(n_users=150, n_policies=6, seed=seed)
    generator = world.query_generator()
    for query in generator.knn_queries(world.states, 3, k, t_query):
        expected = [
            round(d, 9)
            for d, _ in brute_force_pknn(
                world.states,
                world.store,
                query.q_uid,
                query.qx,
                query.qy,
                query.k,
                query.t_query,
            )
        ]
        peb_result = pknn(
            world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        base_result = world.baseline.knn_query(
            query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        assert [round(d, 9) for d, _ in peb_result.neighbors] == expected
        assert [round(d, 9) for d, _ in base_result] == expected


def test_equivalence_through_full_update_cycle():
    """Both indexes stay equivalent to brute force while the whole
    population is updated twice over (the Figure 18 regime)."""
    world = build_world(n_users=200, n_policies=8, seed=99)
    rng = random.Random(1234)
    generator = world.query_generator()
    now = 0.0
    for round_index in range(8):
        now += 30.0
        uids = sorted(world.states)
        batch = [uid for uid in uids if uid % 4 == round_index % 4]
        for uid in batch:
            old = world.states[uid]
            x, y = old.position_at(now)
            moved = old.moved_to(
                min(max(x, 0.0), 1000.0),
                min(max(y, 0.0), 1000.0),
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
                now,
            )
            world.states[uid] = moved
            world.peb.update(moved)
            world.bx.update(moved)
        for query in generator.range_queries(world.uids, 3, 250.0, now):
            expected = brute_force_prq(
                world.states, world.store, query.q_uid, query.window, query.t_query
            )
            assert prq(world.peb, query.q_uid, query.window, query.t_query).uids == expected
        for query in generator.knn_queries(world.states, 2, 4, now):
            expected = [
                round(d, 9)
                for d, _ in brute_force_pknn(
                    world.states,
                    world.store,
                    query.q_uid,
                    query.qx,
                    query.qy,
                    query.k,
                    query.t_query,
                )
            ]
            result = pknn(
                world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
            )
            assert [round(d, 9) for d, _ in result.neighbors] == expected


@pytest.mark.parametrize("slack", (1e-6, 0.0))
def test_equivalence_up_to_the_update_deadline(small_world, slack):
    """A user last heard of at ``t_u`` stays in contract until exactly
    ``t_u + Δt_mu``: a query at the deadline (and just before it) sees
    the whole population inserted at ``t = 0``.  Past the deadline a
    user who has not re-updated is out of contract, so nothing is
    asserted there."""
    world = small_world
    t_query = world.partitioner.max_update_interval - slack
    generator = world.query_generator()
    found = 0
    for query in generator.range_queries(world.uids, 12, 400.0, t_query):
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, t_query
        )
        found += len(expected)
        assert prq(world.peb, query.q_uid, query.window, t_query).uids == expected
        assert {
            obj.uid
            for obj in world.baseline.range_query(query.q_uid, query.window, t_query)
        } == expected
    assert found > 0
    for query in generator.knn_queries(world.states, 8, 4, t_query):
        expected = [
            round(d, 9)
            for d, _ in brute_force_pknn(
                world.states, world.store, query.q_uid, query.qx, query.qy, 4, t_query
            )
        ]
        peb_result = pknn(world.peb, query.q_uid, query.qx, query.qy, 4, t_query)
        base_result = world.baseline.knn_query(
            query.q_uid, query.qx, query.qy, 4, t_query
        )
        assert [round(d, 9) for d, _ in peb_result.neighbors] == expected
        assert [round(d, 9) for d, _ in base_result] == expected


def test_io_advantage_shows_at_scale():
    """The headline claim at test scale: the PEB-tree answers
    privacy-aware queries with less I/O than the spatial-filter
    baseline."""
    from repro.bench.harness import ExperimentConfig, ExperimentHarness

    harness = ExperimentHarness(
        ExperimentConfig(
            n_users=1500,
            n_policies=15,
            n_queries=12,
            page_size=1024,
            buffer_pages=50,
            build_buffer_pages=4096,
            seed=17,
        )
    )
    prq_costs = harness.run_prq_batch()
    knn_costs = harness.run_pknn_batch()
    assert prq_costs.peb_io < prq_costs.baseline_io
    assert knn_costs.peb_io < knn_costs.baseline_io
