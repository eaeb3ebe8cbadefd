"""Tests for the spatial-index + filter baseline (Section 4)."""

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.spatial.geometry import Rect


def test_range_query_filters_by_policy(curve_world):
    world = curve_world
    generator = world.query_generator()
    for query in generator.range_queries(world.uids, 10, 250.0, 5.0):
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, query.t_query
        )
        found = {
            obj.uid
            for obj in world.baseline.range_query(
                query.q_uid, query.window, query.t_query
            )
        }
        assert found == expected


def test_knn_query_filters_by_policy(curve_world):
    world = curve_world
    generator = world.query_generator()
    for query in generator.knn_queries(world.states, 8, 4, 5.0):
        expected = brute_force_pknn(
            world.states,
            world.store,
            query.q_uid,
            query.qx,
            query.qy,
            query.k,
            query.t_query,
        )
        found = world.baseline.knn_query(
            query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        assert [round(d, 9) for d, _ in found] == [round(d, 9) for d, _ in expected]


def test_issuer_never_in_own_results(small_world):
    world = small_world
    issuer = world.uids[0]
    state = world.states[issuer]
    window = Rect.from_center(state.x, state.y, 100.0)
    found = world.baseline.range_query(issuer, window, 0.0)
    assert issuer not in {obj.uid for obj in found}
    neighbors = world.baseline.knn_query(issuer, state.x, state.y, 5, 0.0)
    assert issuer not in {obj.uid for _, obj in neighbors}


def test_running_example_shape(small_world):
    """Figure 4's point: the baseline retrieves spatial candidates that
    policy checking then discards — the intermediate result is a superset
    of the answer."""
    world = small_world
    generator = world.query_generator()
    total_candidates = 0
    total_answers = 0
    from repro.bxtree.queries import bx_range_query

    for query in generator.range_queries(world.uids, 10, 300.0, 5.0):
        candidates = bx_range_query(world.bx, query.window, query.t_query)
        answers = world.baseline.range_query(query.q_uid, query.window, query.t_query)
        assert {obj.uid for obj in answers} <= {obj.uid for obj in candidates}
        total_candidates += len(candidates)
        total_answers += len(answers)
    assert total_candidates > total_answers  # filtering discards a lot
