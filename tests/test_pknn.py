"""Tests for the privacy-aware kNN query (Figures 8-10)."""

import pytest

from repro.bench.oracle import brute_force_pknn
from repro.core.pknn import pknn, pknn_walk
from repro.engine import QueryEngine
from repro.workloads.queries import KnnQuerySpec

from tests.test_residency_pin import T_QUERY, pin_world
from tests.test_shard_property import build_sharded


def _expected_distances(world, query):
    expected = brute_force_pknn(
        world.states,
        world.store,
        query.q_uid,
        query.qx,
        query.qy,
        query.k,
        query.t_query,
    )
    return [round(d, 9) for d, _ in expected]


def test_matches_brute_force_on_random_queries(small_world):
    world = small_world
    for query in world.query_generator().knn_queries(world.states, 20, 5, 5.0):
        result = pknn(world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query)
        got = [round(d, 9) for d, _ in result.neighbors]
        assert got == _expected_distances(world, query)


def test_various_k(small_world):
    world = small_world
    for k in (1, 2, 8):
        for query in world.query_generator().knn_queries(world.states, 5, k, 5.0):
            result = pknn(
                world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
            )
            got = [round(d, 9) for d, _ in result.neighbors]
            assert got == _expected_distances(world, query)


def test_results_sorted_by_distance(small_world):
    world = small_world
    for query in world.query_generator().knn_queries(world.states, 10, 6, 5.0):
        result = pknn(world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query)
        distances = [d for d, _ in result.neighbors]
        assert distances == sorted(distances)


def test_no_friends_returns_empty(small_world):
    world = small_world
    stranger = max(world.uids) + 1000
    result = pknn(world.peb, stranger, 500.0, 500.0, 5, 5.0)
    assert result.neighbors == []
    assert result.candidates_examined == 0


def test_k_larger_than_qualifying_set(small_world):
    """When fewer than k users qualify, all of them come back."""
    world = small_world
    issuer = world.uids[0]
    expected = brute_force_pknn(
        world.states, world.store, issuer, 500.0, 500.0, 10_000, 5.0
    )
    result = pknn(world.peb, issuer, 500.0, 500.0, 10_000, 5.0)
    assert len(result.neighbors) == len(expected)
    got = [round(d, 9) for d, _ in result.neighbors]
    assert got == [round(d, 9) for d, _ in expected]


def test_zero_k(small_world):
    world = small_world
    result = pknn(world.peb, world.uids[0], 500.0, 500.0, 0, 5.0)
    assert result.neighbors == []


def test_negative_k_raises_before_any_read(small_world):
    world = small_world
    stats = world.peb.stats
    before = (stats.logical_reads, stats.physical_reads)
    with pytest.raises(ValueError, match="k must be >= 0"):
        pknn(world.peb, world.uids[0], 500.0, 500.0, -1, 5.0)
    assert (stats.logical_reads, stats.physical_reads) == before


def test_neighbors_are_policy_qualified(small_world):
    world = small_world
    for query in world.query_generator().knn_queries(world.states, 10, 5, 5.0):
        result = pknn(world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query)
        for _, obj in result.neighbors:
            x, y = obj.position_at(query.t_query)
            assert world.store.evaluate(obj.uid, query.q_uid, x, y, query.t_query)


def test_rounds_reported(small_world):
    """The walk reports the rounds it touched; the served fetch has none."""
    world = small_world
    query = world.query_generator().knn_queries(world.states, 1, 3, 5.0)[0]
    walked = pknn_walk(
        world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
    )
    assert walked.rounds >= 1
    result = pknn(world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query)
    assert result.rounds == 0


def test_distance_ties_resolve_to_same_multiset(small_world):
    """Ties at the k-th distance may legitimately pick either user; the
    distance multiset must still match the oracle exactly."""
    world = small_world
    query = world.query_generator().knn_queries(world.states, 1, 5, 5.0)[0]
    result = pknn(world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query)
    got = sorted(round(d, 9) for d, _ in result.neighbors)
    assert got == sorted(_expected_distances(world, query))


def test_corner_query_location(small_world):
    """Query from a space corner: enlargement windows overhang the domain."""
    world = small_world
    issuer = world.uids[1]
    expected = brute_force_pknn(world.states, world.store, issuer, 0.0, 0.0, 4, 5.0)
    result = pknn(world.peb, issuer, 0.0, 0.0, 4, 5.0)
    assert [round(d, 9) for d, _ in result.neighbors] == [
        round(d, 9) for d, _ in expected
    ]


def test_span_cache_stays_within_documented_bound(small_world):
    """The per-query span cache is bounded by contexts x (rounds + 1)."""
    from repro.core.pknn import _MatrixSearch

    world = small_world
    for query in world.query_generator().knn_queries(world.states, 5, 4, 5.0):
        search = _MatrixSearch(
            world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        search.run()
        assert len(search._span_cache) <= search._span_cache_capacity
        assert search._span_cache_capacity == max(1, len(search.contexts)) * (
            search.max_rounds + 1
        )


# ----------------------------------------------------------------------
# Query points outside the space
# ----------------------------------------------------------------------


def _points_outside(side, distance):
    """One point ``distance`` beyond each side and each corner."""
    mid, lo, hi = side / 2, -distance, side + distance
    return [
        (lo, mid), (hi, mid), (mid, lo), (mid, hi),
        (lo, lo), (lo, hi), (hi, lo), (hi, hi),
    ]


@pytest.mark.parametrize("partitions", ("one-partition", "two-partitions"))
def test_query_points_outside_the_space_match_the_oracle(partitions):
    """Definition 3 has no "inside the grid" clause, and clients ask from
    predicted positions: the walk must reach as far as the space lies
    from the query point, not just across the space's own diagonal."""
    world = pin_world(
        seed=31,
        reported_at=(lambda uid: 30.0 * (uid % 2))
        if partitions == "two-partitions"
        else None,
    )
    friendly = [uid for uid in world.uids if len(world.store.friend_list(uid)) >= 2]
    specs = []
    for issuer in friendly[:2]:
        n_friends = len(world.store.friend_list(issuer))
        for k in (1, n_friends, n_friends + 5):  # below, at, above the list
            for distance in (0.0, 1.0, 500.0, 5000.0):
                for qx, qy in _points_outside(world.space_side, distance):
                    specs.append(KnnQuerySpec(issuer, qx, qy, k, T_QUERY))
    expected = [_expected_distances(world, spec) for spec in specs]
    assert any(expected)

    single = [
        pknn(world.peb, s.q_uid, s.qx, s.qy, s.k, s.t_query).neighbors for s in specs
    ]
    assert [[round(d, 9) for d, _ in found] for found in single] == expected

    sharded = QueryEngine(build_sharded(world, 4)).execute_batch(specs)
    assert [
        [round(d, 9) for d, _ in result.neighbors] for result in sharded.results
    ] == expected


@pytest.mark.parametrize("field", ("qx", "qy", "t_query"))
@pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
def test_non_finite_arguments_raise_before_any_read(small_world, field, value):
    world = small_world
    arguments = dict(qx=500.0, qy=500.0, k=3, t_query=5.0)
    arguments[field] = value
    stats = world.peb.stats
    before = (stats.logical_reads, stats.physical_reads)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        pknn(world.peb, world.uids[0], **arguments)
    assert (stats.logical_reads, stats.physical_reads) == before
