"""Tests for the privacy-aware kNN query (Figures 8-10)."""

import pytest

from repro.bench.oracle import brute_force_pknn
from repro.core.pknn import pknn


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
    world = small_world
    query = world.query_generator().knn_queries(world.states, 1, 3, 5.0)[0]
    result = pknn(world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query)
    assert result.rounds >= 1


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
