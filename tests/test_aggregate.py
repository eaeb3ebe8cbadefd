"""Tests for privacy-aware aggregates (count / existential / density)."""

import random

import pytest

from repro.bench.oracle import brute_force_prq
from repro.core.aggregate import pcount, pdensity_grid
from repro.spatial.geometry import Rect
from repro.workloads.queries import QueryGenerator
from tests.conftest import build_world


@pytest.fixture(scope="module")
def world():
    world = build_world(n_users=150, n_policies=8, seed=17)
    return world.states, world.store, world.peb


# ----------------------------------------------------------------------
# pcount
# ----------------------------------------------------------------------


def test_pcount_matches_brute_force(world):
    states, store, tree = world
    queries = QueryGenerator(1000.0, random.Random(2)).range_queries(
        sorted(states), 15, 300.0, 0.0
    )
    for query in queries:
        expected = brute_force_prq(
            states, store, query.q_uid, query.window, query.t_query
        )
        result = pcount(tree, query.q_uid, query.window, query.t_query)
        assert result.count == len(expected)
        assert not result.terminated_early


def test_pcount_no_friends_zero(world):
    _, store, tree = world
    lonely_uid = 10**6  # not in the system, has no friend list
    result = pcount(tree, lonely_uid, Rect(0, 1000, 0, 1000), 0.0)
    assert result.count == 0
    assert result.candidates_examined == 0


def test_pcount_whole_space(world):
    states, store, tree = world
    q_uid = sorted(states)[0]
    window = Rect(0, 1000, 0, 1000)
    expected = brute_force_prq(states, store, q_uid, window, 0.0)
    assert pcount(tree, q_uid, window, 0.0).count == len(expected)


def test_pcount_at_least_certifies_lower_bound(world):
    states, store, tree = world
    window = Rect(0, 1000, 0, 1000)
    for q_uid in sorted(states)[:20]:
        expected = len(brute_force_prq(states, store, q_uid, window, 0.0))
        result = pcount(tree, q_uid, window, 0.0, at_least=1)
        if expected >= 1:
            assert result.count >= 1
            assert result.terminated_early
        else:
            assert result.count == 0
            assert not result.terminated_early


def test_pcount_at_least_examines_no_more(world):
    states, _, tree = world
    window = Rect(0, 1000, 0, 1000)
    for q_uid in sorted(states)[:20]:
        full = pcount(tree, q_uid, window, 0.0)
        capped = pcount(tree, q_uid, window, 0.0, at_least=1)
        assert capped.candidates_examined <= full.candidates_examined


def test_pcount_at_least_above_total_scans_everything(world):
    states, store, tree = world
    window = Rect(0, 1000, 0, 1000)
    q_uid = sorted(states)[3]
    expected = len(brute_force_prq(states, store, q_uid, window, 0.0))
    result = pcount(tree, q_uid, window, 0.0, at_least=expected + 5)
    assert result.count == expected
    assert not result.terminated_early


def test_pcount_rejects_bad_threshold(world):
    _, _, tree = world
    with pytest.raises(ValueError):
        pcount(tree, 0, Rect(0, 1, 0, 1), 0.0, at_least=0)


# ----------------------------------------------------------------------
# pdensity_grid
# ----------------------------------------------------------------------


def test_density_total_matches_pcount(world):
    states, _, tree = world
    window = Rect(200, 800, 200, 800)
    for q_uid in sorted(states)[:10]:
        count = pcount(tree, q_uid, window, 0.0).count
        density = pdensity_grid(tree, q_uid, window, 0.0, rows=4, columns=4)
        assert density.total == count
        assert sum(density.cells.values()) == count


def test_density_cells_place_users_correctly(world):
    states, store, tree = world
    window = Rect(0, 1000, 0, 1000)
    q_uid = sorted(states)[5]
    density = pdensity_grid(tree, q_uid, window, 0.0, rows=2, columns=2)
    expected = brute_force_prq(states, store, q_uid, window, 0.0)
    # Recompute each qualifying user's bucket from its true position.
    buckets: dict[tuple[int, int], int] = {}
    for uid in expected:
        x, y = states[uid].position_at(0.0)
        col = min(int(x / 500.0), 1)
        row = min(int(y / 500.0), 1)
        buckets[(row, col)] = buckets.get((row, col), 0) + 1
    assert density.cells == buckets


def test_density_count_at_accessor(world):
    states, _, tree = world
    q_uid = sorted(states)[5]
    density = pdensity_grid(tree, q_uid, Rect(0, 1000, 0, 1000), 0.0, 2, 2)
    total = sum(
        density.count_at(row, col) for row in range(2) for col in range(2)
    )
    assert total == density.total
    assert density.count_at(50, 50) == 0


def test_density_rejects_bad_grid(world):
    _, _, tree = world
    with pytest.raises(ValueError):
        pdensity_grid(tree, 0, Rect(0, 10, 0, 10), 0.0, rows=0)
    with pytest.raises(ValueError):
        pdensity_grid(tree, 0, Rect(5, 5, 0, 10), 0.0)


def test_density_single_cell_is_plain_count(world):
    states, _, tree = world
    window = Rect(300, 700, 300, 700)
    q_uid = sorted(states)[7]
    density = pdensity_grid(tree, q_uid, window, 0.0, rows=1, columns=1)
    assert density.count_at(0, 0) == density.total
