"""Tests for the privacy-aware range query (Figure 7)."""

import pytest

from repro.bench.oracle import brute_force_prq
from repro.core.prq import prq
from repro.spatial.geometry import Rect


def test_matches_brute_force_on_random_windows(small_world):
    world = small_world
    generator = world.query_generator()
    for query in generator.range_queries(world.uids, 25, 200.0, 5.0):
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, query.t_query
        )
        result = prq(world.peb, query.q_uid, query.window, query.t_query)
        assert result.uids == expected


def test_various_window_sizes(small_world):
    world = small_world
    generator = world.query_generator()
    for side in (50.0, 400.0, 1000.0):
        for query in generator.range_queries(world.uids, 5, side, 5.0):
            expected = brute_force_prq(
                world.states, world.store, query.q_uid, query.window, query.t_query
            )
            assert prq(world.peb, query.q_uid, query.window, query.t_query).uids == expected


def test_no_friends_means_no_results_and_no_scanning(small_world):
    world = small_world
    stranger = max(world.uids) + 1000  # nobody holds a policy about them
    result = prq(world.peb, stranger, Rect(0, 1000, 0, 1000), 5.0)
    assert result.users == []
    assert result.candidates_examined == 0


def test_nan_window_raises_and_reads_no_page(small_world):
    """A NaN bound used to pass validation and answer "nobody"."""
    world = small_world
    stats = world.peb.stats
    before = (stats.logical_reads, stats.physical_reads)
    with pytest.raises(ValueError):
        prq(world.peb, world.uids[0], Rect(float("nan"), 100, 0, 100), 5.0)
    assert (stats.logical_reads, stats.physical_reads) == before


def test_results_only_contain_friends(small_world):
    world = small_world
    for query in world.query_generator().range_queries(world.uids, 10, 400.0, 5.0):
        result = prq(world.peb, query.q_uid, query.window, query.t_query)
        friends = {uid for _, uid in world.store.friend_list(query.q_uid)}
        assert result.uids <= friends


def test_candidates_bounded_by_friend_count(small_world):
    """The PEB-tree property motivating Figure 15(a): no matter the
    window, at most the issuer's related users are examined (plus users
    sharing a quantized SV with some friend)."""
    world = small_world
    for query in world.query_generator().range_queries(world.uids, 10, 1000.0, 5.0):
        result = prq(world.peb, query.q_uid, query.window, query.t_query)
        friend_count = len(world.store.friend_list(query.q_uid))
        # Allow slack for coincidental SV collisions.
        assert result.candidates_examined <= 3 * friend_count + 5


def test_full_space_window_returns_all_qualifying(small_world):
    world = small_world
    issuer = world.uids[3]
    window = Rect(0, 1000, 0, 1000)
    expected = brute_force_prq(world.states, world.store, issuer, window, 5.0)
    assert prq(world.peb, issuer, window, 5.0).uids == expected


def test_query_after_updates():
    """PRQ stays correct when entries move across time partitions."""
    import random

    from tests.conftest import build_world

    world = build_world(n_users=250, n_policies=8, seed=41)
    rng = random.Random(77)
    now = 40.0
    for uid in world.uids[:100]:
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
    for query in world.query_generator().range_queries(world.uids, 10, 250.0, now):
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, query.t_query
        )
        assert prq(world.peb, query.q_uid, query.window, query.t_query).uids == expected
