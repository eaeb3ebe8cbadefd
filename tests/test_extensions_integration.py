"""Cross-extension integration tests.

Each Section 8 extension is unit-tested in its own module; here they are
composed the way a deployment would: a multi-policy directory feeding
the sequence-value encoder, the PEB-tree built on a Hilbert grid, the
full query set (PRQ, PkNN, count, density, continuous monitor) answered
on top — always against the brute-force Definition 2/3 oracle.
"""

import random

import pytest

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.aggregate import pcount, pdensity_grid
from repro.core.continuous import ContinuousPRQ
from repro.core.encoders import make_encoder
from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.motion.partitions import TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.timeset import TimeInterval
from repro.spatial.curves import HILBERT
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.workloads.queries import QueryGenerator
from repro.workloads.uniform import UniformMovement

SPACE = 1000.0
T = 1440.0


def multi_policy_world(n_users=140, seed=61, curve=None, buffer_policy="lru"):
    """A population whose users hold *several* policies per friend."""
    rng = random.Random(seed)
    movement = UniformMovement(SPACE, 3.0, random.Random(seed + 1))
    states = {obj.uid: obj for obj in movement.initial_objects(n_users, t=0.0)}
    store = MultiPolicyStore(time_domain=T)

    uids = sorted(states)
    for owner in uids:
        friends = rng.sample([u for u in uids if u != owner], 6)
        for friend in friends:
            # Two to three stacked policies per pair: different regions
            # and day segments, sometimes overlapping.
            for _ in range(rng.randint(2, 3)):
                cx, cy = rng.uniform(0, SPACE), rng.uniform(0, SPACE)
                half = rng.uniform(100, 400)
                start = rng.uniform(0, T - 1)
                end = min(T, start + rng.uniform(60, 720))
                store.add_policy(
                    LocationPrivacyPolicy(
                        owner=owner,
                        role="friend",
                        locr=Rect(
                            max(0.0, cx - half),
                            min(SPACE, cx + half),
                            max(0.0, cy - half),
                            min(SPACE, cy + half),
                        ),
                        tint=TimeInterval(start, end),
                    ),
                    [friend],
                )

    report = assign_sequence_values(uids, store, SPACE**2)
    store.set_sequence_values(report.sequence_values)

    grid = Grid(SPACE, 10) if curve is None else Grid(SPACE, 10, curve=curve)
    pool = BufferPool(
        SimulatedDisk(page_size=1024), capacity=512, policy=buffer_policy
    )
    tree = PEBTree(pool, grid, TimePartitioner(120.0, 2), store)
    for obj in states.values():
        tree.insert(obj)
    return states, store, tree


@pytest.fixture(scope="module")
def multi_world():
    return multi_policy_world()


def test_multi_policy_prq_matches_oracle(multi_world):
    states, store, tree = multi_world
    queries = QueryGenerator(SPACE, random.Random(70)).range_queries(
        sorted(states), 12, 300.0, 0.0
    )
    for query in queries:
        expected = brute_force_prq(
            states, store, query.q_uid, query.window, query.t_query
        )
        got = prq(tree, query.q_uid, query.window, query.t_query).uids
        assert got == expected


def test_multi_policy_pknn_matches_oracle(multi_world):
    states, store, tree = multi_world
    queries = QueryGenerator(SPACE, random.Random(71)).knn_queries(
        states, 12, 3, 0.0
    )
    for query in queries:
        expected = brute_force_pknn(
            states, store, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        answer = pknn(
            tree, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        assert [round(d, 9) for d, _ in answer.neighbors] == [
            round(d, 9) for d, _ in expected
        ]


def test_multi_policy_aggregates_consistent(multi_world):
    states, store, tree = multi_world
    window = Rect(200, 800, 200, 800)
    for q_uid in sorted(states)[:8]:
        expected = len(brute_force_prq(states, store, q_uid, window, 10.0))
        assert pcount(tree, q_uid, window, 10.0).count == expected
        density = pdensity_grid(tree, q_uid, window, 10.0, rows=3, columns=3)
        assert density.total == expected


def test_multi_policy_continuous_monitor(multi_world):
    states, store, tree = multi_world
    q_uid = sorted(states)[2]
    window = Rect(250, 750, 250, 750)
    monitor = ContinuousPRQ(tree, q_uid, window, t_start=0.0)
    for t in (0.0, 30.0, 75.0):
        expected = brute_force_prq(states, store, q_uid, window, t)
        assert monitor.result_at(t) == expected


def test_stacked_extensions_hilbert_clock_multi_policy():
    """Hilbert grid + CLOCK buffer + multi-policy store, all at once."""
    states, store, tree = multi_policy_world(
        n_users=100, seed=77, curve=HILBERT, buffer_policy="clock"
    )
    queries = QueryGenerator(SPACE, random.Random(78)).range_queries(
        sorted(states), 8, 300.0, 0.0
    )
    for query in queries:
        expected = brute_force_prq(
            states, store, query.q_uid, query.window, query.t_query
        )
        assert prq(tree, query.q_uid, query.window, query.t_query).uids == expected


@pytest.mark.parametrize("encoder_name", ["bfs"])
def test_alternative_encoders_on_multi_policy_store(encoder_name):
    """Alternative encoders accept the multi-policy compatibility hook."""
    states, store, _ = multi_policy_world(n_users=80, seed=88)
    uids = sorted(states)
    report = make_encoder(encoder_name).encode(uids, store, SPACE**2)
    assert set(report.sequence_values) == set(uids)
    store.set_sequence_values(report.sequence_values)

    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    tree = PEBTree(pool, Grid(SPACE, 10), TimePartitioner(120.0, 2), store)
    for obj in states.values():
        tree.insert(obj)
    queries = QueryGenerator(SPACE, random.Random(89)).range_queries(
        uids, 6, 300.0, 0.0
    )
    for query in queries:
        expected = brute_force_prq(
            states, store, query.q_uid, query.window, query.t_query
        )
        assert prq(tree, query.q_uid, query.window, query.t_query).uids == expected
