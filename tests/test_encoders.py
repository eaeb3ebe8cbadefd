"""Tests for the alternative sequence-value encoders.

Invariants for every encoder: total coverage (one SV per user),
determinism, respect for the initial-SV/δ contract, and — crucially —
*query-result neutrality*: the SV assignment changes only the physical
layout of the PEB-tree, never the answer of PRQ/PkNN.
"""

import random

import pytest

from repro.bench.oracle import brute_force_prq
from repro.core.encoders import (
    ENCODERS,
    BFSEncoder,
    Figure5Encoder,
    make_encoder,
)
from repro.core.peb_tree import PEBTree
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.motion.partitions import TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.workloads.policies import PolicyGenerator
from repro.workloads.queries import QueryGenerator
from repro.workloads.uniform import UniformMovement

S = 1000.0 * 1000.0
T = 1440.0
EVERYWHERE = Rect(0, 1000, 0, 1000)
ALWAYS = TimeInterval(0, 1440)


def policy(owner, tint=ALWAYS, locr=EVERYWHERE):
    return LocationPrivacyPolicy(owner=owner, role="friend", locr=locr, tint=tint)


def chain_store(n=5):
    """u0 - u1 - ... - u(n-1): mutual always-everywhere policies."""
    store = PolicyStore(time_domain=T)
    for u in range(n - 1):
        store.add_policy(policy(u), [u + 1])
        store.add_policy(policy(u + 1), [u])
    return store


def random_store(n_users=120, n_policies=6, theta=0.7, seed=3):
    generator = PolicyGenerator(1000.0, T, random.Random(seed))
    return generator.generate(list(range(n_users)), n_policies, theta)


@pytest.fixture(params=sorted(ENCODERS))
def encoder(request):
    return make_encoder(request.param)


# ----------------------------------------------------------------------
# Shared invariants
# ----------------------------------------------------------------------


def test_registry_contains_two_encoders():
    assert set(ENCODERS) == {"figure5", "bfs"}


def test_make_encoder_unknown_name():
    with pytest.raises(ValueError, match="unknown encoder"):
        make_encoder("zcurve")


def test_every_user_gets_a_value(encoder):
    users = list(range(40))
    store = random_store(n_users=40)
    report = encoder.encode(users, store, S)
    assert set(report.sequence_values) == set(users)


def test_assignment_deterministic(encoder):
    users = list(range(60))
    store = random_store(n_users=60)
    first = encoder.encode(users, store, S).sequence_values
    second = encoder.encode(users, store, S).sequence_values
    assert first == second


def test_values_start_at_initial_sv(encoder):
    users = list(range(30))
    store = random_store(n_users=30)
    report = encoder.encode(users, store, S)
    assert min(report.sequence_values.values()) == pytest.approx(2.0)


def test_unrelated_users_spaced_by_delta(encoder):
    """With no policies at all, users land δ apart in some order."""
    users = [7, 8, 9]
    store = PolicyStore(time_domain=T)
    report = encoder.encode(users, store, S)
    values = sorted(report.sequence_values.values())
    assert values == pytest.approx([2.0, 4.0, 6.0])
    assert report.group_count == 3


def test_related_users_closer_than_delta(encoder):
    """A strongly compatible pair must sit within 1 SV unit."""
    store = PolicyStore(time_domain=T)
    store.add_policy(policy(1), [2])
    store.add_policy(policy(2), [1])
    report = encoder.encode([1, 2, 3], store, S)
    values = report.sequence_values
    assert abs(values[1] - values[2]) <= 1.0
    assert abs(values[3] - values[1]) >= 1.0
    assert abs(values[3] - values[2]) >= 1.0


def test_report_counts(encoder):
    store = chain_store(4)  # 3 related pairs
    report = encoder.encode([0, 1, 2, 3], store, S)
    assert report.related_pair_count == 3
    # Group semantics differ: Figure 5 stars a leader's *direct*
    # neighbours (a 4-chain needs 2 leaders); BFS covers the whole
    # connected component in one group.
    expected_groups = 2 if isinstance(encoder, Figure5Encoder) else 1
    assert report.group_count == expected_groups
    assert report.elapsed_seconds >= 0.0


# ----------------------------------------------------------------------
# Encoder-specific behaviour
# ----------------------------------------------------------------------


def test_figure5_wraps_paper_algorithm():
    users = list(range(50))
    store = random_store(n_users=50)
    wrapped = Figure5Encoder().encode(users, store, S).sequence_values
    direct = assign_sequence_values(users, store, S).sequence_values
    assert wrapped == direct


def test_bfs_keeps_chain_within_group():
    """Figure 5 stars a leader; BFS must walk the whole chain closely."""
    n = 6
    store = chain_store(n)
    report = BFSEncoder().encode(list(range(n)), store, S)
    values = report.sequence_values
    spread = max(values.values()) - min(values.values())
    # Each hop costs 1 - C = 1 - 1.0/2... chain C = (1 + alpha)/2 with
    # alpha = 1 (everywhere/always mutual), so C = 1 and hops are free.
    assert spread <= (n - 1) * 0.5
    assert report.group_count == 1


def test_bfs_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BFSEncoder(initial_sv=0.5)
    with pytest.raises(ValueError):
        BFSEncoder(delta=1.0)


# ----------------------------------------------------------------------
# Query-result neutrality
# ----------------------------------------------------------------------


def build_peb(states, store, page_size=1024):
    grid = Grid(1000.0, 10)
    partitioner = TimePartitioner(120.0, 2)
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity=512)
    tree = PEBTree(pool, grid, partitioner, store)
    for obj in states.values():
        tree.insert(obj)
    return tree


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_prq_results_identical_across_encoders(name):
    """The encoder moves entries around; it must never change answers."""
    n_users = 150
    movement = UniformMovement(1000.0, 3.0, random.Random(5))
    states = {obj.uid: obj for obj in movement.initial_objects(n_users, t=0.0)}
    store = random_store(n_users=n_users, n_policies=8, seed=6)

    report = make_encoder(name).encode(sorted(states), store, S)
    store.set_sequence_values(report.sequence_values)
    tree = build_peb(states, store)

    queries = QueryGenerator(1000.0, random.Random(7)).range_queries(
        sorted(states), 12, 250.0, 0.0
    )
    for query in queries:
        expected = brute_force_prq(
            states, store, query.q_uid, query.window, query.t_query
        )
        answer = prq(tree, query.q_uid, query.window, query.t_query)
        assert answer.uids == expected
