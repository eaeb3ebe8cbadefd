"""The store's edge pass against the pair-at-a-time path it replaced.

``PolicyStore.compatibility_edges`` walks the directory once, validates
S and T once and computes a policy's one-way weight once per policy
object; ``related_pairs()`` followed by ``pair_compatibility()`` per pair
is the reference.  The degrees must be ``==``, not close: the BFS
encoder reads every one of them, and Figure 5 reads a placed member's
degree through ``pair_compatibility`` in the pass's orientation, so
every sequence value, PEB-key and page image downstream is a function
of them.  ``compatibility_peers``, which Figure 5 sizes its groups by,
must name exactly the pairs the pass yields.

The stores are small and drawn from a handful of regions and windows on
purpose: one-way and mutual pairs, time windows that wrap midnight,
regions and windows that touch without overlapping, and policies of zero
area or zero duration (whose pairs have ``C == 0`` and must be absent)
all turn up within a few draws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect

S = 1000.0 * 1000.0
T = 1440.0
USERS = range(4)

REGIONS = st.sampled_from(
    [
        Rect(0.0, 1000.0, 0.0, 1000.0),
        Rect(0.0, 500.1, 0.0, 1000.0),
        Rect(500.1, 1000.0, 0.0, 1000.0),  # touches the one before
        Rect(171.7, 733.3, 33.3, 500.1),
        Rect(33.3, 171.7, 171.7, 171.7),  # zero height
    ]
)
WINDOWS = st.sampled_from(
    [
        TimeInterval(0.0, T),
        TimeInterval(287.3, 600.0),
        TimeInterval(600.0, 1111.1),  # touches the one before
        TimeSet([TimeInterval(1111.1, T), TimeInterval(0.0, 333.3)]),  # wraps
        TimeSet([TimeInterval(1300.0, T), TimeInterval(0.0, 287.3)]),
        TimeInterval(600.0, 600.0),  # zero duration
    ]
)

POLICY_CALLS = st.lists(
    st.tuples(
        st.sampled_from(USERS),
        st.lists(st.sampled_from(USERS), min_size=1, max_size=3),
        REGIONS,
        WINDOWS,
    ),
    max_size=12,
)


def build(store_type, calls):
    store = store_type(time_domain=T)
    for owner, members, locr, tint in calls:
        policy = LocationPrivacyPolicy(owner=owner, role="friend", locr=locr, tint=tint)
        try:
            store.add_policy(policy, members)
        except ValueError:
            pass  # a self-policy or a duplicate pair: rejected whole
    return store


@pytest.mark.parametrize("store_type", [PolicyStore, MultiPolicyStore])
@settings(max_examples=150, deadline=None)
@given(calls=POLICY_CALLS)
def test_edge_pass_equals_pair_at_a_time(store_type, calls):
    store = build(store_type, calls)

    pairs = list(store.related_pairs())
    assert len(pairs) == len(set(pairs))
    assert all(u < v for u, v in pairs)
    assert set(pairs) == {
        (min(owner, viewer), max(owner, viewer))
        for viewer in USERS
        for owner in store.owners_granting(viewer)
    }

    expected = {}
    for u, v in pairs:
        degree = store.pair_compatibility(u, v, S).degree
        if degree > 0.0:
            expected[(u, v)] = degree
    edges = list(store.compatibility_edges(S))
    assert len(edges) == len(expected)
    assert {(u, v): degree for u, v, degree in edges} == expected


@pytest.mark.parametrize("store_type", [PolicyStore, MultiPolicyStore])
@settings(max_examples=150, deadline=None)
@given(calls=POLICY_CALLS)
def test_peers_are_the_pairs_of_the_edge_pass(store_type, calls):
    store = build(store_type, calls)
    expected = {user: set() for user in USERS}
    for u, v, _ in store.compatibility_edges(S):
        expected[u].add(v)
        expected[v].add(u)
    peers = store.compatibility_peers(S)
    assert {user: peers.get(user, set()) for user in USERS} == expected
    assert set(peers) <= set(USERS)


@pytest.mark.parametrize("store_type", [PolicyStore, MultiPolicyStore])
def test_edge_pass_rejects_a_domain_it_cannot_divide_by(store_type):
    store = build(store_type, [(0, [1], Rect(0, 10, 0, 10), TimeInterval(0, 60))])
    with pytest.raises(ValueError):
        list(store.compatibility_edges(0.0))


def test_base_edge_pass_validates_up_front_not_per_pair():
    with pytest.raises(ValueError):
        list(PolicyStore(time_domain=T).compatibility_edges(-1.0))
