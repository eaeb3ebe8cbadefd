"""Figure 5 on the directory's peer sets against the graph it replaced.

``assign_sequence_values`` takes its group sizes from
``PolicyStore.compatibility_peers`` and evaluates C once per member it
places, in the orientation of the store's edge pass.  The reference,
:func:`graph_figure5`, is the algorithm as it used to run: fold the
whole edge pass into an adjacency, sort by adjacency size, read each
member's degree from the leader's row.  Sequence values must be equal
bit for bit (compared by ``float.hex``), and so must the group and
related-pair counts.

Users are drawn as a random subset of a population wider than the
store's, in random order, so some users hold no policy at all and some
peers a leader places are not among the users.  Zero-area and
zero-duration policies make pairs whose degree is 0.
"""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoders import compatibility_graph
from repro.core.sequencing import (
    DEFAULT_DELTA,
    DEFAULT_INITIAL_SV,
    EncodingReport,
    assign_sequence_values,
)
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.workloads.policies import PolicyGenerator
from tests.test_compatibility_edges_property import REGIONS, S, WINDOWS, build

# ``repro.core`` re-exports the function ``compatibility``, which shadows
# the module of that name as an attribute of the package.
compatibility_module = importlib.import_module("repro.core.compatibility")

#: 100 examples per store type, 600 under ``--hypothesis-profile=deep``.
EXAMPLES = max(100, settings.default.max_examples * 3 // 5)

STORE_USERS = range(7)

POLICY_CALLS = st.lists(
    st.tuples(
        st.sampled_from(STORE_USERS),
        st.lists(st.sampled_from(STORE_USERS), min_size=1, max_size=4),
        REGIONS,
        WINDOWS,
    ),
    max_size=20,
)
# Users 7 and 8 hold no policy; a store user left out is a peer a
# leader may still place.
USERS = st.lists(st.sampled_from(range(9)), unique=True)
SPACING = st.sampled_from([(DEFAULT_INITIAL_SV, DEFAULT_DELTA), (1.5, 3.25)])


def graph_figure5(users, store, space_area, initial_sv, delta):
    """Figure 5 as it ran before the peer sets: lines 1-4 build the graph."""
    groups, pair_count = compatibility_graph(store, space_area)
    ordered = sorted(users, key=lambda uid: -len(groups.get(uid, ())))
    sequence_values = {}
    group_count = 0
    previous_sv = initial_sv - delta
    for uid in ordered:
        if uid not in sequence_values:
            leader_sv = previous_sv + delta
            sequence_values[uid] = leader_sv
            group_count += 1
            for member, degree in groups.get(uid, {}).items():
                if member not in sequence_values:
                    sequence_values[member] = leader_sv + (1.0 - degree)
        previous_sv = sequence_values[uid]
    return EncodingReport(sequence_values, 0.0, group_count, pair_count)


def signature(report):
    return (
        {uid: sv.hex() for uid, sv in report.sequence_values.items()},
        report.group_count,
        report.related_pair_count,
    )


@pytest.mark.parametrize("store_type", [PolicyStore, MultiPolicyStore])
@settings(max_examples=EXAMPLES, deadline=None)
@given(calls=POLICY_CALLS, users=USERS, spacing=SPACING)
def test_figure5_equals_the_graph_driven_reference(store_type, calls, users, spacing):
    store = build(store_type, calls)
    initial_sv, delta = spacing
    shipped = assign_sequence_values(users, store, S, initial_sv, delta)
    reference = graph_figure5(users, store, S, initial_sv, delta)
    assert signature(shipped) == signature(reference)


def test_figure5_compares_only_the_members_it_places(monkeypatch):
    """No edge pass, and Equation 4 once per placed member, nowhere else.

    The generator draws regions of 40-90 % of the side and windows of
    50-100 % of the day, so no policy is weightless and the directory
    alone decides every peer set.
    """
    store = PolicyGenerator(1000.0, 1440.0, random.Random("peers")).generate(
        list(range(200)), 8, 0.7
    )
    calls = {"pair_compatibility": 0, "equation4": 0}

    def no_edge_pass(space_area):
        raise AssertionError("Figure 5 ran the edge pass")

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(store, "compatibility_edges", no_edge_pass)
    monkeypatch.setattr(
        store,
        "pair_compatibility",
        counted("pair_compatibility", store.pair_compatibility),
    )
    monkeypatch.setattr(
        compatibility_module,
        "equation4",
        counted("equation4", compatibility_module.equation4),
    )
    users = list(range(200))
    report = assign_sequence_values(users, store, 1000.0 * 1000.0)
    assert calls["pair_compatibility"] == len(users) - report.group_count > 0
    assert calls["equation4"] == calls["pair_compatibility"]
    assert report.related_pair_count == sum(1 for _ in store.related_pairs())
