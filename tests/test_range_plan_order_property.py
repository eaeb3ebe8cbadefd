"""Property pin: testing the live cell first changes no range plan.

``QueryPlanner.plan_range`` tests each owner of the issuer's policy row
against its live cell first and resolves the policies of only the
owners whose cell can reach the window.  Both tests are exact, so the
plan must be the one the policy-first order builds
(``tests/reference_plan.py``'s ``PolicyFirstPlanner``: the whole
visibility map over the window, then each owner's live key decomposed,
its cell decoded and the key composed again): the same ``(live key,
uid)`` pairs, pair for pair and in the same order, and the map of the
policy-first plan restricted to the owners it plans.  Through the public adapters
(``prq``, ``pcount``) and a batch (``execute_batch``), the answers and
``candidates_examined`` must be equal, and the answers the oracle's
(``repro.bench.oracle.brute_force_prq``), on one tree and on 1 and 4
shards, with ``PolicyStore`` and ``MultiPolicyStore``.

The worlds lean on what the order could change:

* raw-tie twins on one cell: a twin reports whatever its original
  reports and takes its original's raw SV (Figure 5 gives tied members
  one), so both live at one key and a band at either returns both rows.
  A twin either copies its original's policies or draws its own, so the
  policies can admit both, one or neither;
* a second wave of reports, so live keys move cell and partition after
  the build;
* the edges of ``tests/test_policy_aware_planning.py``'s draws: windows
  and regions touching, of zero width or height, time windows that
  wrap, ``t_query`` at 0, ``T``, ``k·T`` and just below ``T``; and
  windows overhanging the space or lying outside it, whose boxes clamp
  to its edge cells.

A scratch mutant that bands every owner whose cell reaches the window,
whether or not a policy admits it (the plan's friends taken from the
cell test alone), fails it: in under 2 s with shrinking off, and in
about 3 minutes with the shrink.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_prq
from repro.core.aggregate import pcount
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.engine import QueryEngine
from repro.engine.plan import QueryPlanner
from repro.motion import MovingObject
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.spatial.geometry import Rect
from repro.workloads.queries import RangeQuerySpec

from tests.reference_plan import PolicyFirstEngine, PolicyFirstPlanner, policy_first
from tests.test_policy_aware_planning import (
    EDGES,
    N_USERS,
    REGIONS,
    SIDE,
    T,
    T_QUERIES,
    TINTS,
    WINDOWS,
    build_tree,
)

#: ``twin -> original``.
TWINS = {N_USERS - 1: 1, N_USERS - 2: 2, N_USERS - 3: 5, N_USERS - 4: 5}
ORIGINALS = [uid for uid in range(N_USERS) if uid not in TWINS]
#: A window overhanging two sides of the space, and one wholly outside it.
OUTSIDE = [Rect(-200.0, 300.0, 700.0, 1300.0), Rect(1100.0, 1400.0, 0.0, 400.0)]
#: 25 examples a deployment and store by default, 200 under
#: ``--hypothesis-profile=deep``.
EXAMPLES = max(25, settings.default.max_examples // 5)

POLICY_CALLS = st.lists(
    st.tuples(
        st.integers(0, N_USERS - 1),
        st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=16),
        st.sampled_from(REGIONS),
        st.sampled_from(TINTS),
    ),
    min_size=30,
    max_size=90,
)


def build_store(store_type, calls, copied):
    """The drawn policies; each twin in ``copied`` instead holds its
    original's (members included), and every twin takes its original's
    raw SV."""
    calls = [call for call in calls if call[0] not in copied]
    for twin in copied:
        original = TWINS[twin]
        calls += [
            (twin, [original if uid == twin else uid for uid in members], locr, tint)
            for owner, members, locr, tint in calls
            if owner == original
        ]
    store = store_type(time_domain=T)
    for owner, members, locr, tint in calls:
        policy = LocationPrivacyPolicy(owner=owner, role="friend", locr=locr, tint=tint)
        try:
            store.add_policy(policy, members)
        except ValueError:
            pass  # a self-policy or a duplicate pair: rejected whole
    sequence = assign_sequence_values(list(range(N_USERS)), store, SIDE * SIDE)
    values = dict(sequence.sequence_values)
    for twin, original in TWINS.items():
        values[twin] = values[original]
    store.set_sequence_values(values)
    return store


def report(rng, uid, t_update):
    """A state reported at ``t_update``: half of them standing still on
    an edge in x or y, the rest moving from anywhere in the space."""
    x, y = rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE)
    vx = vy = 0.0
    roll = rng.random()
    if roll < 0.25:
        x = rng.choice(EDGES)
    elif roll < 0.5:
        y = rng.choice(EDGES)
    else:
        vx, vy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    return MovingObject(uid, x, y, vx, vy, t_update)


def twinned(states):
    """``states`` plus the twin of each original in it, reporting alike."""
    out = dict(states)
    for twin, original in TWINS.items():
        if original in states:
            obj = states[original]
            out[twin] = MovingObject(twin, obj.x, obj.y, obj.vx, obj.vy, obj.t_update)
    return out


def history(seed, t_query, movers):
    """Every user reports once between 110 and 60 before ``t_query``
    (never before 0), and ``movers`` of them again within the last 59:
    ``(first reports, second reports)``, twins alongside originals."""
    rng = random.Random(seed)
    first = twinned(
        {
            uid: report(rng, uid, max(0.0, t_query - rng.uniform(60.0, 110.0)))
            for uid in ORIGINALS
        }
    )
    second = twinned(
        {
            uid: report(rng, uid, max(0.0, t_query - rng.uniform(0.0, 59.0)))
            for uid in rng.sample(ORIGINALS, movers)
        }
    )
    return first, second


@pytest.mark.parametrize("n_shards", (None, 1, 4))
@pytest.mark.parametrize("store_type", (PolicyStore, MultiPolicyStore))
@settings(max_examples=EXAMPLES, deadline=None)
@given(
    calls=POLICY_CALLS,
    copied=st.sets(st.sampled_from(sorted(TWINS))),
    seed=st.integers(0, 2**16),
    t_query=st.sampled_from(T_QUERIES),
    movers=st.integers(0, len(ORIGINALS)),
    queries=st.lists(
        st.tuples(
            st.sampled_from([1, 2, 5, *TWINS] + list(range(N_USERS))),
            st.sampled_from(WINDOWS + OUTSIDE),
            st.sampled_from((None, 1, 2)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_cell_first_plan_equals_the_policy_first_plan(
    n_shards, store_type, calls, copied, seed, t_query, movers, queries
):
    store = build_store(store_type, calls, copied)
    first, second = history(seed, t_query, movers)
    tree = build_tree(store, first, n_shards)
    for uid in sorted(second):
        tree.update(second[uid])
    states = {**first, **second}
    shipped, reference = QueryPlanner(tree), PolicyFirstPlanner(tree)

    specs = []
    for q_uid, window, at_least in queries:
        plan = shipped.plan_range(q_uid, window, t_query)
        expected = reference.plan_range(q_uid, window, t_query)
        assert plan.bands == expected.bands
        banded = {uid for _, uid in expected.bands}
        assert plan.visible == {
            uid: regions for uid, regions in expected.visible.items() if uid in banded
        }

        got = prq(tree, q_uid, window, t_query)
        with policy_first():
            want = prq(tree, q_uid, window, t_query)
        assert got.uids == want.uids == brute_force_prq(
            states, store, q_uid, window, t_query
        )
        assert got.candidates_examined == want.candidates_examined

        got = pcount(tree, q_uid, window, t_query, at_least)
        with policy_first():
            want = pcount(tree, q_uid, window, t_query, at_least)
        assert (got.count, got.terminated_early, got.candidates_examined) == (
            want.count,
            want.terminated_early,
            want.candidates_examined,
        )
        specs.append(RangeQuerySpec(q_uid, window, t_query))

    got = QueryEngine(tree).execute_batch(specs)
    want = PolicyFirstEngine(tree).execute_batch(specs)
    assert [r.uids for r in got.results] == [r.uids for r in want.results]
    assert [r.candidates_examined for r in got.results] == [
        r.candidates_examined for r in want.results
    ]
    assert got.stats.candidates_examined == want.stats.candidates_examined
    assert got.stats.bands_requested == want.stats.bands_requested
