"""Property pin: the PkNN matrix walk against the oracle and the per-band
reference scanner.

The Section 5.4 walk (:func:`repro.core.pknn.pknn_walk`, whose search is
:meth:`repro.core.pknn._MatrixSearch.run`) visits the matrix one cell
at a time, from the first round whose window meets the space, answering
each annulus piece from its stratum's residency where a fence proof
covers it.  Several searches share one scanner here, which is either
the shipped one or :class:`tests.reference_scan.ReferenceScanner` (per
shard, :func:`tests.reference_scan.reference_scatter`): entry-at-a-time
decoding, no proofs beyond the interval asked.  For every search:

* the neighbours' ``(round(d, 9), uid)`` list equals
  :func:`repro.bench.oracle.brute_force_pknn`'s;
* neighbours, ``candidates_examined`` and ``rounds`` equal the
  reference's, and so does the scanner's ``requests``;
* the reference reaches the tree at least as often
  (``physical_scans``).

Hypothesis draws the world (Z grid, Hilbert grid, a friend whose only
entry sits in a partition no query scans, so its row walks to
``max_rounds``), the deployment (a single tree; 1, 2 or 4 shards, timed
or not; 3 shards under a ``ShardSupervisor``, which hands the search no
residency), the order, ``k`` (0, 1, 5, above the friend list) and query
points inside the space, on its edge and outside it.  Tier-1 draws a few
dozen examples; CI's property step loads the ``deep`` profile.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn
from repro.core.peb_tree import PEBTree
from repro.core.pknn import _MatrixSearch, pknn_walk
from repro.fault import BreakerPolicy, RetryPolicy
from repro.spatial.geometry import Rect
from repro.storage import BufferPool, SimulatedDisk
from repro.storage.faults import FaultyDisk
from repro.workloads.queries import KnnQuerySpec

from tests.reference_scan import ReferenceScanner, reference_scatter
from tests.test_residency_pin import T_QUERY, pin_world

PAGE_SIZE = 1024
BUFFER_PAGES = 8  # small: the searches read pages
#: One tier-1 example per five of the loaded profile's: 20 by default.
EXAMPLES = max(20, settings.default.max_examples // 5)

WORLDS = {
    "z": pin_world(seed=5),
    "hilbert": pin_world(seed=5, curve="hilbert"),
    # Reported at t = 100: label 180, partition 2 — not live at T_QUERY.
    "expired-entry": pin_world(
        seed=31, reported_at=lambda uid: 0.0 if uid % 7 else 100.0
    ),
}
DEPLOYMENTS = (
    ("single", 0, False),
    ("shards", 1, False),
    ("shards", 2, False),
    ("shards", 4, False),
    ("shards", 1, True),
    ("shards", 2, True),
    ("shards", 4, True),
    ("supervised", 3, True),
)


def deploy(world, kind, n_shards, timed):
    if kind == "single":
        pool = BufferPool(SimulatedDisk(page_size=PAGE_SIZE), capacity=BUFFER_PAGES)
        tree = PEBTree(pool, world.grid, world.partitioner, world.store)
        for uid in world.uids:
            tree.insert(world.states[uid])
        pool.clear()
        return tree
    supervised = kind == "supervised"
    sharded = world.deploy(
        n_shards,
        buffer_pages=BUFFER_PAGES,
        latency="ssd" if timed else None,
        disk_factory=(lambda shard: FaultyDisk(page_size=PAGE_SIZE))
        if supervised
        else None,
        fault_policy=RetryPolicy(max_attempts=3, base_backoff_us=0.0)
        if supervised
        else None,
        breaker_policy=BreakerPolicy() if supervised else None,
    )
    for pool in sharded.pools:
        pool.clear()
    return sharded


def new_scanner(tree, reference):
    if not reference:
        return tree.new_scanner()
    return ReferenceScanner(tree) if isinstance(tree, PEBTree) else reference_scatter(tree)


def observe(world, deployment, order, specs, reference=False):
    """What the walk leaves behind running ``specs`` in ``order`` on one
    shared scanner: per search its signature, then the scanner's
    ``requests`` and ``physical_scans``."""
    kind, n_shards, timed = deployment
    tree = deploy(world, kind, n_shards, timed)
    scanner = new_scanner(tree, reference)
    results = []
    for spec in specs:
        search = _MatrixSearch(
            tree, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query, scanner=scanner
        )
        result = search.run(order)
        assert len(search._span_cache) <= search._span_cache_capacity
        results.append(
            (
                [(round(d, 9), obj.uid) for d, obj in result.neighbors],
                result.candidates_examined,
                result.rounds,
            )
        )
    return results, scanner.requests, scanner.physical_scans


def check_walk(world, deployment, order, specs):
    """The shipped walk answers the oracle and counts as the reference."""
    got, requests, scans = observe(world, deployment, order, specs)
    expected, reference_requests, reference_scans = observe(
        world, deployment, order, specs, reference=True
    )
    assert got == expected
    assert requests == reference_requests
    assert scans <= reference_scans
    for spec, (neighbors, _, _) in zip(specs, got):
        oracle = brute_force_pknn(
            indexed_states(world, spec.t_query),
            world.store,
            spec.q_uid,
            spec.qx,
            spec.qy,
            spec.k,
            spec.t_query,
        )
        assert sorted(neighbors) == [(round(d, 9), uid) for d, uid in oracle], spec


def indexed_states(world, t_query):
    """The states whose entry sits in a partition live at ``t_query``
    (the expired-entry world parks a seventh of its users in one that
    is not, where no search looks)."""
    partitioner = world.partitioner
    live = set(partitioner.live_labels(t_query))
    return {
        uid: obj
        for uid, obj in world.states.items()
        if partitioner.label_timestamp(obj.t_update) in live
    }


def query_point(world, where, fx, fy, far):
    """A point inside the space, on its edge, or ``far`` beyond one side
    (and, for half the draws, beyond a second one: a corner)."""
    side = world.space_side
    if where == "inside":
        return fx * side, fy * side
    if where == "edge":
        return (0.0 if fx < 0.5 else side), fy * side
    x = -far if fx < 0.5 else side + far
    return x, fy * side if fy < 0.5 else side + far * fy


SPEC = st.tuples(
    st.integers(0, len(WORLDS["z"].uids) - 1),
    st.sampled_from(("inside", "inside", "edge", "outside")),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((1.0, 300.0, 5000.0)),
    st.sampled_from((0, 1, 5, "above")),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    world_name=st.sampled_from(sorted(WORLDS)),
    deployment=st.sampled_from(DEPLOYMENTS),
    order=st.sampled_from(("triangular", "column")),
    drawn=st.lists(SPEC, min_size=1, max_size=3),
)
def test_walk_answers_the_oracle_and_counts_as_the_reference(
    world_name, deployment, order, drawn
):
    world = WORLDS[world_name]
    specs = []
    for issuer, where, fx, fy, far, k in drawn:
        q_uid = world.uids[issuer]
        if k == "above":
            k = len(world.store.friend_list(q_uid)) + 3
        qx, qy = query_point(world, where, fx, fy, far)
        specs.append(KnnQuerySpec(q_uid, qx, qy, k, T_QUERY))
    check_walk(world, deployment, order, specs)


@pytest.mark.parametrize("deployment", [DEPLOYMENTS[0], DEPLOYMENTS[6]])
@pytest.mark.parametrize("order", ("triangular", "column"))
@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_walk_answers_the_oracle_and_counts_as_the_reference_on_query_streams(
    world_name, order, deployment
):
    """Where most searches are asked: issuers' own positions inside the
    space, ``k`` 1 to 6, a batch of them sharing one scanner — so the
    stop test fires at an anti-diagonal's first cell and after later
    ones, and rows are left empty, scanned and located in every mix."""
    world = WORLDS[world_name]
    generator = world.query_generator()
    specs = [
        spec
        for k in (1, 2, 4, 6)
        for spec in generator.knn_queries(world.states, 6, k, T_QUERY)
    ]
    check_walk(world, deployment, order, specs)


def test_a_row_walks_to_max_rounds():
    """The expired-entry world really has a row that is never located,
    so a search with ``k`` above its friend list walks every round."""
    world = WORLDS["expired-entry"]
    walked = []
    for q_uid in world.uids[:40]:
        k = len(world.store.friend_list(q_uid)) + 3
        search = _MatrixSearch(world.peb, q_uid, 500.0, 500.0, k, T_QUERY)
        result = search.run()
        walked.append(result.rounds == search.max_rounds)
    assert any(walked)


# ----------------------------------------------------------------------
# Far outside the space
# ----------------------------------------------------------------------


def test_far_outside_query_starts_where_the_space_begins():
    """Every round before the window first meets the space has nothing to
    scan, tally or stop on: the walk starts at that round, so a query from
    (1e7, 1e7) costs a bisection instead of ~6e5 empty diagonals, and still
    returns the oracle's answer."""
    world = WORLDS["z"]
    answers = {
        uid: brute_force_pknn(world.states, world.store, uid, 1e7, 1e7, 5, T_QUERY)
        for uid in world.uids[:20]
    }
    issuer = max(answers, key=lambda uid: len(answers[uid]))
    start = time.perf_counter()
    result = pknn_walk(world.peb, issuer, 1e7, 1e7, 5, T_QUERY)
    assert time.perf_counter() - start < 1.0
    assert [round(d, 9) for d, _ in result.neighbors] == [
        round(d, 9) for d, _ in answers[issuer]
    ]
    assert len(result.neighbors) == 5


@pytest.mark.parametrize("deployment", [DEPLOYMENTS[0], DEPLOYMENTS[6]])
@pytest.mark.parametrize("order", ("triangular", "column"))
def test_far_outside_query_matches_the_reference(deployment, order):
    """From (1e4, 500) the first 533 rounds' windows miss the space; the
    walk starts at round 534 and answers as the oracle does."""
    world = WORLDS["z"]
    specs = [KnnQuerySpec(uid, 1e4, 500.0, 5, T_QUERY) for uid in world.uids[:3]]
    check_walk(world, deployment, order, specs)
    search = _MatrixSearch(world.peb, specs[0].q_uid, 1e4, 500.0, 5, T_QUERY)
    assert search._first_round() == 534


def test_round_windows_are_the_rect_spelling():
    """A round's window is computed on bare bounds with the same float
    operations as ``Rect.from_center(...).expanded(dx, dy)``."""
    world = WORLDS["hilbert"]
    for qx, qy in ((500.0, 500.0), (0.0, 999.5), (-40.0, 1e4), (1e4, 1e4)):
        search = _MatrixSearch(world.peb, world.uids[0], qx, qy, 5, T_QUERY)
        for round_index in (1, 2, 7, 60, search.max_rounds):
            square = Rect.from_center(qx, qy, round_index * search.rq)
            assert search._window_spans(round_index) == [
                world.grid.z_span(context.enlarged(square))
                for context in search.contexts
            ]
