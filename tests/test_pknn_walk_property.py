"""Property pin: the PkNN matrix walk against the per-cell reference.

The shipped walk (:meth:`repro.core.pknn._MatrixSearch._walk`) decides an
idle cell by integer comparisons against per-round hulls, drops located
rows, tallies idle pieces from per-round sums, runs the stop test only
where its outcome can change and starts at the first round whose window
meets the space.  :class:`tests.reference_scan.PerCellSearch` is the walk
it replaced: every cell from round 1, one at a time.  Both run the same
cells through ``scan_cell`` against the same scanner, so everything a
search leaves behind must be identical:

* neighbours (uids and distances), ``candidates_examined``, ``rounds``;
* the scanner's ``requests``, ``residency_hits``, ``scan_calls`` and
  ``physical_scans``;
* physical reads, and the virtual clock after the batch;
* on a timed deployment, every verify-CPU charge of the scatter scanner
  (its instant and its candidates) and every landing wait.

Hypothesis draws the world (Z grid, Hilbert grid, a friend whose only
entry sits in a partition no query scans, so its row walks to
``max_rounds``), the deployment (a single tree; 1, 2 or 4 shards, timed
or not; 3 shards under a ``ShardSupervisor``, which hands the search no
residency), the order, ``k`` (0, 1, 5, above the friend list) and query
points inside the space, on its edge and outside it.  Tier-1 draws a few
dozen examples; CI's property step loads the ``deep`` profile.
"""

import importlib
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn
from repro.core.peb_tree import PEBTree
from repro.core.pknn import _MatrixSearch, pknn
from repro.engine import QueryEngine
from repro.fault import BreakerPolicy, RetryPolicy
from repro.shard import ShardedPEBTree
from repro.shard.engine import ShardScatterScanner, VerifyTimeline
from repro.spatial.curves import HILBERT
from repro.spatial.geometry import Rect
from repro.storage import BufferPool, SimulatedDisk
from repro.storage.faults import FaultyDisk
from repro.workloads.queries import KnnQuerySpec

from tests.reference_scan import PerCellSearch
from tests.test_residency_pin import T_QUERY, pin_world

#: The module whose ``_MatrixSearch`` the batch executor looks up per
#: call: swapping it there swaps the walk of every search a batch builds.
PKNN = importlib.import_module("repro.core.pknn")
PAGE_SIZE = 1024
BUFFER_PAGES = 8  # small: searches read pages, so reads can differ
#: One tier-1 example per five of the loaded profile's: 20 by default.
EXAMPLES = max(20, settings.default.max_examples // 5)

WORLDS = {
    "z": pin_world(seed=5),
    "hilbert": pin_world(seed=5, curve=HILBERT),
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
    sharded = ShardedPEBTree.build(
        n_shards,
        world.grid,
        world.partitioner,
        world.store,
        uids=world.uids,
        page_size=PAGE_SIZE,
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
    for uid in world.uids:
        sharded.insert(world.states[uid])
    for pool in sharded.pools:
        pool.clear()
    return sharded


class ChargeLog(VerifyTimeline):
    """The shipped verify timeline, logging the verify CPU's moves."""

    def __init__(self, scatter):
        super().__init__(scatter)
        self.log = []

    def wait_landed(self, resident):
        if self.searching:
            self.log.append(("wait", self.clock.cursor()))
        super().wait_landed(resident)

    def charge_verified(self, examined):
        if self.searching and examined:
            self.log.append(("charge", self.clock.cursor(), examined))
        super().charge_verified(examined)


class SingleEngine(QueryEngine):
    def new_scanner(self):
        self.scanner = super().new_scanner()
        return self.scanner


class ShardEngine(QueryEngine):
    def new_scanner(self):
        self.scanner = ShardScatterScanner(self.tree)
        if self.scanner.timeline is not None:
            self.scanner.timeline = ChargeLog(self.scanner)
        return self.scanner


@contextmanager
def walking(walk, order, searches):
    """Every search a batch builds walks with ``walk`` in ``order``."""

    class Walk(walk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

        def run(self, _order="triangular"):
            return super().run(order)

    saved = PKNN._MatrixSearch
    PKNN._MatrixSearch = Walk
    try:
        yield
    finally:
        PKNN._MatrixSearch = saved


def observe(world, deployment, walk, order, specs):
    """Everything a batch of ``specs`` leaves behind under one walk."""
    kind, n_shards, timed = deployment
    tree = deploy(world, kind, n_shards, timed)
    engine = (SingleEngine if kind == "single" else ShardEngine)(tree)
    reads = tree.stats.physical_reads
    clock = tree.sim_clock
    searches = []
    with walking(walk, order, searches):
        report = engine.execute_batch(specs)
    for search in searches:
        assert len(search._span_cache) <= search._span_cache_capacity
    scanner = engine.scanner
    return {
        "results": [
            (
                [(d, obj.uid) for d, obj in result.neighbors],
                result.candidates_examined,
                result.rounds,
            )
            for result in report.results
        ],
        "scanner": (
            scanner.requests,
            scanner.residency_hits,
            scanner.scan_calls,
            scanner.physical_scans,
        ),
        "reads": tree.stats.physical_reads - reads,
        "clock": None if clock is None else clock.cursor(),
        "verify_cpu": None if scanner.timeline is None else scanner.timeline.log,
        "degraded": report.degraded,
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
def test_walk_equals_the_per_cell_reference(world_name, deployment, order, drawn):
    world = WORLDS[world_name]
    specs = []
    for issuer, where, fx, fy, far, k in drawn:
        q_uid = world.uids[issuer]
        if k == "above":
            k = len(world.store.friend_list(q_uid)) + 3
        qx, qy = query_point(world, where, fx, fy, far)
        specs.append(KnnQuerySpec(q_uid, qx, qy, k, T_QUERY))
    got = observe(world, deployment, _MatrixSearch, order, specs)
    expected = observe(world, deployment, PerCellSearch, order, specs)
    assert got == expected


@pytest.mark.parametrize("deployment", [DEPLOYMENTS[0], DEPLOYMENTS[6]])
@pytest.mark.parametrize("order", ("triangular", "column"))
@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_walk_equals_the_per_cell_reference_on_query_streams(
    world_name, order, deployment
):
    """Where most searches are asked: issuers' own positions inside the
    space, ``k`` 1 to 6, a batch of them sharing one scanner — so the
    stop test fires at a sweep's first cell and after later ones, and
    rows are left idle, acting and located in every mix."""
    world = WORLDS[world_name]
    generator = world.query_generator()
    specs = [
        spec
        for k in (1, 2, 4, 6)
        for spec in generator.knn_queries(world.states, 6, k, T_QUERY)
    ]
    got = observe(world, deployment, _MatrixSearch, order, specs)
    assert got == observe(world, deployment, PerCellSearch, order, specs)


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
    result = pknn(world.peb, issuer, 1e7, 1e7, 5, T_QUERY)
    assert time.perf_counter() - start < 1.0
    assert [round(d, 9) for d, _ in result.neighbors] == [
        round(d, 9) for d, _ in answers[issuer]
    ]
    assert len(result.neighbors) == 5


@pytest.mark.parametrize("deployment", [DEPLOYMENTS[0], DEPLOYMENTS[6]])
@pytest.mark.parametrize("order", ("triangular", "column"))
def test_far_outside_query_matches_the_per_cell_reference(deployment, order):
    """From (1e4, 500) the reference walks 533 rounds of empty cells
    first; the shipped walk skips them with every counter unchanged."""
    world = WORLDS["z"]
    specs = [KnnQuerySpec(uid, 1e4, 500.0, 5, T_QUERY) for uid in world.uids[:3]]
    got = observe(world, deployment, _MatrixSearch, order, specs)
    assert got == observe(world, deployment, PerCellSearch, order, specs)
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
