"""Property pin for the verify CPU's priced schedule.

On a timed deployment the scatter scanner prices every query's
verification key by key on one CPU timeline — a range plan's keys and
a kNN spec's alike: a key's rows may be verified once the last fetched
key of its *stratum* has landed (``BandRows.landed``, stamped by the
shard job's key multi-get).  A served plan holds at most one key per
friend, in key order (pinned by ``test_range_plan_soundness_property.py``
and ``test_knn_plan_soundness_property.py``), so no key of a query
waits for another.  Results never depended on that schedule, so before
this file nothing pinned it.  Hypothesis draws 1/2/4 shards, batches
whose issuers differ in ``t_query`` (so they walk the partitions in
different order), range + kNN mixes, and a transient
``FaultWindowSchedule`` under a ``ShardSupervisor``; every example
checks

(a) **feasibility** — every verified key of every spec is an item;
    every item starts at or after the instant its stratum's last
    fetched key really landed (read off the multi-get by a spy, not off
    the stamp); Σ item cost equals Σ ``candidates_examined × verify_us``
    over all specs; and the batch ends at ``max(join, pipeline end)``,
    inside ``[max(shard_ends), serial_end]`` — the upper end is the
    serial-after-the-join schedule;
(b) **the execution exists** — re-running each query's verification in
    the priced order, over rows from ``tests/reference_scan.py``,
    examines per key what was booked and yields the query's ``uids``
    (a range spec) or k nearest (a kNN spec) and
    ``candidates_examined``;
(c) **timing only** — results, counters and physical reads equal the
    serial-after-the-join schedule (:class:`SerialScatter`) and an
    untimed clone.

Two mutants must fail it (each checked on a scratch copy, each failing
within 30 s under ``pytest -x``): stamping at job start
(``clock.cursor()`` read before ``BandScanner.prefetch``'s fetch loop
instead of after each key) fails (a) everywhere; and leaving a kNN
spec's keys unbooked (``run_range_plan`` booking only plans with a
window) fails (a)'s Σ-cost clause on any batch with a kNN spec that
verifies a candidate.

Each drawn deployment shape is built once (:func:`deploy` keeps its
pickled image) and every example gets a fresh copy, so a failing example
shrinks in seconds rather than re-deploying three worlds per step; and
the explain phase, which re-runs a shrunk failure hundreds of times only
to annotate which of its arguments could vary, is skipped.  Generation
and shrinking are hypothesis's own.
"""

import io
import pickle

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.engine import BandScanner, QueryEngine, UpdatePipeline
from repro.engine.verify import CandidateVerifier
from repro.fault import BreakerPolicy, RetryPolicy
from repro.shard.engine import ShardScatterScanner, VerifyTimeline
from repro.spatial.geometry import Rect, euclidean
from repro.storage.faults import FaultWindowSchedule, FaultyDisk
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world
from tests.reference_scan import reference_scatter

PAGE_SIZE = 1024
WORLD = build_world(n_users=160, n_policies=8, seed=17)
#: Crosses a partition rollover, so rows live in more than one partition.
STREAM = WORLD.query_generator().update_stream(WORLD.states, 110, 3.0, 0.0, 130.0)
#: Issuers at these instants walk the three partition ids in different order.
T_QUERIES = (130.0, 190.0)
#: Backoffs sum past any drawn window long before the attempts run out.
RETRY = RetryPolicy(max_attempts=12, base_backoff_us=50.0)
EPS = 1e-6


#: What every copy shares with the world instead of copying.
SHARED = (WORLD.store, WORLD.grid, WORLD.partitioner)
#: Pickled images of the built deployments, by shape.
BUILT = {}


class SharingPickler(pickle.Pickler):
    def persistent_id(self, obj):
        for index, part in enumerate(SHARED):
            if obj is part:
                return index
        return None


class SharingUnpickler(pickle.Unpickler):
    def persistent_load(self, index):
        return SHARED[index]


def deploy(n_shards, timed, supervised=False):
    """A fresh copy of the shape's deployment, built on first use."""
    shape = (n_shards, timed, supervised)
    if shape not in BUILT:
        image = io.BytesIO()
        SharingPickler(image).dump(build(*shape))
        BUILT[shape] = image.getvalue()
    return SharingUnpickler(io.BytesIO(BUILT[shape])).load()


def build(n_shards, timed, supervised):
    sharded = WORLD.deploy(
        n_shards,
        buffer_pages=8,  # small: the prefetch sweeps do physical reads
        latency="ssd" if timed else None,
        disk_factory=(lambda shard: FaultyDisk(page_size=PAGE_SIZE))
        if supervised
        else None,
        fault_policy=RETRY if supervised else None,
        breaker_policy=BreakerPolicy() if supervised else None,
    )
    with UpdatePipeline(sharded, capacity=64) as pipeline:
        pipeline.extend(STREAM)
    for pool in sharded.pools:
        pool.clear()
    return sharded


def open_fault_window(sharded, offset_us, width_us):
    """Every shard's reads fail while its job's cursor is in the window."""
    clock = sharded.sim_clock
    start = clock.cursor() + offset_us
    schedule = FaultWindowSchedule(clock, start, start + width_us, kinds=("read",))
    for tree in sharded.trees:
        disk = tree.btree.pool.disk
        while hasattr(disk, "inner"):
            disk = disk.inner
        disk.heal()
        disk.schedule = schedule


class FetchSpy:
    """A shard tree whose key multi-get reports when each stratum's
    last fetched key landed."""

    def __init__(self, tree, clock, landings):
        self._tree = tree
        self._clock = clock
        self._landings = landings

    def __getattr__(self, name):  # on-demand scans go straight through
        return getattr(self._tree, name)

    def get_many(self, keys):
        keys = list(keys)
        decompose = self._tree.codec.decompose
        for key, rows in zip(keys, self._tree.get_many(keys)):
            self._landings[decompose(key)[:2]] = self._clock.cursor()
            yield rows


class RecordingTimeline(VerifyTimeline):
    """The shipped verify timeline, remembering who booked what."""

    def __init__(self, scatter):
        super().__init__(scatter)
        self.scatter = scatter
        self.query = 0  # queries closed so far, in replay order
        self.bookings = []  # (query, key, examined, index in verify_items)

    def book_verified(self, rows, examined):
        index = len(self.verify_items)
        super().book_verified(rows, examined)
        booked = len(self.verify_items) > index
        key = self.scatter.last_key  # the key replay just fetched
        self.bookings.append((self.query, key, examined, index if booked else None))

    def end_query(self):
        self.query += 1
        return super().end_query()


class RecordingScatter(ShardScatterScanner):
    """The shipped scatter scanner over spied shard trees, pricing on a
    :class:`RecordingTimeline`."""

    def __init__(self, sharded):
        super().__init__(sharded)
        self.landings = {}
        self.scanners = [
            BandScanner(FetchSpy(tree, sharded.sim_clock, self.landings))
            for tree in sharded.trees
        ]
        self.timeline = RecordingTimeline(self)

    def fetch(self, key):
        self.last_key = key
        return super().fetch(key)


class SerialTimeline(VerifyTimeline):
    """Verification serial, after the join: nothing is booked, so each
    query's candidates are charged on the worker's cursor as it replays."""

    def book_verified(self, rows, examined):
        pass


class SerialScatter(ShardScatterScanner):
    """The shipped scatter scanner pricing on a :class:`SerialTimeline`."""

    def __init__(self, sharded):
        super().__init__(sharded)
        self.timeline = SerialTimeline(self)


class OnDemandScatter(ShardScatterScanner):
    """Nothing prefetched, so no rows are stamped: every key is
    fetched on demand."""

    def prefetch(self, keys):
        pass


class OnDemandSerialScatter(OnDemandScatter, SerialScatter):
    pass


class EngineOn(QueryEngine):
    """The engine reading through a test-local scatter scanner class
    (the deployment's own without one); the last one it built is
    :attr:`scatter`."""

    def __init__(self, tree, scatter_class=None):
        super().__init__(tree)
        self.scatter_class = scatter_class

    def new_scanner(self):
        if self.scatter_class is None:
            return super().new_scanner()
        self.scatter = self.scatter_class(self.tree)
        return self.scatter


def price(items, verify_us):
    """One CPU over ``(ready, examined)`` items in ready order.

    Returns the processing order and each item's ``(start, end)``.
    """
    order = sorted(range(len(items)), key=lambda i: items[i][0])
    spans = [None] * len(items)
    cursor = float("-inf")
    for i in order:
        ready, examined = items[i]
        start = max(cursor, ready)
        cursor = start + examined * verify_us
        spans[i] = (start, cursor)
    return order, spans


def answers(report):
    return [
        (
            [(round(d, 9), obj.uid) for d, obj in result.neighbors]
            if hasattr(result, "neighbors")
            else result.uids,
            result.candidates_examined,
        )
        for result in report.results
    ]


def counters(report):
    stats = report.stats
    return (
        stats.bands_requested,
        stats.bands_scanned,
        stats.bands_deduped,
        stats.candidates_examined,
        stats.physical_reads,
        stats.entries_prefetched,
    )


QUERY = st.tuples(
    st.sampled_from(("range", "range", "knn")),
    st.integers(0, len(WORLD.uids) - 1),
    st.sampled_from(T_QUERIES),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((180.0, 320.0, 520.0)),
    st.integers(1, 4),
)


def make_spec(kind, issuer, t_query, fx, fy, side, k):
    q_uid = WORLD.uids[issuer]
    if kind == "knn":
        return KnnQuerySpec(
            q_uid=q_uid,
            qx=fx * WORLD.space_side,
            qy=fy * WORLD.space_side,
            k=k,
            t_query=t_query,
        )
    x_lo = fx * (WORLD.space_side - side)
    y_lo = fy * (WORLD.space_side - side)
    return RangeQuerySpec(
        q_uid=q_uid, window=Rect(x_lo, x_lo + side, y_lo, y_lo + side), t_query=t_query
    )


@settings(
    max_examples=30,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
@given(
    n_shards=st.sampled_from((1, 2, 4)),
    queries=st.lists(QUERY, min_size=1, max_size=8),
    window=st.none() | st.tuples(st.floats(0.0, 600.0), st.floats(1.0, 400.0)),
)
def test_priced_schedule_is_feasible_and_describes_the_execution(
    n_shards, queries, window
):
    specs = [make_spec(*query) for query in queries]
    faulty = window is not None

    pipelined = deploy(n_shards, timed=True, supervised=faulty)
    serial = deploy(n_shards, timed=True, supervised=faulty)
    untimed = deploy(n_shards, timed=False)
    if faulty:
        open_fault_window(pipelined, *window)
        open_fault_window(serial, *window)
    clock = pipelined.sim_clock
    verify_us = pipelined.latency_model.verify_us
    t0 = clock.cursor()
    assert serial.sim_clock.cursor() == t0

    engine = EngineOn(pipelined, RecordingScatter)
    report = engine.execute_batch(specs)
    serial_engine = EngineOn(serial, SerialScatter)
    serial_report = serial_engine.execute_batch(specs)
    untimed_report = EngineOn(untimed).execute_batch(specs)
    scatter = engine.scatter
    timeline = scatter.timeline
    items = timeline.verify_items
    order, spans = price(items, verify_us)

    # (c) Timing only.
    assert answers(report) == answers(serial_report) == answers(untimed_report)
    assert report.degraded == [False] * len(specs)
    if faulty:
        assert pipelined.supervisor.stats.exhausted == 0
        assert serial.supervisor.stats.exhausted == 0
    else:
        assert counters(report) == counters(serial_report) == counters(untimed_report)

    # (a) Every fetched key's rows carry the instant the last key of its
    # stratum landed — and no residency row carries a stamp.
    decompose = pipelined.codec.decompose
    for scanner in scatter.scanners:
        for key, rows in scanner.fetched.items():
            assert rows.landed == scatter.landings[decompose(key)[:2]], key
        for resident in scanner._residency.values():
            assert resident.rows.landed is None
    assert all(landing >= t0 for landing in scatter.landings.values())

    # (a) Every verified key of every spec is an item; an item starts
    # once its stratum has landed.  Specs replay in spec order.
    assert all(index is not None for _, _, _, index in timeline.bookings)
    assert len(timeline.bookings) == len(items)
    for query, key, examined, index in timeline.bookings:
        start, _ = spans[index]
        assert items[index][1] == examined
        assert start >= scatter.landings[decompose(key)[:2]], (query, key)
    assert {query for query, _, _, _ in timeline.bookings} <= set(range(len(specs)))

    # (a) What the CPU prices is every spec's verification.
    booked = sum(examined for _, examined in items)
    assert booked == sum(result.candidates_examined for result in report.results)

    # (a) The batch ends at the latest of the join and the pipeline,
    # between the fork/join and the serial schedule.
    joined = max(timeline.shard_ends.values(), default=t0)
    cpu_end = spans[order[-1]][1] if order else t0
    end = clock.cursor()
    serial_end = serial.sim_clock.cursor()
    assert end == max(joined, cpu_end)
    assert joined - EPS <= end <= serial_end + EPS
    serial_joined = max(serial_engine.scatter.timeline.shard_ends.values(), default=t0)
    assert abs(serial_end - (serial_joined + booked * verify_us)) <= EPS

    # (b) The priced order is an execution: replayed key by key over
    # the per-entry reference it examines what was booked and finds
    # what the engine answered.
    reference = reference_scatter(untimed)
    by_item = {index: (query, key) for query, key, _, index in timeline.bookings}
    for q, spec in enumerate(specs):
        verifier = CandidateVerifier(untimed.store, spec.q_uid, spec.t_query)
        found = []
        knn = isinstance(spec, KnnQuerySpec)

        def collect(obj, x, y):
            if knn:
                found.append((euclidean(spec.qx, spec.qy, x, y), obj.uid))
            else:
                found.append(obj.uid)
            return False

        for index in order:
            query, key = by_item[index]
            if query != q:
                continue
            examined = verifier.candidates_examined
            verifier.admit_rows(reference.fetch(key), None if knn else spec.window, collect)
            assert verifier.candidates_examined - examined == items[index][1]
        result = report.results[q]
        if knn:
            nearest = [(d, obj.uid) for d, obj in result.neighbors]
            assert sorted(found)[: spec.k] == nearest
        else:
            assert set(found) == result.uids
        assert verifier.candidates_examined == result.candidates_examined


def test_pipeline_beats_the_join_barrier_and_serial_charges_the_rest():
    """The effect itself, on fixed batches — range-only, kNN-only and
    mixed: with several shards the pipelined batch ends strictly before
    the serial one, and an un-prefetched batch (nothing stamped) prices
    exactly the serial schedule."""
    generator = WORLD.query_generator()
    batches = {
        "range": generator.range_queries(WORLD.uids, 12, 420.0, 130.0),
        "knn": generator.knn_queries(WORLD.states, 12, 4, 130.0),
        "mixed": generator.mixed_queries(WORLD.states, 12, 420.0, 4, 130.0),
    }
    for kind, specs in batches.items():
        ends = []
        for scatter in (ShardScatterScanner, SerialScatter):
            sharded = deploy(4, timed=True)
            report = EngineOn(sharded, scatter).execute_batch(specs)
            assert report.stats.candidates_examined > 0, kind
            ends.append(sharded.sim_clock.cursor())
        pipelined_end, serial_end = ends
        assert pipelined_end < serial_end, kind

    specs = batches["range"]
    on_demand = []
    for scatter in (OnDemandScatter, OnDemandSerialScatter):
        sharded = deploy(4, timed=True)
        report = EngineOn(sharded, scatter).execute_batch(specs)
        assert report.stats.entries_prefetched == 0
        on_demand.append(sharded.sim_clock.cursor())
    pipelined_end, serial_end = on_demand
    assert pipelined_end == serial_end
