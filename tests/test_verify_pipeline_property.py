"""Property pin for the verify CPU's priced schedule.

On a timed deployment the scatter scanner prices a range query's
verification band by band on one CPU timeline: a band's rows may be
verified once its *stratum* has landed (``StratumResidency.landed``,
stamped by the shard job's prefetch sweep) and this query's previous
band of the same SV is done.  The batch's kNN searches then run on the
same CPU from where that pipeline ended (from the prefetch's fork when
it booked nothing): a search waits for a stratum's landing before it
first reads it, its on-demand scans queue on their shard's device, and
each admitted row set is charged its verification where it is admitted.
Results never depended on that schedule, so before this file nothing
pinned it.  Hypothesis draws 1/2/4 shards, batches whose issuers
differ in ``t_query`` (so they walk the partitions in different
order), range + kNN mixes, and a transient
``FaultWindowSchedule`` under a ``ShardSupervisor``; every example
checks

(a) **feasibility** — every range item starts at or after the instant
    its stratum's last coverage run really landed (read off the sweep
    by a spy, not off the stamp) and after this query's previous
    same-SV item; every kNN charge starts at or after the real landing
    of the stratum it verifies and after the search's last on-demand
    scan returned; range items and kNN charges never overlap on the
    one CPU; Σ item cost equals Σ ``candidates_examined × verify_us``
    of the range specs and Σ kNN charge that of the kNN specs; and the
    batch ends in ``[max(shard_ends), serial_end]`` — the upper end is
    the serial-after-the-join schedule;
(b) **the execution exists** — re-running each query's verification in
    the priced order, over rows from ``tests/reference_scan.py``,
    examines per band what was booked and yields the query's ``uids``
    and ``candidates_examined``;
(c) **timing only** — results, counters and physical reads equal the
    serial-after-the-join schedule (:class:`SerialScatter`) and an
    untimed clone.

Four mutants that must fail it (checked by hand when written):
dropping the same-SV chain (``ready = resident.landed`` in
``VerifyTimeline.book_verified``) fails (a) even on one shard —
an issuer with another ``t_query`` can make a query's strata of one SV
land in another order than the query replays them; stamping at job start (``clock.cursor()`` read before
``BandScanner.prefetch``'s sweep loop instead of after each stratum)
fails (a) everywhere; dropping the landing wait
(``VerifyTimeline.wait_landed`` returning at once) fails (a) on
any batch whose search reads a probe stratum before it lands; and
starting the searches at the fork base before the range pipeline
(``start_searches`` ignoring ``pipeline_end``) fails (a) by
double-booking the CPU in mixed batches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BandScanner, QueryEngine, UpdatePipeline
from repro.engine.verify import CandidateVerifier
from repro.fault import BreakerPolicy, RetryPolicy
from repro.shard.engine import ShardScatterScanner, VerifyTimeline
from repro.spatial.geometry import Rect
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


def deploy(n_shards, timed, supervised=False):
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


class SweepSpy:
    """A shard tree whose prefetch sweep reports when each run landed."""

    def __init__(self, tree, clock, landings):
        self._tree = tree
        self._clock = clock
        self._landings = landings

    def __getattr__(self, name):  # on-demand scans go straight through
        return getattr(self._tree, name)

    def scan_bands_rows(self, bands):
        bands = list(bands)
        for (tid, sv_q, _, _), rows in zip(bands, self._tree.scan_bands_rows(bands)):
            self._landings[(tid, sv_q)] = self._clock.cursor()
            yield rows


class RecordingTimeline(VerifyTimeline):
    """The shipped verify timeline, remembering who booked what and
    what each kNN search was charged, when and for which stratum."""

    def __init__(self, scatter):
        super().__init__(scatter)
        self.query = 0  # range queries closed so far, in replay order
        self.bookings = []  # (query, band, examined, index in verify_items)
        self.stratum = None  # the stratum the running search reads
        self.fetched = None  # when its last on-demand scan returned
        self.charges = []  # (start, examined, stratum, fetched)
        self.search_ends = []

    def book_verified(self, band, examined):
        index = len(self.verify_items)
        super().book_verified(band, examined)
        booked = len(self.verify_items) > index
        self.bookings.append((self.query, band, examined, index if booked else None))

    def end_query(self):
        self.query += 1
        return super().end_query()

    def wait_landed(self, resident):
        if resident is not None:
            self.stratum = (resident.tid, resident.sv_q)
        super().wait_landed(resident)

    def charge_verified(self, examined):
        if self.searching and examined:
            self.charges.append(
                (self.clock.cursor(), examined, self.stratum, self.fetched)
            )
        super().charge_verified(examined)

    def end_search(self):
        self.search_ends.append(self.clock.cursor())
        self.fetched = None
        return super().end_search()


class RecordingScatter(ShardScatterScanner):
    """The shipped scatter scanner over spied shard trees, pricing on a
    :class:`RecordingTimeline`."""

    def __init__(self, sharded):
        super().__init__(sharded)
        self.clock = sharded.sim_clock
        self.landings = {}
        self.scanners = [
            BandScanner(SweepSpy(tree, self.clock, self.landings))
            for tree in sharded.trees
        ]
        self.timeline = RecordingTimeline(self)

    def scan(self, band):
        self.timeline.stratum = (band.tid, band.sv_lo_q)
        rows = super().scan(band)
        if self.timeline.searching:
            self.timeline.fetched = self.clock.cursor()
        return rows


class SerialTimeline(VerifyTimeline):
    """Verification serial, after the join: each query's candidates are
    charged on the worker's cursor as it replays, and the kNN searches
    run there too, after the range queries — nothing is pipelined."""

    def charge_query(self, examined, knn):
        self.clock.advance(examined * self.tree.latency_model.verify_us)

    def start_searches(self):
        pass

    def end_searches(self):
        pass


class SerialScatter(ShardScatterScanner):
    """The shipped scatter scanner pricing on a :class:`SerialTimeline`."""

    def __init__(self, sharded):
        super().__init__(sharded)
        self.timeline = SerialTimeline(self)


class OnDemandScatter(ShardScatterScanner):
    """Nothing prefetched, so no stratum is stamped: every band is
    scanned on demand."""

    def prefetch(self, bands):
        pass


class OnDemandSerialScatter(OnDemandScatter, SerialScatter):
    pass


class EngineOn(QueryEngine):
    """The engine reading through a test-local scatter scanner class;
    the last one it built is :attr:`scatter`."""

    def __init__(self, tree, scatter_class):
        super().__init__(tree)
        self.scatter_class = scatter_class

    def new_scanner(self):
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
            result.uids
            if hasattr(result, "uids")
            else [(round(d, 9), obj.uid) for d, obj in result.neighbors],
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
        stats.residency_hits,
        stats.candidates_examined,
        stats.physical_reads,
        stats.entries_prefetched,
        stats.dead_entries,
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


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.sampled_from((1, 2, 4)),
    queries=st.lists(QUERY, min_size=1, max_size=8),
    window=st.none() | st.tuples(st.floats(0.0, 600.0), st.floats(1.0, 400.0)),
)
def test_priced_schedule_is_feasible_and_describes_the_execution(
    n_shards, queries, window
):
    specs = [make_spec(*query) for query in queries]
    ranges = [q for q, spec in enumerate(specs) if isinstance(spec, RangeQuerySpec)]
    knns = [q for q, spec in enumerate(specs) if isinstance(spec, KnnQuerySpec)]
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
    serial_report = EngineOn(serial, SerialScatter).execute_batch(specs)
    untimed_report = QueryEngine(untimed).execute_batch(specs)
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

    # (a) Every stratum a sweep covered carries the instant its last
    # run landed — and nothing else carries a stamp.
    for scanner in scatter.scanners:
        for stratum, resident in scanner._residency.items():
            assert resident.landed == scatter.landings.get(stratum), stratum
    assert all(landing >= t0 for landing in scatter.landings.values())

    # (a) Every verified band of a range query is an item; an item
    # starts once its stratum has landed and its chain predecessor ended.
    # Range queries replay first, in spec order.
    assert all(index is not None for _, _, _, index in timeline.bookings)
    assert len(timeline.bookings) == len(items)
    chain_end = {}
    for query, band, examined, index in timeline.bookings:
        tid, sv_q = band.tid, band.sv_lo_q
        start, end = spans[index]
        assert items[index][1] == examined
        assert start >= scatter.landings[(tid, sv_q)], (query, band)
        assert start >= chain_end.get((query, sv_q), t0), (query, band)
        chain_end[(query, sv_q)] = end
    assert {query for query, _, _, _ in timeline.bookings} <= set(range(len(ranges)))

    # (a) A kNN charge starts once the stratum it verifies has landed
    # and the search's last on-demand scan has returned.
    cells = []
    for start, examined, stratum, fetched in timeline.charges:
        assert start >= scatter.landings.get(stratum, t0) - EPS, stratum
        assert fetched is None or start >= fetched
        cells.append((start, start + examined * verify_us))

    # (a) One CPU: range items and kNN charges never overlap.
    intervals = sorted([spans[i] for i in order] + cells)
    for before, after in zip(intervals, intervals[1:]):
        assert after[0] >= before[1] - EPS, (before, after)

    # (a) What the CPU prices is the specs' verification, by kind.
    booked = sum(examined for _, examined in items)
    assert booked == sum(report.results[q].candidates_examined for q in ranges)
    charged = sum(examined for _, examined, _, _ in timeline.charges)
    assert charged == sum(report.results[q].candidates_examined for q in knns)
    assert len(timeline.search_ends) == len(knns)

    # (a) The batch ends between the fork/join and the serial schedule,
    # at the latest of the join, the pipeline and the last search.
    joined = max(timeline.shard_ends.values(), default=t0)
    cpu_end = spans[order[-1]][1] if order else t0
    end = clock.cursor()
    serial_end = serial.sim_clock.cursor()
    assert joined - EPS <= end <= serial_end + EPS
    assert end == max(joined, cpu_end, *timeline.search_ends)
    if not knns:
        assert abs(serial_end - (joined + booked * verify_us)) <= EPS

    # (b) The priced order is an execution: replayed band by band over
    # the per-entry reference it examines what was booked and finds
    # what the engine answered.
    reference = reference_scatter(untimed)
    by_item = {
        index: (ranges[query], band) for query, band, _, index in timeline.bookings
    }
    for q in ranges:
        spec = specs[q]
        verifier = CandidateVerifier(untimed.store, spec.q_uid, spec.t_query)
        found = set()

        def collect(obj, x, y):
            found.add(obj.uid)
            return False

        for index in order:
            query, band = by_item[index]
            if query != q:
                continue
            examined = verifier.candidates_examined
            verifier.admit_rows(reference.scan(band), spec.window, collect)
            assert verifier.candidates_examined - examined == items[index][1]
        assert found == report.results[q].uids
        assert verifier.candidates_examined == report.results[q].candidates_examined


def test_pipeline_beats_the_join_barrier_and_serial_charges_the_rest():
    """The effect itself, on one fixed batch: with several shards the
    pipelined batch ends strictly before the serial one, and an
    un-prefetched batch (nothing stamped) prices exactly the serial
    schedule."""
    specs = WORLD.query_generator().range_queries(WORLD.uids, 12, 420.0, 130.0)
    ends = []
    for scatter in (ShardScatterScanner, SerialScatter):
        sharded = deploy(4, timed=True)
        report = EngineOn(sharded, scatter).execute_batch(specs)
        assert report.stats.candidates_examined > 0
        ends.append(sharded.sim_clock.cursor())
    pipelined_end, serial_end = ends
    assert pipelined_end < serial_end

    on_demand = []
    for scatter in (OnDemandScatter, OnDemandSerialScatter):
        sharded = deploy(4, timed=True)
        report = EngineOn(sharded, scatter).execute_batch(specs)
        assert report.stats.entries_prefetched == 0
        on_demand.append(sharded.sim_clock.cursor())
    pipelined_end, serial_end = on_demand
    assert pipelined_end == serial_end
