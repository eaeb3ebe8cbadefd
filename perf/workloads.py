"""The benchmark's inputs, the two ways of driving the system, and the
answer check.

Everything here is built from the library's stable building blocks
(``workloads`` generators, ``core.sequencing``, ``PEBTree``,
``ShardedPEBTree.build``, ``SimulatedService`` ...), never through
``ExperimentHarness.run_*``, so harness refactors cannot break the
benchmark.  The seed reaches the program only as generated inputs.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field

from perf.steady import kernel_seconds
from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.engine import UpdatePipeline
from repro.motion.partitions import TimePartitioner
from repro.service import (
    BatchPolicy,
    OpenLoopGenerator,
    SimulatedService,
    percentile,
    query_request,
    update_request,
)
from repro.shard import ShardedPEBTree, ShardedQueryEngine
from repro.simio.clock import SimClock
from repro.simio.disk import TimedDisk
from repro.simio.model import make_latency_model
from repro.spatial.curves import make_curve
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.workloads.policies import PolicyGenerator
from repro.workloads.queries import KnnQuerySpec, QueryGenerator
from repro.workloads.uniform import UniformMovement

SPACE_SIDE = 1000.0
MAX_SPEED = 3.0
WINDOW_SIDE = 200.0
K = 5
THETA = 0.7
PAGE_SIZE = 1024
BUILD_BUFFER_PAGES = 8192
N_SHARDS = 4
DEVICE = "ssd"
#: World seconds one pass spans (half the 120 s update interval, as in
#: ``ExperimentHarness.run_service``), split evenly over its sessions.
STREAM_SECONDS = 60.0
#: Consecutive sessions one served pass is cut into.  Each is one timed
#: ``SimulatedService.run`` call of about half a second, so that a slow
#: spell of the box spoils one session of one pass, not the run.
SESSIONS = 6
#: The closed loop times the yardstick kernel this often (wall seconds).
KERNEL_EVERY_S = 0.5
#: Queries checked against the oracle over the whole population; the
#: rest are checked over the issuer's policy grantors, the only users
#: Definition 2 can admit.
FULL_ORACLE_QUERIES = 64
#: The data set is the same in every run; ``--seed`` draws the requests.
#: Policy graphs drawn from different seeds differ by ~5% in reads per
#: request, which would drown the bounds on the deterministic metrics.
DATA_SEED = 2011


@dataclass(frozen=True)
class Sizes:
    """Population and per-pass request counts of one scale."""

    users: int
    policies: int
    buffer_pages: int
    #: Requests per session of each served workload.
    session: dict[str, int] = field(default_factory=dict)
    direct: tuple[int, int, int] = (0, 0, 0)  # prq, pknn, update calls
    #: Back-to-back yardstick kernels per timing (``perf/steady.py``).
    kernel_samples: int = 5


#: Sized on the 2-core reference box so that one pass takes 2-2.5 s
#: there and four passes fill the run length.
FULL = Sizes(
    users=6000,
    policies=50,
    buffer_pages=50,
    session={
        "serve_range": 100,
        "serve_knn": 2,
        "serve_update": 3500,
        "serve_mixed": 16,
    },
    direct=(450, 4, 9000),
)
SMOKE = Sizes(
    users=400,
    policies=8,
    buffer_pages=8,
    session={
        "serve_range": 15,
        "serve_knn": 2,
        "serve_update": 250,
        "serve_mixed": 12,
    },
    direct=(45, 4, 600),
    kernel_samples=1,
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``rate`` is the offered load in requests per
    virtual second (None = closed loop, one client)."""

    name: str
    why: str
    rate: float | None = None
    update_fraction: float = 0.0
    knn_fraction: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_range",
            "100% PRQ at 1000/s: planner, merged prefetch, band decode and "
            "admit_rows do the work; the kNN search and the updater do none",
            rate=1000.0,
        ),
        Workload(
            "serve_knn",
            "100% PkNN at 200/s: the per-cell matrix walk issues hundreds of "
            "B+-tree descents per request that the buffer pool absorbs",
            rate=200.0,
            knn_fraction=1.0,
        ),
        Workload(
            "serve_update",
            "100% location updates at 10000/s: updater sweeps, page packing, "
            "dirty write-back and per-shard scheduler jobs; storage as writes",
            rate=10000.0,
            update_fraction=1.0,
        ),
        Workload(
            "serve_mixed",
            "50% updates, 25% of queries kNN at 1000/s: the ROADMAP profile "
            "point; a gain for one class that costs another shows here",
            rate=1000.0,
            update_fraction=0.5,
            knn_fraction=0.25,
        ),
        Workload(
            "direct_single",
            "closed loop, one client, single tree with the paper's 50-page "
            "buffer: prq/pknn/update calls that bypass service, shard and "
            "scheduler, so a change in those layers must not move it",
        ),
    )
}


@dataclass
class Population:
    grid: Grid
    partitioner: TimePartitioner
    store: object
    states: dict


def build_population(sizes: Sizes) -> Population:
    """Users, their policies, and the sequence values that order them."""
    movement = UniformMovement(
        SPACE_SIDE, MAX_SPEED, random.Random(f"perf:{DATA_SEED}:movement")
    )
    objects = movement.initial_objects(sizes.users, t=0.0)
    states = {obj.uid: obj for obj in objects}
    uids = sorted(states)
    store = PolicyGenerator(
        SPACE_SIDE, 1440.0, random.Random(f"perf:{DATA_SEED}:policy")
    ).generate(uids, sizes.policies, THETA)
    encoding = assign_sequence_values(uids, store, SPACE_SIDE**2)
    store.set_sequence_values(encoding.sequence_values)
    return Population(
        grid=Grid(SPACE_SIDE, 10, make_curve("z")),
        partitioner=TimePartitioner(120.0, 2),
        store=store,
        states=states,
    )


def build_deployment(population: Population, sizes: Sizes) -> ShardedPEBTree:
    """The served index: shipped defaults, cold query-sized buffers."""
    uids = sorted(population.states)
    deployment = ShardedPEBTree.build(
        N_SHARDS,
        population.grid,
        population.partitioner,
        population.store,
        uids=uids,
        page_size=PAGE_SIZE,
        buffer_pages=BUILD_BUFFER_PAGES,
        latency=DEVICE,
        parallel_io=True,
    )
    for uid in uids:
        deployment.insert(population.states[uid])
    for pool in deployment.pools:
        pool.clear()
        pool.resize(sizes.buffer_pages)
    deployment.stats.reset()
    return deployment


def build_single(population: Population, sizes: Sizes) -> PEBTree:
    """The paper's operating point: one tree, one buffer, one device.

    The device is timed so virtual milliseconds exist here too; the
    scheduler, the shard layer and the service are not in the path.
    """
    disk = TimedDisk(
        SimulatedDisk(page_size=PAGE_SIZE),
        SimClock(),
        make_latency_model(DEVICE),
        name="single",
    )
    pool = BufferPool(disk, capacity=BUILD_BUFFER_PAGES)
    tree = PEBTree(pool, population.grid, population.partitioner, population.store)
    for uid in sorted(population.states):
        tree.insert(population.states[uid])
    pool.clear()
    pool.resize(sizes.buffer_pages)
    pool.stats.reset()
    return tree


def _knn_panel(population: Population, count: int) -> list[int]:
    """PkNN issuers: a fixed panel of users in a fixed order.

    One PkNN costs a quarter of a second, and ten times more for some
    issuers and query instants than for others; a run can afford a
    dozen, and a dozen drawn afresh per seed would make the seed, not
    the code, decide the run's wall time.  So who asks, and in which
    session, belongs to the data set; the seed draws where in the
    session's interleaving each one falls and when it arrives.
    """
    return random.Random(f"perf:{DATA_SEED}:knn-panel").sample(
        sorted(population.states), count
    )


def _knn_spec(population: Population, uid: int, t_query: float) -> KnnQuerySpec:
    x, y = population.states[uid].position_at(t_query)
    return KnnQuerySpec(q_uid=uid, qx=x, qy=y, k=K, t_query=t_query)


def build_stream(workload: Workload, population: Population, seed: int, sizes: Sizes):
    """The workload's inputs: ``SESSIONS`` stamped request streams, or
    for the closed loop ``(range specs, knn specs, update states)``."""
    rng = random.Random(f"perf:{seed}:{workload.name}")
    generator = QueryGenerator(SPACE_SIDE, rng)
    states = population.states
    uids = sorted(states)
    if workload.rate is None:
        n_prq, n_knn, n_update = sizes.direct
        return (
            generator.range_queries(uids, n_prq, WINDOW_SIDE, STREAM_SECONDS),
            [
                _knn_spec(population, uid, STREAM_SECONDS)
                for uid in _knn_panel(population, n_knn)
            ],
            generator.update_stream(states, n_update, MAX_SPEED, 0.0, STREAM_SECONDS),
        )

    count = sizes.session[workload.name]
    n_updates = round(count * workload.update_fraction)
    n_knn = round((count - n_updates) * workload.knn_fraction)
    n_range = count - n_updates - n_knn
    span = STREAM_SECONDS / SESSIONS
    issuers = iter(_knn_panel(population, n_knn * SESSIONS))
    arrivals = OpenLoopGenerator(generator, states)
    sessions = []
    for index in range(SESSIONS):
        t_start = index * span
        t_query = t_start + span
        updates = iter(
            generator.update_stream(states, n_updates, MAX_SPEED, t_start, span)
        )
        ranges = iter(generator.range_queries(uids, n_range, WINDOW_SIDE, t_query))
        sources = [updates] * n_updates + [ranges] * n_range + [issuers] * n_knn
        rng.shuffle(sources)
        session = []
        for seq, (stamp, source) in enumerate(
            zip(arrivals.poisson_stamps(count, workload.rate), sources)
        ):
            if source is updates:
                session.append(update_request(seq, stamp, next(source)))
            elif source is ranges:
                session.append(query_request(seq, stamp, next(source)))
            else:
                spec = _knn_spec(population, next(source), t_query)
                session.append(query_request(seq, stamp, spec))
        sessions.append(session)
    return sessions


#: Counts and ratios read from the public stats objects after a pass;
#: the ones a pass has no source for stay 0.
STAT_NAMES = (
    "service.batches",
    "service.mean_batch_size",
    "service.utilization",
    "service.virt_sojourn_p50_ms",
    "service.virt_sojourn_p95_ms",
    "service.generator_lateness_ms",
    "engine.updater.ops",
    "engine.updater.in_place_ratio",
    "engine.updater.descents_saved",
    "btree.leaves_visited",
    "shard.balance_skew",
    "simio.seeks",
    "simio.sequential_ratio",
    "simio.overlap_factor",
    "storage.buffer.hit_ratio",
)


def _stats(**values: float) -> dict[str, float]:
    unknown = set(values) - set(STAT_NAMES)
    if unknown:
        raise KeyError(f"undeclared stats {sorted(unknown)}")
    return {**dict.fromkeys(STAT_NAMES, 0.0), **values}


@dataclass
class Outcome:
    """What one pass produced, before it is checked."""

    #: Wall seconds of each timed segment, in order: one per session, or
    #: one per call in the closed loop.
    segments: list[float]
    #: Fastest yardstick kernel timed between the segments of this pass.
    kernel_s: float
    requests: int
    reads: int
    writes: int
    virtual_us: float
    #: ``(model updates, [(spec, result), ...])`` in application order.
    steps: list = field(default_factory=list)
    final_states: list = field(default_factory=list)
    #: Requests that were shed, degraded, left unapplied, or raised.
    refused: int = 0
    #: Closed loop only: ``(class, number of calls)`` in segment order.
    classes: tuple = ()
    stats: dict[str, float] = field(default_factory=_stats)

    @property
    def wall_s(self) -> float:
        return sum(self.segments)


def serve(
    deployment: ShardedPEBTree, sessions: list, sizes: Sizes, tracer=None
) -> Outcome:
    """Serve the sessions back to back on one deployment; only the
    ``SimulatedService.run`` calls are timed (and, when a ``tracer``
    context is given, traced)."""
    engine = ShardedQueryEngine(deployment)
    pipeline = UpdatePipeline(deployment)
    service = SimulatedService(engine, pipeline, BatchPolicy())
    clock = deployment.sim_clock
    virtual_before = clock.elapsed
    reports = []
    segments = []
    gc.collect()
    kernel_s = kernel_seconds(sizes.kernel_samples)
    with tracer or contextlib.nullcontext():
        for session in sessions:
            start = time.perf_counter()
            reports.append(service.run(session))
            segments.append(time.perf_counter() - start)
            kernel_s = min(kernel_s, kernel_seconds(sizes.kernel_samples))

    requests = sum(len(session) for session in sessions)
    sojourns = []
    lateness_us = 0.0
    refused = 0
    for session, report in zip(sessions, reports):
        stats = report.stats
        refused += stats.n_shed + stats.degraded_queries
        if stats.saturated or len(report.records) != len(session):
            refused += len(session)
            continue
        for (request, _, finish_us), due in zip(report.records, session):
            sojourns.append(finish_us - request.arrival_us)
            # Arrival stamps are virtual: a request is admitted at the
            # instant it was due, so the generator cannot run late.
            lateness_us = max(lateness_us, abs(request.arrival_us - due.arrival_us))
    refused += pipeline.pending + (requests if lateness_us > 0 else 0)

    batches = sum(report.stats.n_batches for report in reports)
    busy_us = sum(report.stats.busy_us for report in reports)
    makespan_us = sum(report.stats.makespan_us for report in reports)
    latency = deployment.latency_stats
    io = deployment.stats
    elapsed_us = clock.elapsed - virtual_before
    updates = pipeline.stats
    return Outcome(
        segments=segments,
        kernel_s=kernel_s,
        requests=requests,
        reads=io.physical_reads,
        writes=io.physical_writes,
        virtual_us=busy_us,
        steps=[
            (batch.updates, list(zip(batch.query_specs, batch.query_results)))
            for report in reports
            for batch in report.batches
        ],
        final_states=deployment.fetch_all(),
        refused=refused,
        stats=_stats(**{
            "service.batches": batches,
            "service.mean_batch_size": requests / max(1, batches),
            "service.utilization": busy_us / makespan_us if makespan_us else 0.0,
            "service.virt_sojourn_p50_ms": percentile(sojourns, 0.50) / 1e3,
            "service.virt_sojourn_p95_ms": percentile(sojourns, 0.95) / 1e3,
            "service.generator_lateness_ms": lateness_us / 1e3,
            "engine.updater.ops": updates.ops,
            "engine.updater.in_place_ratio": updates.in_place_ratio,
            "engine.updater.descents_saved": updates.descents_saved,
            "btree.leaves_visited": updates.leaves_visited,
            "shard.balance_skew": deployment.shard_stats().balance_skew,
            "simio.seeks": latency.seeks,
            "simio.sequential_ratio": latency.sequential_ratio,
            "simio.overlap_factor": latency.busy_us / elapsed_us if elapsed_us else 0.0,
            "storage.buffer.hit_ratio": io.hit_ratio,
        }),
    )


def drive_direct(tree: PEBTree, calls: tuple, sizes: Sizes, tracer=None) -> Outcome:
    """One client calling ``prq``, ``pknn`` and ``PEBTree.update``
    back to back, each call timed."""
    ranges, knns, updates = calls
    disk = tree.btree.pool.disk
    io = tree.stats
    virtual_before = disk.clock.elapsed
    segments: list[float] = []
    answered: list = []
    refused = 0
    timer = time.perf_counter

    def timed(fn, *args):
        nonlocal refused, kernel_s, kernel_due
        start = timer()
        try:
            return fn(*args)
        except Exception as error:  # a raised request is a failed request
            refused += 1
            print(f"perf: {fn.__name__} raised {error!r}")
            return None
        finally:
            end = timer()
            segments.append(end - start)
            if end >= kernel_due:
                kernel_s = min(kernel_s, kernel_seconds(sizes.kernel_samples))
                kernel_due = timer() + KERNEL_EVERY_S

    gc.collect()
    kernel_s = kernel_seconds(sizes.kernel_samples)
    kernel_due = timer() + KERNEL_EVERY_S
    with tracer or contextlib.nullcontext():
        for spec in ranges:
            answered.append(
                (spec, timed(prq, tree, spec.q_uid, spec.window, spec.t_query))
            )
        for spec in knns:
            answered.append(
                (spec, timed(pknn, tree, spec.q_uid, spec.qx, spec.qy, spec.k,
                             spec.t_query))
            )
        for obj in updates:
            timed(tree.update, obj)

    latency = disk.latency
    return Outcome(
        segments=segments,
        kernel_s=kernel_s,
        requests=len(segments),
        reads=io.physical_reads,
        writes=io.physical_writes,
        virtual_us=disk.clock.elapsed - virtual_before,
        steps=[
            ([], [pair for pair in answered if pair[1] is not None]),
            ([(obj, 0) for obj in updates], []),
        ],
        final_states=tree.fetch_all(),
        refused=refused,
        classes=(("prq", len(ranges)), ("pknn", len(knns)), ("update", len(updates))),
        stats=_stats(**{
            "simio.seeks": latency.seeks,
            "simio.sequential_ratio": latency.sequential_ratio,
            "storage.buffer.hit_ratio": io.hit_ratio,
        }),
    )


def check(population: Population, outcome: Outcome) -> tuple[int, int]:
    """``(mismatches, result rows)`` of a pass against a dict model.

    The model holds the server-side states: each step's updates apply
    first (last write wins), then its queries are answered by brute
    force over the model, and the index's final contents must equal it.
    """
    store = population.store
    model = dict(population.states)
    mismatches = 0
    rows = 0
    checked = 0
    for updates, queries in outcome.steps:
        for obj, _ in updates:
            model[obj.uid] = obj
        for spec, result in queries:
            if checked < FULL_ORACLE_QUERIES:
                candidates = model
            else:
                candidates = {
                    uid: model[uid] for uid in store.owners_granting(spec.q_uid)
                }
            checked += 1
            if isinstance(spec, KnnQuerySpec):
                expected = brute_force_pknn(
                    candidates, store, spec.q_uid, spec.qx, spec.qy, spec.k,
                    spec.t_query,
                )
                got = sorted((round(d, 9), obj.uid) for d, obj in result.neighbors)
                ok = got == [(round(d, 9), uid) for d, uid in expected]
                rows += len(result.neighbors)
            else:
                expected = brute_force_prq(
                    candidates, store, spec.q_uid, spec.window, spec.t_query
                )
                ok = result.uids == expected and len(result.users) == len(expected)
                rows += len(result.users)
            if not ok:
                mismatches += 1
                print(f"perf: wrong answer for {spec}")
    indexed = {obj.uid: obj for obj in outcome.final_states}
    if indexed != model or len(outcome.final_states) != len(model):
        wrong = sum(1 for uid in model if indexed.get(uid) != model[uid])
        mismatches += max(1, wrong)
        print(f"perf: final index differs from the model for {wrong} users")
    return mismatches, rows
