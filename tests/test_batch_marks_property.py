"""A batch's and a flush's stats are two plain marks' difference.

:meth:`QueryEngine.execute_batch` and :meth:`UpdatePipeline.flush`
measure what they cost between two marks of plain numbers
(:func:`repro.engine.executor.mark`).  Before that, each took
:class:`~repro.counters.CounterSet` snapshots — the engine's
``_progress`` (an :class:`ExecutionStats` with the deployment's
``shard_stats()`` and a copy of the supervisor's ``FaultStats``) and a
``delta_from`` of two of them; the flush a ``shard_stats()`` and a
``FaultStats`` copy before and after, differenced and added onto the
earlier flushes'.  :func:`progress`, :class:`BracketedEngine` and
:class:`BracketedPipeline` keep that former bracket as test equipment,
taken around the shipped calls on the same deployment, and every
:class:`ExecutionStats` and :class:`UpdateStats` must equal it field for
field, nested ``ShardStats``/``FaultStats`` included — over random
histories of buffered updates, flushes, partition rollovers and mixed
range/kNN batches, on one tree and on 1 and 4 shards, timed and untimed,
on a supervised deployment under transient faults and on one with a
quarantined shard.  Planning touches no counter, so the reference's
first snapshot, taken where the batch takes its scanner, is the former
one's.  A spy pins that an unsupervised batch and flush take no
``shard_stats()``, ``copy()``, ``delta_from`` or ``+`` at all.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peb_tree import PEBTree
from repro.counters import CounterSet
from repro.engine import QueryEngine, UpdatePipeline
from repro.engine.executor import ExecutionStats
from repro.engine.updater import UpdateStats
from repro.fault import BreakerPolicy, RetryPolicy
from repro.motion import MovingObject
from repro.shard.tree import ShardedPEBTree
from repro.simio.clock import SimClock
from repro.simio.disk import TimedDisk
from repro.simio.model import make_latency_model
from repro.spatial.geometry import Rect
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultyDisk, TransientFaultSchedule
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world

PAGE_SIZE = 512  # small pages: every shard spans more leaves than its pool holds
WORLD = build_world(n_users=200, n_policies=5, page_size=PAGE_SIZE, seed=31)
PHASE = WORLD.partitioner.phase
SIDE = WORLD.space_side
#: One tier-1 example per ten of the loaded profile's: 10 by default.
EXAMPLES = max(10, settings.default.max_examples // 10)


# ----------------------------------------------------------------------
# The former brackets
# ----------------------------------------------------------------------


def progress(tree, scanner) -> ExecutionStats:
    """The former ``QueryEngine._progress``: the cumulative counters
    two of which bracketed a batch."""
    clock = tree.sim_clock
    latency = tree.latency_stats
    seen = ExecutionStats(
        bands_requested=scanner.requests,
        bands_scanned=scanner.physical_scans,
        bands_deduped=scanner.residency_hits,
        physical_reads=tree.stats.physical_reads,
        virtual_time_us=clock.elapsed if clock is not None else 0.0,
        seeks=latency.seeks if latency is not None else 0,
        sequential_hits=latency.sequential_hits if latency is not None else 0,
    )
    if tree.router is not None:
        seen.shard_stats = tree.shard_stats()
    if tree.supervisor is not None:
        seen.fault_stats = tree.supervisor.stats.copy()
    return seen


class BracketedEngine(QueryEngine):
    """The shipped engine, with the former bracket taken around each
    batch and held against the report's stats."""

    def __init__(self, tree):
        super().__init__(tree)
        self.batches = 0
        self.faults = 0

    def new_scanner(self):
        self.scanner = super().new_scanner()
        self.before = progress(self.tree, self.scanner)
        return self.scanner

    def execute_batch(self, specs):
        report = super().execute_batch(specs)
        reference = progress(self.tree, self.scanner).delta_from(self.before)
        reference.candidates_examined = sum(
            result.candidates_examined for result in report.results
        )
        reference.entries_prefetched = self.scanner.entries_prefetched
        assert report.stats == reference
        self.batches += 1
        if reference.fault_stats is not None:
            self.faults += reference.fault_stats.faults
        return report


class BracketedPipeline(UpdatePipeline):
    """The shipped pipeline, with the former flush bracket accrued in
    :attr:`reference` and held against :attr:`stats` after each flush."""

    def __init__(self, tree, capacity):
        super().__init__(tree, capacity)
        self.reference = UpdateStats()

    def flush(self):
        if not len(self.buffer):
            return super().flush()
        tree = self.tree
        io = tree.stats
        reads_before, writes_before = io.physical_reads, io.physical_writes
        clock = tree.sim_clock
        elapsed_before = clock.elapsed if clock is not None else 0.0
        shards_before = tree.shard_stats() if tree.router is not None else None
        supervisor = tree.supervisor
        faults_before = supervisor.stats.copy() if supervisor is not None else None
        ops = super().flush()
        reference = self.reference
        # What the update sweep itself reports is the shipped counters'.
        for name in (
            "ops", "in_place_hits", "moved", "inserted", "flushes",
            "leaves_visited", "descents_saved", "deferred",
        ):
            setattr(reference, name, getattr(self.stats, name))
        reference.physical_reads += io.physical_reads - reads_before
        reference.physical_writes += io.physical_writes - writes_before
        if clock is not None:
            reference.virtual_time_us += clock.elapsed - elapsed_before
        if shards_before is not None:
            delta = tree.shard_stats().delta_from(shards_before)
            so_far = reference.shard_stats
            reference.shard_stats = delta if so_far is None else delta + so_far
        if faults_before is not None:
            delta = supervisor.stats.delta_from(faults_before)
            so_far = reference.fault_stats
            reference.fault_stats = delta if so_far is None else delta + so_far
        assert self.stats == reference
        return ops


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------


def lone(timed):
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    if timed:
        disk = TimedDisk(disk, SimClock(), make_latency_model("ssd"), name="lone")
    tree = PEBTree(
        BufferPool(disk, capacity=3), WORLD.grid, WORLD.partitioner, WORLD.store
    )
    for uid in WORLD.uids:
        tree.insert(WORLD.states[uid])
    tree.btree.pool.clear()
    return tree


def sharded(n_shards, timed, faulty=False):
    deployment = WORLD.deploy(
        n_shards,
        buffer_pages=3,  # small: batches and sweeps read and write
        latency="ssd" if timed else None,
        disk_factory=(lambda shard: FaultyDisk(page_size=PAGE_SIZE)) if faulty else None,
        fault_policy=RetryPolicy(max_attempts=3, base_backoff_us=5.0) if faulty else None,
        breaker_policy=BreakerPolicy(cooldown_calls=4) if faulty else None,
    )
    for pool in deployment.pools:
        pool.clear()
    return deployment


def shard_disks(deployment):
    disks = []
    for tree in deployment.trees:
        disk = tree.btree.pool.disk
        while hasattr(disk, "inner"):
            disk = disk.inner
        disks.append(disk)
    return disks


SHAPES = {
    "lone": lambda: lone(timed=False),
    "lone_timed": lambda: lone(timed=True),
    "1_shard_timed": lambda: sharded(1, timed=True),
    "4_shards": lambda: sharded(4, timed=False),
    "4_shards_timed": lambda: sharded(4, timed=True),
}


def moved_states(now, count, seed):
    rng = random.Random(seed)
    return [
        MovingObject(
            uid,
            rng.uniform(0.0, SIDE),
            rng.uniform(0.0, SIDE),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            now,
        )
        for uid in rng.sample(WORLD.uids, count)
    ]


def mixed_specs(now, n_range, n_knn, seed):
    rng = random.Random(seed)
    specs = []
    for _ in range(n_range):
        side = rng.uniform(50.0, 400.0)
        x, y = rng.uniform(0.0, SIDE - side), rng.uniform(0.0, SIDE - side)
        specs.append(
            RangeQuerySpec(rng.choice(WORLD.uids), Rect(x, x + side, y, y + side), now)
        )
    for _ in range(n_knn):
        specs.append(
            KnnQuerySpec(
                rng.choice(WORLD.uids),
                rng.uniform(0.0, SIDE),
                rng.uniform(0.0, SIDE),
                rng.randint(1, 6),
                now,
            )
        )
    rng.shuffle(specs)
    return specs


SEED = st.integers(0, 2**16)
STEP = st.one_of(
    st.tuples(st.just("update"), st.integers(1, 25), SEED),
    st.tuples(st.just("flush")),
    st.tuples(st.just("rollover")),
    st.tuples(st.just("batch"), st.integers(0, 6), st.integers(0, 4), SEED),
)


def run(deployment, steps):
    engine = BracketedEngine(deployment)
    pipeline = BracketedPipeline(deployment, capacity=12)
    now = 1.0
    for step in steps:
        kind = step[0]
        if kind == "update":
            pipeline.extend(moved_states(now, step[1], step[2]))
        elif kind == "flush":
            pipeline.flush()
        elif kind == "rollover":
            now += PHASE
        else:
            pipeline.flush()  # queries and updates stay phase-separated
            engine.execute_batch(mixed_specs(now, step[1], step[2], step[3]))
    pipeline.flush()
    engine.execute_batch(mixed_specs(now, 3, 2, 7))
    return engine, pipeline


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=EXAMPLES, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=12))
def test_marks_equal_the_former_brackets(shape, steps):
    engine, pipeline = run(SHAPES[shape](), steps)
    assert engine.batches >= 1
    assert pipeline.stats == pipeline.reference


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    steps=st.lists(STEP, min_size=1, max_size=12),
    fail_reads=st.sets(st.integers(1, 200), max_size=8),
    fail_writes=st.sets(st.integers(1, 80), max_size=4),
)
def test_marks_equal_the_former_brackets_under_transient_faults(
    steps, fail_reads, fail_writes
):
    deployment = sharded(4, timed=True, faulty=True)
    schedule = TransientFaultSchedule(fail_reads=fail_reads, fail_writes=fail_writes)
    for disk in shard_disks(deployment):
        disk.heal()
        disk.schedule = schedule
    engine, pipeline = run(deployment, steps)
    assert pipeline.stats == pipeline.reference
    assert (pipeline.stats.fault_stats is None) == (pipeline.stats.flushes == 0)


@pytest.mark.parametrize("dead", (0, 3))
@settings(max_examples=max(5, EXAMPLES // 2), deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=10))
def test_marks_equal_the_former_brackets_with_a_quarantined_shard(dead, steps):
    deployment = sharded(4, timed=True, faulty=True)
    shard_disks(deployment)[dead].fail_every_nth_read = 1  # dead for good
    engine, pipeline = run(deployment, steps)
    assert pipeline.stats == pipeline.reference


def test_the_fault_runs_meet_faults_and_deferrals():
    """The two supervised properties are not vacuous: a fixed history
    meets retried faults in a batch and in a flush, and a dead shard
    defers updates and drops keys."""
    steps = [
        ("update", 25, 1), ("flush",), ("batch", 6, 4, 2),
        ("update", 25, 3), ("batch", 6, 4, 4),
    ]
    deployment = sharded(4, timed=True, faulty=True)
    schedule = TransientFaultSchedule(fail_reads=set(range(5, 300, 11)), fail_writes={2, 6})
    for disk in shard_disks(deployment):
        disk.heal()
        disk.schedule = schedule
    engine, pipeline = run(deployment, steps)
    assert pipeline.stats.fault_stats.faults > 0
    assert engine.faults > 0

    deployment = sharded(4, timed=True, faulty=True)
    shard_disks(deployment)[1].fail_every_nth_read = 1
    engine, pipeline = run(deployment, steps)
    assert pipeline.stats.deferred > 0
    assert deployment.supervisor.stats.bands_dropped > 0


@pytest.mark.parametrize("shape", ("lone_timed", "4_shards_timed", "4_shards"))
def test_an_unsupervised_batch_and_flush_take_no_snapshot(shape, monkeypatch):
    deployment = SHAPES[shape]()
    engine = QueryEngine(deployment)
    pipeline = UpdatePipeline(deployment, capacity=1000)
    calls = []

    def spy(name, original):
        def spied(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return spied

    for owner, name in (
        (ShardedPEBTree, "shard_stats"),
        (CounterSet, "copy"),
        (CounterSet, "delta_from"),
        (CounterSet, "__add__"),
    ):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    pipeline.extend(moved_states(1.0, 40, 5))
    pipeline.flush()
    for tree in deployment.trees:
        tree.btree.pool.clear()  # the batch reads
    report = engine.execute_batch(mixed_specs(1.0, 5, 3, 6))
    pipeline.extend(moved_states(1.0, 20, 8))
    pipeline.flush()
    assert calls == []
    assert pipeline.stats.flushes == 2 and pipeline.stats.physical_reads > 0
    assert report.stats.physical_reads > 0
