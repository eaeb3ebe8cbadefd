"""One deployment object, five shapes: one answer, context where it is.

The engine, the update pipeline and the service read their context —
clock, device counters, router, supervisor, recorder — from the
deployment's fields (:class:`repro.engine.deployment.Deployment`).  A
bare :class:`PEBTree` is the one-shard deployment: it carries its
disk's clock, and no router, scheduler, verify timeline or supervisor.
Every shape below runs the same flush, mixed batch, ``prq`` and
``pknn``; the answers must equal the bare untimed tree's, and each
breakdown must appear exactly where the shape has what it measures.
"""

import pytest

from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.engine import QueryEngine, UpdatePipeline
from repro.fault import BreakerPolicy, RetryPolicy
from repro.obs import TraceRecorder
from repro.shard import ShardedPEBTree
from repro.simio.clock import SimClock
from repro.simio.disk import TimedDisk
from repro.simio.model import make_latency_model
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

from tests.conftest import build_world

PAGE_SIZE = 1024
FRAMES = 8
WORLD = build_world(n_users=200, n_policies=6, seed=29)
STREAM = WORLD.query_generator().update_stream(WORLD.states, 80, 3.0, 0.0, 130.0)
SPECS = WORLD.query_generator().mixed_queries(WORLD.states, 10, 300.0, 3, 130.0)

#: shape -> (shards, timed, supervised and traced)
SHAPES = {
    "bare": (0, False, False),
    "bare-ssd": (0, True, False),
    "4-shards": (4, False, False),
    "4-shards-ssd": (4, True, False),
    "4-shards-ssd-supervised-traced": (4, True, True),
}


def deploy(shape):
    n_shards, timed, watched = SHAPES[shape]
    if not n_shards:
        disk = SimulatedDisk(page_size=PAGE_SIZE)
        if timed:
            disk = TimedDisk(disk, SimClock(), make_latency_model("ssd"), name="bare")
        pool = BufferPool(disk, capacity=FRAMES)
        deployment = PEBTree(pool, WORLD.grid, WORLD.partitioner, WORLD.store)
        for uid in WORLD.uids:
            deployment.insert(WORLD.states[uid])
    else:
        deployment = WORLD.deploy(
            n_shards,
            buffer_pages=FRAMES,
            latency="ssd" if timed else None,
            fault_policy=RetryPolicy() if watched else None,
            breaker_policy=BreakerPolicy() if watched else None,
        )
    if watched:
        deployment.recorder = TraceRecorder()
    return deployment


def cold(deployment):
    """Empty every buffer pool, so what runs next reads pages."""
    if isinstance(deployment, ShardedPEBTree):
        pools = deployment.pools
    else:
        pools = (deployment.btree.pool,)
    for pool in pools:
        pool.clear()


def run(deployment):
    """One flush, one mixed batch, one ``prq`` and one ``pknn``."""
    pipeline = UpdatePipeline(deployment, capacity=len(STREAM))
    cold(deployment)
    pipeline.extend(STREAM)
    pipeline.flush()
    cold(deployment)
    report = QueryEngine(deployment).execute_batch(SPECS)
    range_spec = next(spec for spec in SPECS if hasattr(spec, "window"))
    knn_spec = next(spec for spec in SPECS if hasattr(spec, "k"))
    single_range = prq(
        deployment, range_spec.q_uid, range_spec.window, range_spec.t_query
    )
    single_knn = pknn(
        deployment,
        knn_spec.q_uid,
        knn_spec.qx,
        knn_spec.qy,
        knn_spec.k,
        knn_spec.t_query,
    )
    answers = [
        sorted(result.uids)
        if hasattr(result, "uids")
        else [(round(d, 9), obj.uid) for d, obj in result.neighbors]
        for result in (*report.results, single_range, single_knn)
    ]
    return answers, report, pipeline


REFERENCE = run(deploy("bare"))[0]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_shape_answers_alike_and_reports_what_it_has(shape):
    n_shards, timed, watched = SHAPES[shape]
    deployment = deploy(shape)
    answers, report, pipeline = run(deployment)
    assert answers == REFERENCE

    # The fields say what the deployment has.
    assert (deployment.router is not None) == bool(n_shards)
    assert (deployment.sim_clock is not None) == timed
    assert (deployment.latency_stats is not None) == timed
    assert (deployment.supervisor is not None) == watched
    assert (deployment.recorder is not None) == watched
    scanner = QueryEngine(deployment).new_scanner()
    assert (scanner.timeline is not None) == (bool(n_shards) and timed)

    # Time is reported exactly where there is a clock ...
    stats, updates = report.stats, pipeline.stats
    assert (stats.virtual_time_us > 0) == timed
    assert (stats.seeks > 0) == timed
    assert (updates.virtual_time_us > 0) == timed
    # ... per-shard I/O where there are shards ...
    assert (stats.shard_stats is not None) == bool(n_shards)
    assert (updates.shard_stats is not None) == bool(n_shards)
    # ... fault counters where there is a supervisor ...
    assert (stats.fault_stats is not None) == watched
    assert (updates.fault_stats is not None) == watched
    assert report.degraded == [False] * len(SPECS)
    # ... and spans where there is a recorder.
    if watched:
        names = {event.name for event in deployment.recorder.spans()}
        assert {"update.flush", "update.sweep", "scan.prefetch", "scan.shard"} <= names
        assert {"query.replay", "verify.pipeline", "verify.knn"} <= names


def test_setting_the_recorder_field_reaches_the_supervisor():
    deployment = deploy("4-shards-ssd-supervised-traced")
    recorder = deployment.recorder
    assert deployment.supervisor.recorder is recorder
    deployment.recorder = None
    assert deployment.supervisor.recorder is None
    replacement = TraceRecorder()
    deployment.recorder = replacement
    assert deployment.supervisor.recorder is replacement


def test_a_bare_tree_on_a_timed_disk_reports_its_time():
    """Defect twenty-four: a bare tree's engine looked for a
    ``sim_clock`` and a ``stats.latency`` only a sharded deployment
    had, so a batch that moved the disk's clock over real physical
    reads reported ``virtual_time_us`` 0.0 and ``seeks`` 0.  The clock
    comes from the timed disk, as on a sharded deployment."""
    world = build_world(n_users=300, n_policies=6, seed=5)
    clock = SimClock()
    disk = TimedDisk(
        SimulatedDisk(page_size=PAGE_SIZE), clock, make_latency_model("ssd"), name="bare"
    )
    tree = PEBTree(
        BufferPool(disk, capacity=4), world.grid, world.partitioner, world.store
    )
    for uid in world.uids:
        tree.insert(world.states[uid])
    tree.btree.pool.flush()
    specs = world.query_generator().range_queries(world.uids, 8, 300.0, 0.0)
    elapsed, accesses = clock.elapsed, disk.latency.accesses
    report = QueryEngine(tree).execute_batch(specs)
    stats = report.stats
    assert stats.physical_reads > 0
    assert stats.virtual_time_us == clock.elapsed - elapsed > 0
    assert stats.seeks > 0
    assert stats.seeks + stats.sequential_hits == disk.latency.accesses - accesses
