"""Tests for the engine's batch update pipeline (write path).

Covers the buffer's last-write-wins semantics, the pipeline's two
flush triggers (capacity and time-partition rollover), its stats
accounting, the continuous-query monitor fan-out, and the harness
integration (``apply_update_round(pipeline=...)`` and
``run_batched_updates``).
"""

from dataclasses import replace

import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.core.continuous import ContinuousPRQ
from repro.engine import UpdateBuffer, UpdatePipeline
from repro.spatial.geometry import Rect
from repro.workloads.queries import QueryGenerator
from repro.core.peb_tree import PEBTree
from repro.motion.partitions import TimePartitioner
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.faults import DiskFaultError, FaultyDisk
from tests.conftest import build_world
from tests.test_update_batch_property import _twin_trees
from tests.test_peb_tree import make_peb, make_store, mover


class RecordingMonitor:
    """A monitor that just logs every state it is shown, in order."""

    def __init__(self):
        self.seen = []

    def refresh(self, obj):
        self.seen.append(obj)
        return True


def test_buffer_last_write_wins():
    buffer = UpdateBuffer()
    buffer.add(mover(1, x=10.0), pntp=1)
    buffer.add(mover(2, x=20.0))
    buffer.add(mover(1, x=99.0), pntp=3)
    assert len(buffer) == 2
    assert 1 in buffer and 2 in buffer
    drained = buffer.drain()
    assert len(buffer) == 0
    by_uid = {obj.uid: (obj, pntp) for obj, pntp in drained}
    assert by_uid[1][0].x == 99.0
    assert by_uid[1][1] == 3


def test_buffer_drain_orders_by_last_arrival():
    """A re-added uid moves to the end: drain order is the arrival
    order of the states actually kept, not of superseded ones."""
    buffer = UpdateBuffer()
    buffer.add(mover(1, x=10.0))
    buffer.add(mover(2, x=20.0))
    buffer.add(mover(1, x=99.0))
    drained = buffer.drain()
    assert [obj.uid for obj, _ in drained] == [2, 1]
    assert drained[1][0].x == 99.0


def test_buffer_restore_reenters_at_head_without_clobbering_newer():
    buffer = UpdateBuffer()
    buffer.add(mover(1, x=1.0))
    buffer.add(mover(2, x=2.0))
    drained = buffer.drain()
    # A newer state for uid 2 arrives between the failed flush's drain
    # and the restore: it must win, and keep its later position.
    buffer.add(mover(2, x=22.0))
    buffer.restore(drained)
    redrained = buffer.drain()
    assert [obj.uid for obj, _ in redrained] == [1, 2]
    assert redrained[0][0].x == 1.0
    assert redrained[1][0].x == 22.0


def test_pipeline_flushes_at_capacity():
    tree = make_peb(range(10))
    pipeline = UpdatePipeline(tree, capacity=4)
    for uid in range(3):
        pipeline.submit(mover(uid, x=uid * 100.0))
    assert pipeline.pending == 3
    assert pipeline.stats.flushes == 0
    pipeline.submit(mover(3, x=300.0))
    assert pipeline.pending == 0
    assert pipeline.stats.flushes == 1
    assert pipeline.stats.ops == 4
    assert len(tree) == 4


def test_pipeline_flushes_on_partition_rollover():
    tree = make_peb(range(10))  # phase = 60
    pipeline = UpdatePipeline(tree, capacity=100)
    pipeline.submit(mover(0, t=10.0))
    pipeline.submit(mover(1, t=20.0))
    assert pipeline.stats.flushes == 0
    # t=70 labels into the next partition: the buffered batch flushes
    # first, keeping every flushed run partition-pure.
    pipeline.submit(mover(2, t=70.0))
    assert pipeline.stats.flushes == 1
    assert pipeline.stats.ops == 2
    assert pipeline.pending == 1
    pipeline.flush()
    assert len(tree) == 3


def test_flush_applies_a_buffer_that_spans_partitions():
    """``submit`` never buffers two partitions together, but a buffer
    filled directly (as the fault tests do) still flushes as one batch."""
    tree = make_peb(range(10))  # phase = 60
    pipeline = UpdatePipeline(tree, capacity=100)
    states = [mover(0, x=50.0, t=10.0), mover(1, x=60.0, t=70.0), mover(2, t=130.0)]
    for obj in states:
        pipeline.buffer.add(obj)
    assert len({tree.partitioner.partition(obj.t_update) for obj in states}) == 3
    assert pipeline.flush() == 3
    assert pipeline.stats.flushes == 1 and pipeline.pending == 0
    by_uid = {obj.uid: obj for obj in tree.fetch_all()}
    assert all(by_uid[obj.uid] == obj for obj in states)
    assert tree.check_consistency() == []
    tree.btree.check_invariants()


def test_pipeline_rejects_bad_capacity():
    tree = make_peb(range(4))
    with pytest.raises(ValueError):
        UpdatePipeline(tree, capacity=0)


def test_flush_of_empty_buffer_is_noop():
    tree = make_peb(range(4))
    pipeline = UpdatePipeline(tree)
    assert pipeline.flush() == 0
    assert pipeline.stats.flushes == 0


def test_context_manager_flushes_on_exit():
    tree = make_peb(range(10))
    with UpdatePipeline(tree, capacity=100) as pipeline:
        pipeline.submit(mover(5, x=42.0))
        assert len(tree) == 0
    assert len(tree) == 1
    assert pipeline.pending == 0


def test_pipeline_equals_sequential_on_update_stream():
    """The new workload generator through the pipeline, pinned to
    one-at-a-time application on a twin tree."""
    import random

    sequential, batched = _twin_trees()
    generator = QueryGenerator(1000.0, random.Random(3))
    states = {obj.uid: obj for obj in sequential.fetch_all()}
    # Duration > phase: the stream crosses a partition rollover.
    stream = generator.update_stream(states, 80, 3.0, t_start=0.0, duration=100.0)
    for obj in stream:
        sequential.update(obj)
    pipeline = UpdatePipeline(batched, capacity=16)
    pipeline.extend(stream)
    pipeline.flush()
    assert pipeline.stats.flushes >= 2
    assert sequential.live.keys == batched.live.keys
    assert list(sequential.btree.items()) == list(batched.btree.items())
    sequential.btree.check_invariants()
    batched.btree.check_invariants()
    stats = pipeline.stats
    assert stats.ops == stats.in_place_hits + stats.moved + stats.inserted
    assert stats.io_per_update >= 0.0
    assert 0.0 <= stats.in_place_ratio <= 1.0


def test_monitor_fanout_keeps_continuous_query_fresh(small_world):
    """ContinuousPRQ.attach_to: pipeline flushes re-register tracked
    motion functions without explicit refresh routing."""
    world = small_world
    issuer = world.uids[0]
    friends = [uid for _, uid in world.store.friend_list(issuer)]
    assert friends, "issuer needs at least one friend"
    target = friends[0]
    window = Rect(0.0, 1000.0, 0.0, 1000.0)

    pipeline = UpdatePipeline(world.peb, capacity=4)
    monitor = ContinuousPRQ(world.peb, issuer, window, t_start=0.0).attach_to(
        pipeline
    )
    before = monitor._tracked.get(target)

    moved = world.states[target].moved_to(500.0, 500.0, 0.0, 0.0, t=30.0)
    pipeline.submit(moved)
    assert monitor._tracked.get(target) is before  # not flushed yet
    pipeline.flush()
    assert monitor._tracked[target] == moved

    assert pipeline.detach_monitor(monitor) is True
    assert pipeline.detach_monitor(monitor) is False
    other = world.states[target].moved_to(1.0, 1.0, 0.0, 0.0, t=40.0)
    pipeline.submit(other)
    pipeline.flush()
    assert monitor._tracked[target] == moved  # detached: unchanged
    # Leave the session-scoped world as we found it.
    world.peb.update(world.states[target])


def test_monitor_ignores_non_friends(small_world):
    world = small_world
    issuer = world.uids[0]
    friends = {uid for _, uid in world.store.friend_list(issuer)}
    stranger = next(uid for uid in world.uids if uid not in friends and uid != issuer)
    pipeline = UpdatePipeline(world.peb, capacity=4)
    monitor = ContinuousPRQ(
        world.peb, issuer, Rect(0.0, 1000.0, 0.0, 1000.0), t_start=0.0
    ).attach_to(pipeline)
    moved = world.states[stranger].moved_to(500.0, 500.0, 0.0, 0.0, t=30.0)
    pipeline.submit(moved)
    pipeline.flush()
    assert stranger not in monitor._tracked
    world.peb.update(world.states[stranger])


# ----------------------------------------------------------------------
# Flush failure (fault injection)
# ----------------------------------------------------------------------


def make_faulty_peb(uids=range(10)):
    """A PEB-tree whose pool sits on a fault-injectable disk."""
    uids = list(uids)
    grid = Grid(1000.0, 10)
    partitioner = TimePartitioner(120.0, 2)
    store = make_store(uids)
    disk = FaultyDisk(page_size=1024)
    pool = BufferPool(disk, capacity=64)
    return PEBTree(pool, grid, partitioner, store), disk


def test_flush_failure_preserves_buffer_and_retry_applies_once():
    """A DiskFaultError mid-flush must lose nothing: the drained batch
    re-enters the buffer, no stats or monitors record the failure, and
    a retry after the fault clears applies every state exactly once."""
    uids = list(range(10))
    tree, disk = make_faulty_peb(uids)
    twin = make_peb(uids)
    for uid in uids:
        tree.insert(mover(uid, x=uid * 50.0))
        twin.insert(mover(uid, x=uid * 50.0))
    tree.btree.pool.flush()
    tree.btree.pool.clear()

    pipeline = UpdatePipeline(tree, capacity=64)
    monitor = RecordingMonitor()
    pipeline.attach_monitor(monitor)
    moved = [mover(uid, x=900.0 - uid * 30.0, y=500.0, t=10.0) for uid in uids]
    pipeline.extend(moved)
    assert pipeline.pending == len(uids)

    disk.fail_read_pages.update(range(disk.allocated_count))
    with pytest.raises(DiskFaultError):
        pipeline.flush()
    # Nothing lost, nothing recorded, nobody notified.
    assert pipeline.pending == len(uids)
    assert pipeline.stats.flushes == 0
    assert pipeline.stats.ops == 0
    assert monitor.seen == []

    disk.heal()
    assert pipeline.flush() == len(uids)
    assert pipeline.pending == 0
    assert pipeline.stats.flushes == 1
    assert pipeline.stats.ops == len(uids)
    # Exactly once: each state fanned out once, and the tree matches a
    # twin that applied the round sequentially with no fault.
    assert [obj.uid for obj in monitor.seen] == [obj.uid for obj in moved]
    for obj in moved:
        twin.update(obj)
    assert list(tree.btree.items()) == list(twin.btree.items())
    tree.btree.check_invariants()


def test_flush_failure_during_capacity_trigger_surfaces_and_retries():
    """submit()'s capacity-triggered flush propagates the fault but
    keeps the whole batch (including the tripping state) buffered."""
    uids = list(range(8))
    tree, disk = make_faulty_peb(uids)
    for uid in uids:
        tree.insert(mover(uid))
    tree.btree.pool.flush()
    tree.btree.pool.clear()
    disk.fail_read_pages.update(range(disk.allocated_count))

    pipeline = UpdatePipeline(tree, capacity=4)
    for uid in range(3):
        pipeline.submit(mover(uid, x=700.0, t=5.0))
    with pytest.raises(DiskFaultError):
        pipeline.submit(mover(3, x=700.0, t=5.0))
    assert pipeline.pending == 4

    disk.heal()
    # The next submission trips the capacity trigger again; this time
    # the batch (old states plus the new one) lands.
    pipeline.submit(mover(4, x=700.0, t=5.0))
    assert pipeline.pending == 0
    assert pipeline.stats.ops == 5
    tree.btree.check_invariants()


# ----------------------------------------------------------------------
# extend() pntp plumbing and fan-out ordering
# ----------------------------------------------------------------------


def _pntp_by_uid(tree):
    return {
        obj.uid: pntp
        for obj, pntp in (
            tree.records.unpack(uid, payload) for _, uid, payload in tree.btree.items()
        )
    }


def test_extend_accepts_pairs_and_parallel_pntps():
    tree = make_peb(range(10))
    pipeline = UpdatePipeline(tree, capacity=100)
    pipeline.extend([(mover(0), 3), mover(1), (mover(2), 5)])
    pipeline.extend([mover(3), mover(4)], pntps=[7, 0])
    pipeline.flush()
    assert _pntp_by_uid(tree) == {0: 3, 1: 0, 2: 5, 3: 7, 4: 0}


def test_extend_rejects_mismatched_pntps():
    tree = make_peb(range(4))
    pipeline = UpdatePipeline(tree, capacity=100)
    with pytest.raises(ValueError):
        pipeline.extend([mover(0), mover(1)], pntps=[1])


def test_monitor_fanout_follows_last_arrival_order():
    """A superseded state's slot moves to the end of the batch: the
    fan-out order monitors see is the order states actually arrived."""
    tree = make_peb(range(10))
    pipeline = UpdatePipeline(tree, capacity=100)
    monitor = RecordingMonitor()
    pipeline.attach_monitor(monitor)
    pipeline.submit(mover(1, x=10.0))
    pipeline.submit(mover(2, x=20.0))
    pipeline.submit(mover(1, x=99.0))
    pipeline.flush()
    assert [obj.uid for obj in monitor.seen] == [2, 1]
    assert monitor.seen[1].x == 99.0


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------

TINY = ExperimentConfig(
    n_users=400, n_policies=6, n_queries=4, page_size=1024, seed=13
)


def test_apply_update_round_via_pipeline_matches_plain():
    plain = ExperimentHarness(TINY)
    piped = ExperimentHarness(TINY)
    pipeline = UpdatePipeline(piped.peb, capacity=64)
    for _ in range(2):
        plain.apply_update_round(0.25)
        piped.apply_update_round(0.25, pipeline=pipeline)
    assert plain.peb.live.keys == piped.peb.live.keys
    assert list(plain.peb.btree.items()) == list(piped.peb.btree.items())
    piped.peb.btree.check_invariants()


def test_apply_update_round_rejects_foreign_pipeline():
    harness = ExperimentHarness(TINY)
    other = ExperimentHarness(TINY)
    pipeline = UpdatePipeline(other.peb)
    with pytest.raises(ValueError):
        harness.apply_update_round(0.25, pipeline=pipeline)


def test_run_batched_updates_reports_and_preserves_contents():
    harness = ExperimentHarness(TINY)
    costs = harness.run_batched_updates(batch_size=32)
    assert costs.n_updates == 100  # 25% of 400
    assert costs.batch_size == 32
    assert costs.sequential_io >= 0.0
    assert costs.batched_io >= 0.0
    assert costs.io_reduction > 0.0
    assert costs.descents_saved >= 0
    # The measured round really advanced the harness.
    second = harness.run_batched_updates(batch_size=64)
    assert second.n_updates == 100
    harness.peb.btree.check_invariants()


def test_run_batched_updates_rejects_bad_batch_size():
    harness = ExperimentHarness(TINY)
    with pytest.raises(ValueError):
        harness.run_batched_updates(batch_size=0)


# ----------------------------------------------------------------------
# Non-finite states are rejected at the door
# ----------------------------------------------------------------------

NON_FINITE = [
    (field, value)
    for field in ("x", "y", "vx", "vy", "t_update")
    for value in (float("nan"), float("inf"), float("-inf"))
]


def _poison_world():
    world = build_world(n_users=120, n_policies=6, seed=5)
    uids = sorted(world.states)
    good = [replace(world.states[uid], x=500.0, y=400.0 + uid) for uid in uids[:10]]
    return world, good


#: The poison's update time: in the buffered state's partition, or one
#: phase (60 time units with ``build_world``'s partitioner) later, where a
#: finite state would trigger a rollover flush.  A non-finite
#: ``t_update`` has no phase, so it gets the first case only.
POISON_CASES = [
    pytest.param(field, value, shift, id=f"{field}-{value}-{phase}")
    for field, value in NON_FINITE
    for phase, shift in (("same_phase", 0.0), ("next_phase", 60.0))
    if not (field == "t_update" and shift)
]


@pytest.mark.parametrize("field,value,shift", POISON_CASES)
def test_submit_rejects_a_non_finite_state_and_keeps_working(field, value, shift):
    """One poison state used to wedge the pipeline for good: buffered
    unseen, it killed every flush in key planning, was restored with
    the batch, and every later submit raised while the buffer grew."""
    world, good = _poison_world()
    pipeline = UpdatePipeline(world.peb, capacity=4)
    monitor = RecordingMonitor()
    pipeline.attach_monitor(monitor)
    pipeline.submit(good[0])
    poison = replace(good[1], **{"t_update": good[1].t_update + shift, field: value})
    partition = world.peb.partitioner.partition
    if shift:
        assert partition(poison.t_update) != partition(good[0].t_update)
    with pytest.raises(ValueError, match=rf"user {poison.uid}\b.*\b{field}\b"):
        pipeline.submit(poison)
    # Rejected before the rollover test, the buffer and any flush.
    assert pipeline.pending == 1
    assert pipeline.stats.flushes == 0 and monitor.seen == []
    for obj in good[1:]:
        pipeline.submit(obj)  # none of these raises
    assert pipeline.flush() == 2  # 4 + 4 went on capacity
    assert pipeline.pending == 0 and pipeline.stats.ops == len(good)
    assert [obj.uid for obj in monitor.seen] == [obj.uid for obj in good]
    by_uid = {obj.uid: obj for obj in world.peb.fetch_all()}
    assert all(by_uid[obj.uid] == obj for obj in good)
    assert world.peb.check_consistency() == []
    world.peb.btree.check_invariants()


def test_extend_stops_at_a_non_finite_state_in_the_middle():
    """Items before the bad one are buffered or applied, the bad one
    raises, nothing after it is looked at — and the pipeline goes on."""
    world, good = _poison_world()
    pipeline = UpdatePipeline(world.peb, capacity=4)
    poison = replace(good[6], y=float("inf"))
    with pytest.raises(ValueError, match=rf"user {poison.uid}\b.*\by\b"):
        pipeline.extend(good[:6] + [(poison, 3)] + good[7:])
    assert pipeline.stats.ops == 4 and pipeline.pending == 2
    assert poison.uid not in pipeline.buffer
    pipeline.extend(good[6:])
    pipeline.flush()
    assert pipeline.pending == 0 and pipeline.stats.ops == len(good)
    by_uid = {obj.uid: obj for obj in world.peb.fetch_all()}
    assert all(by_uid[obj.uid] == obj for obj in good)
    assert world.peb.check_consistency() == []
