"""TimedDisk composed with the fault-injection stack, under sharding.

The simulated-latency wrapper must be *transparent to dishonesty*: a
:class:`repro.storage.faults.FaultyDisk` injecting read failures or a
:class:`repro.storage.faults.ChecksummedDisk` detecting corruption
underneath a :class:`repro.simio.disk.TimedDisk` must surface its
error unchanged through the whole sharded stack — per-shard buffer
pools, the scatter/gather scanner, and the I/O scheduler's fork/join.
And because the paper's cost discipline only
counts completed transfers, a failed access charges no virtual time.
"""

import pytest

from repro.engine import QueryEngine
from repro.shard import ShardedPEBTree
from repro.storage.faults import (
    ChecksummedDisk,
    CorruptPageError,
    DiskFaultError,
    FaultyDisk,
)

from tests.conftest import build_world

N_SHARDS = 2


@pytest.fixture(scope="module")
def world():
    return build_world(n_users=220, n_policies=8, seed=17)


def build_timed_sharded(world, disk_factory, buffer_pages=64):
    sharded = ShardedPEBTree.build(
        N_SHARDS,
        world.grid,
        world.partitioner,
        world.store,
        uids=world.uids,
        page_size=1024,
        buffer_pages=512,
        latency="ssd",
        disk_factory=disk_factory,
    )
    for uid in world.uids:
        sharded.insert(world.states[uid])
    for pool in sharded.pools:
        # Cold pools: the next scan must physically read, so injected
        # faults and corrupted pages are actually hit.
        pool.clear()
        pool.resize(buffer_pages)
    return sharded


def batch_specs(world):
    return world.query_generator().range_queries(world.uids, 12, 260.0, 4.0)


def test_injected_fault_surfaces_through_the_timed_parallel_stack(world):
    faulty: list[FaultyDisk] = []

    def factory(shard):
        disk = FaultyDisk(page_size=1024)
        faulty.append(disk)
        return disk

    sharded = build_timed_sharded(world, factory)
    assert all(isinstance(disk, FaultyDisk) for disk in faulty)
    specs = batch_specs(world)
    for disk in faulty:
        disk.fail_every_nth_read = 1  # the first physical read fails

    clock = sharded.sim_clock
    elapsed_before = clock.elapsed
    accesses_before = sharded.latency_stats.accesses
    reads_before = sharded.stats.physical_reads
    engine = QueryEngine(sharded)
    with pytest.raises(DiskFaultError):
        engine.execute_batch(specs)
    assert sum(disk.injected_faults for disk in faulty) > 0
    # Failed accesses charge neither counters nor virtual time.
    assert clock.elapsed == elapsed_before
    assert sharded.latency_stats.accesses == accesses_before
    assert sharded.stats.physical_reads == reads_before

    # Once the medium heals, the same deployment answers correctly —
    # no partial state was kept anywhere in the stack.
    for disk in faulty:
        disk.heal()
    report = QueryEngine(sharded).execute_batch(specs)
    expected = QueryEngine(world.peb).execute_batch(specs)
    for spec, single, shard in zip(specs, expected.results, report.results):
        assert single.uids == shard.uids, spec
        assert single.candidates_examined == shard.candidates_examined, spec
    assert sharded.stats.physical_reads > 0
    assert sharded.latency_stats.busy_us > 0
    assert report.stats.virtual_time_us > 0


def test_corruption_surfaces_through_the_timed_parallel_stack(world):
    checksummed: list[ChecksummedDisk] = []

    def factory(shard):
        disk = ChecksummedDisk(page_size=1024)
        checksummed.append(disk)
        return disk

    sharded = build_timed_sharded(world, factory)
    latency_before = sharded.latency_stats.accesses
    # Flip one bit in every shard's root page image: the first descent
    # anywhere must detect it.
    for tree in sharded.trees:
        timed = tree.btree.pool.disk
        timed.inner.corrupt(tree.btree.root_id, bit=3)

    with pytest.raises(CorruptPageError):
        QueryEngine(sharded).execute_batch(batch_specs(world))
    # The corrupted transfer was detected after the inner read, before
    # the timed layer charged it: no virtual time for a failed access.
    assert sharded.latency_stats.accesses == latency_before


def test_fault_free_timed_fault_stack_matches_the_single_tree(world):
    """The full composition (Timed over Faulty), healthy, is a no-op."""
    sharded = build_timed_sharded(world, lambda shard: FaultyDisk(page_size=1024))
    specs = batch_specs(world)
    report = QueryEngine(sharded).execute_batch(specs)
    expected = QueryEngine(world.peb).execute_batch(specs)
    for spec, single, shard in zip(specs, expected.results, report.results):
        assert single.uids == shard.uids, spec
        assert single.candidates_examined == shard.candidates_examined, spec
    # Counters and latency agree: every counted read was priced.
    assert sharded.latency_stats.reads == sharded.stats.physical_reads
