"""Checkpoint-based shard recovery: rebuild a quarantined shard in place.

:class:`repro.shard.ShardCheckpointer` is the durable half of the
fault-tolerance layer: per-shard checkpoints plus replay logs let a
shard whose on-disk state is damaged be restored to its checkpoint,
the post-checkpoint updates replayed through the tree's own batch
path, and its breaker closed — all without touching the other shards.
"""

from repro.engine import QueryEngine
from repro.fault import BreakerPolicy, RetryPolicy
from repro.shard import ShardCheckpointer
from repro.storage.faults import FaultyDisk

from tests.conftest import build_world

N_SHARDS = 3
PAGE_SIZE = 1024

WORLD = build_world(n_users=130, n_policies=6, seed=17)
STREAM = WORLD.query_generator().update_stream(WORLD.states, 90, 3.0, 0.0, 100.0)
BATCH = [(obj, obj.uid % 3) for obj in STREAM]


def deploy():
    sharded = WORLD.deploy(
        N_SHARDS,
        buffer_pages=16,
        disk_factory=lambda shard: FaultyDisk(page_size=PAGE_SIZE),
        fault_policy=RetryPolicy(max_attempts=2, base_backoff_us=0.0),
        breaker_policy=BreakerPolicy(),
    )
    for pool in sharded.pools:
        pool.clear()
    return sharded


def shard_disk(sharded, shard) -> FaultyDisk:
    disk = sharded.trees[shard].btree.pool.disk
    while hasattr(disk, "inner"):
        disk = disk.inner
    return disk


def reference_items():
    sharded = deploy()
    sharded.update_batch(list(BATCH))
    return list(sharded.items())


REFERENCE_ITEMS = reference_items()


def test_checkpoint_logs_and_truncation(tmp_path):
    sharded = deploy()
    checkpointer = ShardCheckpointer(sharded, str(tmp_path))
    assert sharded.checkpointer is checkpointer
    checkpointer.checkpoint()  # post-build baseline

    sharded.update_batch(list(BATCH))
    logged = [checkpointer.log_length(shard) for shard in range(N_SHARDS)]
    assert sum(logged) == len(BATCH)  # every applied item logged, once
    assert all(n > 0 for n in logged)  # this workload hits every shard

    checkpointer.checkpoint(1)  # one shard: only its log truncates
    assert checkpointer.log_length(1) == 0
    assert checkpointer.log_length(0) == logged[0]
    checkpointer.checkpoint()
    assert all(
        checkpointer.log_length(shard) == 0 for shard in range(N_SHARDS)
    )


def test_recover_restores_checkpoint_plus_replay(tmp_path):
    sharded = deploy()
    checkpointer = ShardCheckpointer(sharded, str(tmp_path))
    checkpointer.checkpoint()
    sharded.update_batch(list(BATCH))
    assert list(sharded.items()) == REFERENCE_ITEMS

    # Damage shard 1: roll a handful of its users back to their
    # pre-batch states directly through the shard tree, bypassing the
    # facade — the shard now diverges from checkpoint + log.
    batch_uids = {obj.uid for obj, _ in BATCH}
    stale = [
        (WORLD.states[uid], uid % 3)
        for uid in sorted(batch_uids)
        if sharded.router.shard_of_key(sharded.live_keys()[uid]) == 1
    ][:8]
    assert stale  # this workload updates users on every shard
    sharded.trees[1].update_batch(stale)
    assert list(sharded.items()) != REFERENCE_ITEMS  # actually damaged

    replayed = checkpointer.recover(1)
    assert replayed == checkpointer.log_length(1)  # log kept, not cleared
    assert replayed > 0
    assert list(sharded.items()) == REFERENCE_ITEMS

    # Recovery is repeatable from the same checkpoint: replay restores
    # first, so a second recovery lands on the same state.
    assert checkpointer.recover(1) == replayed
    assert list(sharded.items()) == REFERENCE_ITEMS


def test_recover_closes_the_breaker_and_requeues_deferred(tmp_path):
    """The full degraded-to-healthy arc: quarantine, defer, heal,
    recover, re-apply — ending bit-identical to the fault-free run."""
    sharded = deploy()
    checkpointer = ShardCheckpointer(sharded, str(tmp_path))
    checkpointer.checkpoint()

    dead = 1
    disk = shard_disk(sharded, dead)
    disk.heal()
    disk.fail_every_nth_read = 1

    result = sharded.update_batch(list(BATCH))
    assert sharded.supervisor.is_quarantined(dead)
    assert result.deferred  # the dead shard's updates were deferred ...
    assert checkpointer.log_length(dead) == 0  # ... and never logged

    disk.heal()
    replayed = checkpointer.recover(dead)
    assert replayed == 0  # nothing post-checkpoint ever applied there
    assert not sharded.supervisor.is_quarantined(dead)
    assert sharded.supervisor.stats.recoveries >= 1

    # The deferred states re-apply through the normal path and the
    # deployment converges on the fault-free end state.
    sharded.update_batch(list(result.deferred))
    assert list(sharded.items()) == REFERENCE_ITEMS

    # And the recovered shard serves queries again, un-degraded.
    specs = WORLD.query_generator().range_queries(WORLD.uids, 6, 240.0, 100.0)
    report = QueryEngine(sharded).execute_batch(specs)
    assert report.degraded == [False] * len(specs)


def test_recovered_shard_checkpoints_again(tmp_path):
    """checkpoint -> update -> recover -> checkpoint -> update -> recover:
    the second cycle replays only the second tail."""
    sharded = deploy()
    checkpointer = ShardCheckpointer(sharded, str(tmp_path))
    checkpointer.checkpoint()

    half = len(BATCH) // 2
    sharded.update_batch(list(BATCH[:half]))
    first_tail = checkpointer.log_length(0)
    checkpointer.checkpoint(0)  # new baseline for shard 0
    sharded.update_batch(list(BATCH[half:]))
    second_tail = checkpointer.log_length(0)
    assert first_tail > 0 and second_tail > 0

    expected = list(sharded.items())
    assert checkpointer.recover(0) == second_tail
    assert list(sharded.items()) == expected
