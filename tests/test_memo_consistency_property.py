"""Property pin: the update memo equals the index after every step.

Every tree keeps the update memo ``_live_keys`` (uid -> live PEB-key).
The write path reads it to find a user's stale entry, and a served PkNN
reads it to find and bound every visible friend
(:meth:`repro.engine.plan.QueryPlanner.plan_knn_probe`): a memo that
disagrees with the entries silently drops a friend from an answer.
So after every step of a random history on a supervised 1- and 4-shard
deployment, ``check_consistency()`` must be empty — no entry the memo
does not know or knows under another key, no memoized user without an
entry, no user owned by two shards, no user the deployment's merged
memo (what ``live_key`` reads) holds otherwise than its shard's memo —
and ``live_key`` must answer what the merged memo holds.  The steps:

* buffered updates through an :class:`UpdatePipeline` (small capacity,
  so some flush on their own) and explicit flushes;
* partition rollover: later updates report one phase later, so their
  keys move to the next time partition;
* transient read and write faults on one shard during a flush — retried,
  or rolled back by the sweep guard when the retries run out;
* a dead shard: every read fails, the shard is quarantined, its updates
  are deferred back into the buffer and the disk is healed afterwards
  (the breaker admits a probe after its cooldown);
* a checkpoint of every shard, and a shard recovered from its
  checkpoint plus replay log.

The unsupervised flush that faults after its first page mutation is not
drawn: it leaves the tree partly applied with the memo at pre-batch
keys (ROADMAP item 2(ii)), and no supervised deployment reaches it.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn
from repro.core.pknn import pknn
from repro.engine import UpdatePipeline
from repro.fault import BreakerPolicy, RetryPolicy
from repro.motion import MovingObject
from repro.shard import ShardCheckpointer
from repro.storage.faults import FaultyDisk, TransientFaultSchedule

from tests.conftest import build_world

PAGE_SIZE = 1024
WORLD = build_world(n_users=120, n_policies=5, seed=23)
PHASE = WORLD.partitioner.phase
#: One tier-1 example per five of the loaded profile's: 20 by default.
EXAMPLES = max(20, settings.default.max_examples // 5)


def deploy(n_shards):
    sharded = WORLD.deploy(
        n_shards,
        buffer_pages=8,  # small: sweeps evict dirty pages, so writes fault
        disk_factory=lambda shard: FaultyDisk(page_size=PAGE_SIZE),
        fault_policy=RetryPolicy(max_attempts=2, base_backoff_us=0.0),
        breaker_policy=BreakerPolicy(cooldown_calls=3),
    )
    for pool in sharded.pools:
        pool.clear()
    return sharded


def disk_of(sharded, shard) -> FaultyDisk:
    disk = sharded.trees[shard].btree.pool.disk
    while hasattr(disk, "inner"):
        disk = disk.inner
    return disk


def heal(sharded):
    for shard in range(len(sharded.trees)):
        disk_of(sharded, shard).heal()


SHARD = st.integers(0, 3)
STEP = st.one_of(
    st.tuples(st.just("update"), st.integers(1, 30), st.integers(0, 2**16)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("rollover")),
    st.tuples(
        st.just("faults"),
        SHARD,
        st.sets(st.integers(1, 60), max_size=4),
        st.sets(st.integers(1, 30), max_size=3),
        st.integers(1, 30),
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("dead"), SHARD, st.integers(1, 30), st.integers(0, 2**16)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("recover"), SHARD),
)


def moved_states(now, count, seed):
    """``count`` users reporting at ``now`` from a fresh position."""
    rng = random.Random(seed)
    side = WORLD.space_side
    return [
        MovingObject(
            uid,
            rng.uniform(0.0, side),
            rng.uniform(0.0, side),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            now,
        )
        for uid in rng.sample(WORLD.uids, count)
    ]


def assert_memo_is_the_index(sharded):
    heal(sharded)  # the audit reads every leaf
    assert sharded.check_consistency() == []
    merged = sharded.live_keys()
    assert len(merged) == len(WORLD.uids)
    assert all(sharded.live_key(uid) == key for uid, key in merged.items())


@pytest.mark.parametrize("n_shards", (1, 4))
@settings(max_examples=EXAMPLES, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=10))
def test_the_memo_equals_the_index_after_every_step(n_shards, steps):
    sharded = deploy(n_shards)
    supervisor = sharded.supervisor
    pipeline = UpdatePipeline(sharded, capacity=16)
    now = 1.0
    with tempfile.TemporaryDirectory() as directory:
        checkpointer = ShardCheckpointer(sharded, directory)
        checkpointer.checkpoint()  # the post-build baseline recovery needs
        for step in steps:
            kind = step[0]
            if kind == "update":
                pipeline.extend(moved_states(now, step[1], step[2]))
            elif kind == "flush":
                pipeline.flush()
            elif kind == "rollover":
                now += PHASE
            elif kind == "faults":
                _, shard, reads, writes, count, seed = step
                disk = disk_of(sharded, shard % n_shards)
                disk.heal()  # attempt counters restart: the indices are live
                disk.schedule = TransientFaultSchedule(reads, writes)
                pipeline.extend(moved_states(now, count, seed))
                pipeline.flush()
            elif kind == "dead":
                _, shard, count, seed = step
                disk = disk_of(sharded, shard % n_shards)
                disk.heal()
                disk.fail_every_nth_read = 1
                pipeline.extend(moved_states(now, count, seed))
                pipeline.flush()
            elif kind == "checkpoint":
                heal(sharded)
                checkpointer.checkpoint()
            else:  # recover
                heal(sharded)
                checkpointer.recover(step[1] % n_shards)
            assert_memo_is_the_index(sharded)
        # Drain what is still buffered once every shard serves again.
        heal(sharded)
        for shard in supervisor.quarantined():
            checkpointer.recover(shard)
        pipeline.flush()
        assert pipeline.pending == 0
        assert_memo_is_the_index(sharded)

    # What a served PkNN reads off the memo is where every friend is:
    # every indexed user whose entry lies in a partition live at ``now``.
    partitioner = WORLD.partitioner
    live = {partitioner.partition_of_label(t) for t in partitioner.live_labels(now)}
    states = {
        obj.uid: obj
        for obj in sharded.fetch_all()
        if sharded.codec.decompose(sharded.live_key(obj.uid))[0] in live
    }
    for issuer in WORLD.uids[:5]:
        answer = pknn(sharded, issuer, 500.0, 500.0, 4, now)
        expected = brute_force_pknn(states, WORLD.store, issuer, 500.0, 500.0, 4, now)
        assert [(round(d, 9), obj.uid) for d, obj in answer.neighbors] == [
            (round(d, 9), uid) for d, uid in expected
        ]
