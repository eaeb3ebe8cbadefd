"""The service under faults: load shedding and degraded operation.

The queue's ``shed_after_us`` deadline is the last rung of graceful
degradation — answer some requests not-at-all rather than all of them
arbitrarily late — and the worker is the integration point where the
fault layer's counters surface as :class:`ServiceStats` availability.
These tests cover the shedding mechanics at the queue level and the
end-to-end service runs the fault-recovery benchmark gates on: a
transient schedule retried to 100% availability, and a quarantined
shard degrading queries and deferring updates without killing the run.
"""

import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.fault import BreakerPolicy, RetryPolicy
from repro.service import BatchPolicy, RequestQueue, update_request
from repro.storage.faults import FaultyDisk, TransientFaultSchedule

from tests.test_peb_tree import mover


def upd(seq, arrival_us, uid=0):
    return update_request(seq, arrival_us, mover(uid))


# ----------------------------------------------------------------------
# Queue-level shedding
# ----------------------------------------------------------------------


def test_shed_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(shed_after_us=0.0)
    with pytest.raises(ValueError):
        BatchPolicy(shed_after_us=-5.0)
    assert BatchPolicy().shed_after_us is None  # default: never shed


def test_shed_drops_the_stale_head_prefix_and_serves_the_rest():
    requests = [upd(0, 0.0), upd(1, 10.0, 1), upd(2, 950.0, 2), upd(3, 960.0, 3)]
    queue = RequestQueue(
        requests, BatchPolicy(max_batch=8, max_wait_us=50.0, shed_after_us=100.0)
    )
    # The worker frees late: the first two waited > 100us, the last two
    # are fresh.  Pending is in arrival order, so the shed set is
    # exactly the head prefix.
    batch = queue.next_batch(free_at=1000.0)
    assert [r.seq for r in batch.shed] == [0, 1]
    assert [r.seq for r in batch.requests] == [2, 3]
    assert batch.dispatch_us == 1000.0
    assert queue.next_batch(free_at=batch.dispatch_us) is None


def test_shed_can_empty_a_batch_and_conserves_every_request():
    stamps = [0.0, 5.0, 10.0, 15.0, 2000.0, 2005.0]
    requests = [upd(seq, stamp, uid=seq) for seq, stamp in enumerate(stamps)]
    queue = RequestQueue(
        requests, BatchPolicy(max_batch=2, max_wait_us=20.0, shed_after_us=50.0)
    )
    served, shed = [], []
    free_at = 500.0  # the worker only frees long after the first wave
    while (batch := queue.next_batch(free_at)) is not None:
        served.extend(r.seq for r in batch.requests)
        shed.extend(r.seq for r in batch.shed)
        free_at = batch.dispatch_us
    # The whole first wave sheds — including requests past the batch
    # cap, which the shed loop keeps absorbing — and a batch may come
    # out empty.  Nothing is lost and nothing is served twice.
    assert shed == [0, 1, 2, 3]
    assert served == [4, 5]
    assert queue.exhausted


def test_shed_disabled_never_drops():
    requests = [upd(seq, float(seq)) for seq in range(4)]
    queue = RequestQueue(requests, BatchPolicy(max_batch=2, max_wait_us=10.0))
    free_at, total = 1e6, 0
    while (batch := queue.next_batch(free_at)) is not None:
        assert batch.shed == []
        total += len(batch)
        free_at = batch.dispatch_us
    assert total == 4


# ----------------------------------------------------------------------
# End-to-end service runs under faults
# ----------------------------------------------------------------------

CONFIG = ExperimentConfig(
    n_users=300,
    n_policies=6,
    n_queries=4,
    page_size=1024,
    build_buffer_pages=1024,
    seed=29,
)


def shard_disks(deployment) -> list[FaultyDisk]:
    disks = []
    for tree in deployment.trees:
        disk = tree.btree.pool.disk
        while hasattr(disk, "inner"):
            disk = disk.inner
        disks.append(disk)
    return disks


def run(harness, *, pin, arm=None, fault_policy=None, breaker_policy=None,
        shed_after_us=None, rate=3000.0):
    return harness.run_service(
        rate,
        n_requests=48,
        max_batch=8,
        max_wait_us=1000.0,
        n_shards=2,
        latency="ssd",
        update_fraction=0.5,
        knn_fraction=0.25,  # serve_mixed's share: retried PkNN fetches pin too
        shard_buffer_pages=12,  # small: reads go physical, faults fire
        pin=pin,
        disk_factory=lambda shard: FaultyDisk(page_size=CONFIG.page_size),
        fault_policy=fault_policy,
        breaker_policy=breaker_policy,
        shed_after_us=shed_after_us,
        arm_faults=arm,
    )


def test_timed_service_sheds_under_overload():
    harness = ExperimentHarness(CONFIG)
    # The whole stream arrives in ~1ms of virtual time while each ssd
    # batch takes longer than the 200us deadline to serve: the queue
    # must shed rather than stretch the served tail without bound.
    costs = run(harness, pin=False, shed_after_us=200.0, rate=50000.0)
    stats = costs.stats
    assert stats.n_shed > 0
    assert stats.n_requests == 48 - stats.n_shed  # served + shed = stream
    assert stats.availability < 1.0
    snapshot = costs.snapshot()
    assert snapshot["stats"]["n_shed"] == stats.n_shed
    assert snapshot["stats"]["availability"] == stats.availability


def test_service_retries_through_transient_faults_and_still_pins():
    harness = ExperimentHarness(CONFIG)
    schedule = TransientFaultSchedule(fail_reads=(3, 50), fail_writes=(2,))

    def arm(deployment):
        disks = shard_disks(deployment)
        for disk in disks:
            disk.heal()  # counters restart at 0: the indices are live
            disk.schedule = schedule

        def disarm():
            for disk in disks:
                disk.heal()

        return disarm

    # 3 failing indices < 4 attempts: exhaustion impossible, and the
    # pin (pin=True) checks the retried run, PkNN answers included, is
    # bit-identical to an untimed fault-free replay.
    costs = run(
        harness,
        pin=True,
        arm=arm,
        fault_policy=RetryPolicy(max_attempts=4),
        breaker_policy=BreakerPolicy(),
    )
    stats = costs.stats
    faults = stats.fault_stats
    assert costs.pinned
    assert "knn" in stats.per_class  # the stream served PkNNs
    assert faults is not None and faults.faults > 0
    assert faults.exhausted == 0 and faults.quarantines == 0
    assert stats.availability == 1.0
    assert stats.n_shed == 0 and stats.degraded_queries == 0
    assert stats.unapplied_updates == 0


def test_service_survives_a_quarantined_shard_degraded():
    harness = ExperimentHarness(CONFIG)

    def arm(deployment):
        disks = shard_disks(deployment)
        disks[0].heal()
        disks[0].fail_every_nth_read = 1  # every read fails, forever

        def disarm():
            disks[0].heal()

        return disarm

    costs = run(
        harness,
        pin=False,  # results legitimately diverge from the clean twin
        arm=arm,
        fault_policy=RetryPolicy(),
        breaker_policy=BreakerPolicy(),
    )
    stats = costs.stats
    faults = stats.fault_stats
    # The worker survived the dead shard and answered everything it
    # could: all requests dispatched, none shed.
    assert stats.n_requests == 48
    assert stats.n_shed == 0
    assert faults is not None
    assert faults.quarantines >= 1
    assert faults.bands_dropped > 0
    assert stats.degraded_queries > 0
    # Updates routed to the dead shard were deferred, not lost: they
    # sit in the buffer (unapplied) and availability prices them in.
    assert stats.unapplied_updates > 0
    assert 0.5 <= stats.availability < 1.0  # the (N-1)/N floor, N=2
    snapshot = costs.snapshot()
    assert snapshot["stats"]["fault_stats"]["quarantines"] == faults.quarantines
    assert snapshot["stats"]["degraded_queries"] == stats.degraded_queries
