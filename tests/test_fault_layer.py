"""Unit tests for the fault-tolerance building blocks.

Covers the pieces of :mod:`repro.fault` in isolation — retry policy
arithmetic, the circuit-breaker state machine, the shard supervisor's
retry/quarantine/accounting contract — plus the buffer pool's sweep
guard, the no-steal window that makes write sweeps retryable.
"""

import pytest

from repro.fault import (
    BreakerPolicy,
    CircuitBreaker,
    FaultStats,
    RetryPolicy,
    ShardSupervisor,
)
from repro.fault.breaker import CLOSED, HALF_OPEN, OPEN
from repro.fault.retry import RetryExhaustedError, call_with_retry
from repro.simio.clock import SimClock
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import DiskFaultError
from repro.storage.page import RawBytesSerializer


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_us=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(
        base_backoff_us=100.0, multiplier=2.0, max_backoff_us=350.0, jitter=0.0
    )
    assert policy.backoff_us(1) == 100.0
    assert policy.backoff_us(2) == 200.0
    assert policy.backoff_us(3) == 350.0  # capped, not 400
    assert policy.backoff_us(9) == 350.0


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_backoff_us=100.0, jitter=0.25)
    a = policy.backoff_us(1, token=0)
    b = policy.backoff_us(1, token=1)
    assert a == policy.backoff_us(1, token=0)  # replayable
    assert a != b  # tokens desynchronize
    for token in range(8):
        value = policy.backoff_us(1, token=token)
        assert 100.0 <= value <= 125.0  # within the jitter headroom


def test_call_with_retry_masks_transients_and_prices_backoff():
    clock = SimClock()
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise DiskFaultError("flaky")
        return "ok"

    policy = RetryPolicy(max_attempts=4, base_backoff_us=100.0, jitter=0.0)
    assert call_with_retry(flaky, policy, clock=clock) == "ok"
    assert calls["n"] == 3
    assert clock.elapsed == pytest.approx(100.0 + 200.0)  # two backoffs


def test_call_with_retry_exhausts_with_chained_cause():
    def always():
        raise DiskFaultError("permanent")

    policy = RetryPolicy(max_attempts=3, base_backoff_us=0.0)
    with pytest.raises(RetryExhaustedError) as excinfo:
        call_with_retry(always, policy, token="shard7")
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.last_error, DiskFaultError)


def test_call_with_retry_propagates_non_retryable():
    def bug():
        raise KeyError("not a medium fault")

    with pytest.raises(KeyError):
        call_with_retry(bug, RetryPolicy())


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


def test_breaker_policy_validation():
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(ValueError):
        BreakerPolicy(cooldown_us=-1.0)
    with pytest.raises(ValueError):
        BreakerPolicy(cooldown_calls=0)


def test_breaker_opens_at_threshold_and_probes_after_cooldown():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
    assert breaker.state == CLOSED
    assert not breaker.record_failure(now=0.0)  # 1 of 2
    assert breaker.record_failure(now=10.0)  # opens
    assert breaker.state == OPEN and breaker.quarantined

    allowed, probing = breaker.allow(now=10.0, cooldown=100.0)
    assert (allowed, probing) == (False, False)  # still cooling down
    allowed, probing = breaker.allow(now=110.0, cooldown=100.0)
    assert (allowed, probing) == (True, True)  # the half-open probe
    assert breaker.state == HALF_OPEN


def test_probe_success_recovers_probe_failure_reopens():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
    breaker.record_failure(now=0.0)
    breaker.allow(now=100.0, cooldown=50.0)
    assert breaker.record_failure(now=100.0)  # probe failed: reopen counts
    assert breaker.state == OPEN

    breaker.allow(now=200.0, cooldown=50.0)
    assert breaker.record_success()  # probe passed: a recovery
    assert breaker.state == CLOSED and not breaker.quarantined


def test_breaker_reset_force_closes():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
    assert not breaker.reset()  # closed already: not a recovery
    breaker.record_failure(now=0.0)
    assert breaker.reset()
    assert breaker.state == CLOSED


# ----------------------------------------------------------------------
# ShardSupervisor
# ----------------------------------------------------------------------


def test_supervisor_retries_to_success_and_counts():
    supervisor = ShardSupervisor(
        2, retry=RetryPolicy(max_attempts=3, base_backoff_us=0.0)
    )
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 1:
            raise DiskFaultError("once")
        return 41 + 1

    ok, result = supervisor.run(0, flaky)
    assert (ok, result) == (True, 42)
    assert supervisor.stats.faults == 1
    assert supervisor.stats.retries == 1
    assert supervisor.stats.exhausted == 0
    assert supervisor.quarantined() == []


def test_supervisor_exhaustion_quarantines_and_degrades():
    supervisor = ShardSupervisor(
        3, retry=RetryPolicy(max_attempts=2, base_backoff_us=0.0)
    )

    def always():
        raise DiskFaultError("dead shard")

    ok, result = supervisor.run(1, always)
    assert (ok, result) == (False, None)
    assert supervisor.stats.exhausted == 1
    assert supervisor.stats.quarantines == 1
    assert supervisor.is_quarantined(1)
    assert supervisor.quarantined() == [1]
    assert not supervisor.admits(1)
    assert supervisor.admits(0) and supervisor.admits(2)


def test_supervisor_probe_recovers_after_cooldown_calls():
    supervisor = ShardSupervisor(
        1,
        retry=RetryPolicy(max_attempts=1),
        breaker=BreakerPolicy(failure_threshold=1, cooldown_calls=3),
    )
    supervisor.run(0, lambda: (_ for _ in ()).throw(DiskFaultError("x")))
    assert supervisor.is_quarantined(0)
    # Untimed: the cooldown is measured in admission calls.
    denied = 0
    while not supervisor.admits(0):
        denied += 1
        assert denied < 20
    assert supervisor.stats.probes == 1
    ok, _ = supervisor.run(0, lambda: "healthy")
    assert ok
    assert supervisor.stats.recoveries == 1
    assert not supervisor.is_quarantined(0)


def test_supervisor_backoff_charges_virtual_time():
    clock = SimClock()
    supervisor = ShardSupervisor(
        1,
        retry=RetryPolicy(max_attempts=2, base_backoff_us=500.0, jitter=0.0),
        clock=clock,
    )
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        if state["n"] == 1:
            raise DiskFaultError("once")
        return None

    supervisor.run(0, flaky)
    assert clock.elapsed == pytest.approx(500.0)
    assert supervisor.stats.backoff_us == pytest.approx(500.0)


def test_supervisor_propagates_non_retryable_without_quarantine():
    supervisor = ShardSupervisor(1)

    def bug():
        raise AssertionError("caller bug, not a medium fault")

    with pytest.raises(AssertionError):
        supervisor.run(0, bug)
    assert supervisor.stats.faults == 0
    assert not supervisor.is_quarantined(0)


def test_supervisor_reset_counts_recovery():
    supervisor = ShardSupervisor(2, retry=RetryPolicy(max_attempts=1))
    supervisor.run(1, lambda: (_ for _ in ()).throw(DiskFaultError("x")))
    assert supervisor.is_quarantined(1)
    supervisor.reset(1)
    assert not supervisor.is_quarantined(1)
    assert supervisor.stats.recoveries == 1
    supervisor.reset(1)  # idempotent: closed stays closed, no recovery
    assert supervisor.stats.recoveries == 1


def test_fault_stats_delta_and_snapshot():
    stats = FaultStats(faults=3, retries=2, backoff_us=100.0, bands_dropped=1)
    before = stats.copy()
    stats.faults += 2
    stats.updates_deferred += 5
    delta = stats.delta_from(before)
    assert delta.faults == 2
    assert delta.retries == 0
    assert delta.updates_deferred == 5
    assert delta.any_degradation
    assert not FaultStats(faults=9, retries=9).any_degradation
    snapshot = delta.snapshot()
    assert snapshot["faults"] == 2 and snapshot["updates_deferred"] == 5


# ----------------------------------------------------------------------
# Sweep guard (the no-steal window write sweeps retry under)
# ----------------------------------------------------------------------


def make_pool(capacity=4):
    disk = SimulatedDisk(page_size=64)
    return BufferPool(disk, capacity=capacity, serializer=RawBytesSerializer())


def test_sweep_guard_requires_clean_pool_and_no_nesting():
    pool = make_pool()
    page = pool.disk.allocate()
    pool.put(page, b"dirty")
    with pytest.raises(RuntimeError, match="clean pool"):
        pool.begin_sweep_guard()
    pool.flush()
    pool.begin_sweep_guard()
    with pytest.raises(RuntimeError, match="already active"):
        pool.begin_sweep_guard()
    pool.commit_sweep_guard()
    with pytest.raises(RuntimeError, match="no sweep guard"):
        pool.commit_sweep_guard()
    with pytest.raises(RuntimeError, match="no sweep guard"):
        pool.rollback_sweep_guard()


def test_sweep_guard_rollback_restores_pre_sweep_state():
    pool = make_pool()
    disk = pool.disk
    page = disk.allocate()
    pool.put(page, b"before")
    pool.flush()

    pool.begin_sweep_guard()
    pool.put(page, b"after")  # dirty the pre-existing page
    split = disk.allocate()  # a guard-window allocation (a split)
    pool.put(split, b"new leaf")
    pool.rollback_sweep_guard()

    assert not pool.guard_active
    assert not pool.dirty_pages
    assert disk.read(page) == b"before"  # never stolen, never flushed
    assert not disk.contains(split)  # the split page was freed
    assert split not in pool


def test_sweep_guard_keeps_a_freed_page_until_commit():
    """A merge frees a pre-existing page mid-sweep; its image is undo
    state, so the disk gives it up at commit, never before a rollback
    (the tree used to free it on the disk directly and a rolled-back
    sweep then read a page that no longer existed)."""
    pool = make_pool()
    disk = pool.disk
    kept, merged = disk.allocate(), disk.allocate()
    pool.put(kept, b"left")
    pool.put(merged, b"right")
    pool.flush()

    pool.begin_sweep_guard()
    pool.put(kept, b"left+right")
    pool.free(merged)
    assert merged not in pool
    pool.rollback_sweep_guard()
    assert pool.get(kept) == b"left" and pool.get(merged) == b"right"

    pool.begin_sweep_guard()
    pool.put(kept, b"left+right")
    pool.free(merged)
    pool.commit_sweep_guard()
    assert disk.read(kept) == b"left+right"
    assert not disk.contains(merged)

    pool.free(kept)  # no guard: released at once
    assert kept not in pool and not disk.contains(kept)


def test_rolled_back_sweep_that_merged_leaves_restores_the_tree():
    from repro.btree.tree import BPlusTree, BTreeConfig

    pool = BufferPool(SimulatedDisk(page_size=256), capacity=2)
    tree = BPlusTree(pool, BTreeConfig(key_bytes=8, value_bytes=16, page_size=256))
    for key in range(9):  # one split: two leaves under a root
        tree.insert(key, 0, b"v" * 16)
    before = list(tree.items())
    pool.flush()

    pool.begin_sweep_guard()
    shape = (tree.root_id, tree.height, tree.leaf_count, tree.entry_count)
    tree.apply_sorted_batch([("delete", key, 0, None) for key in (0, 1, 4)])
    assert tree.leaf_count == 1  # the sweep merged the leaves
    pool.rollback_sweep_guard()
    tree.root_id, tree.height, tree.leaf_count, tree.entry_count = shape

    tree.check_invariants()
    assert list(tree.items()) == before


def test_sweep_guard_never_steals_dirty_frames():
    pool = make_pool(capacity=2)
    disk = pool.disk
    pages = [disk.allocate() for _ in range(4)]
    for page in pages[:2]:
        pool.put(page, b"seed")
    pool.flush()

    pool.begin_sweep_guard()
    for page in pages:
        pool.put(page, bytes([page]))  # all dirty: pool must over-fill
    assert len(pool) == 4  # capacity exceeded rather than dirty-evict
    for page in pages[:2]:
        assert disk.read(page) == b"seed"  # disk still pre-sweep
    pool.commit_sweep_guard()
    assert len(pool) <= pool.capacity  # commit re-trims to capacity
    for page in pages:
        assert disk.read(page) == bytes([page])


def test_sweep_guard_commit_survives_a_write_fault_and_resumes():
    """A commit-time write fault leaves the guard resumable: nothing is
    lost, and re-committing finishes the flush idempotently."""
    from repro.storage.faults import FaultyDisk

    disk = FaultyDisk(page_size=64)
    pool = BufferPool(disk, capacity=4, serializer=RawBytesSerializer())
    pages = [disk.allocate() for _ in range(3)]
    for page in pages:
        pool.put(page, b"seed")
    pool.flush()

    pool.begin_sweep_guard()
    for page in pages:
        pool.put(page, bytes([page]))
    disk.fail_write_pages.add(pages[1])
    with pytest.raises(DiskFaultError):
        pool.commit_sweep_guard()
    assert pool.guard_active  # fault left the window open ...
    assert pages[1] in pool.dirty_pages  # ... and the undo state intact

    disk.heal()
    pool.commit_sweep_guard()  # resume: re-flush, idempotent
    assert not pool.guard_active
    for page in pages:
        assert disk.read(page) == bytes([page])


def test_invalidate_abandons_frames_dirty_set_and_guard():
    pool = make_pool()
    page = pool.disk.allocate()
    pool.put(page, b"v")
    pool.flush()
    pool.begin_sweep_guard()
    pool.put(page, b"w")
    pool.invalidate()
    assert len(pool) == 0
    assert not pool.dirty_pages
    assert not pool.guard_active
    assert pool.disk.read(page) == b"v"  # nothing was written back
