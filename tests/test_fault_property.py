"""Property pins for the fault-tolerance layer.

Two contracts, stated in :mod:`repro.fault`'s package docstring:

* **Transient-identical** — under any finite fault schedule that
  eventually clears (strictly fewer failing indices than the retry
  policy has attempts, so exhaustion is impossible by construction),
  a supervised deployment's update results, query results (range and
  PkNN specs in one batch), and final tree contents are *bit-identical*
  to the fault-free run.  Hypothesis generates the schedules.
* **Quarantine-subset** — with one shard permanently failing, queries
  return exactly the fault-free results minus entries routed to the
  quarantined shard, every loss is flagged (``degraded``) and counted
  (``bands_dropped``), updates bound for the shard are deferred — not
  lost, not half-applied — and the other shards end bit-identical to
  the fault-free run.

Both hold for single queries too (``prq``, ``pknn``, ``pcount``,
``ContinuousPRQ`` registration), which read through the same supervised
scatter scanner as a batch: a transient fault is retried, and since a
single query's result carries no ``degraded`` flag, a sub-band a
quarantined shard dropped makes it raise rather than answer short.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.aggregate import pcount
from repro.core.continuous import ContinuousPRQ
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.engine import QueryEngine, UpdatePipeline
from repro.fault import BreakerPolicy, RetryPolicy
from repro.storage.faults import DiskFaultError, FaultyDisk, TransientFaultSchedule
from repro.workloads.queries import KnnQuerySpec

from tests.conftest import build_world

N_SHARDS = 3
PAGE_SIZE = 1024
#: max_attempts exceeds the largest possible failing-index count (6+3),
#: so a retried run can never exhaust: each failed attempt permanently
#: consumes at least one failing index of its kind.
RETRY = RetryPolicy(max_attempts=10, base_backoff_us=0.0)

WORLD = build_world(n_users=140, n_policies=6, seed=13)
STREAM = WORLD.query_generator().update_stream(WORLD.states, 120, 3.0, 0.0, 130.0)
BATCH = [(obj, obj.uid % 3) for obj in STREAM]
RANGE_SPECS = WORLD.query_generator().range_queries(WORLD.uids, 10, 280.0, 130.0)
_POINTS = random.Random(29)
KNN_SPECS = [
    KnnQuerySpec(
        _POINTS.choice(WORLD.uids),
        _POINTS.uniform(0.0, WORLD.space_side),
        _POINTS.uniform(0.0, WORLD.space_side),
        4,
        130.0,
    )
    for _ in range(12)
]
#: What the transient-identical pins serve.  The quarantine-subset pin
#: serves ``RANGE_SPECS`` only: a degraded PkNN has no stated contract
#: yet (it may answer a user outside the fault-free k nearest).
SPECS = RANGE_SPECS + KNN_SPECS


def deploy(supervised: bool):
    sharded = WORLD.deploy(
        N_SHARDS,
        buffer_pages=8,  # small: queries and sweeps do physical reads
        disk_factory=lambda shard: FaultyDisk(page_size=PAGE_SIZE),
        fault_policy=RETRY if supervised else None,
        breaker_policy=BreakerPolicy() if supervised else None,
    )
    for pool in sharded.pools:
        pool.clear()
    return sharded


def shard_disks(sharded) -> list[FaultyDisk]:
    disks = []
    for tree in sharded.trees:
        disk = tree.btree.pool.disk
        while hasattr(disk, "inner"):
            disk = disk.inner
        disks.append(disk)
    return disks


def run_reference():
    sharded = deploy(supervised=False)
    before_items = list(sharded.items())
    result = sharded.update_batch(list(BATCH))
    report = QueryEngine(sharded).execute_batch(SPECS)
    return {
        "before_items": before_items,
        "result": result,
        "uids": [r.uids for r in report.results],
        "items": list(sharded.items()),
        "live_keys": dict(sharded.live_keys()),
    }


REFERENCE = run_reference()


def run_fresh_reference():
    """Range results on a fresh (pre-update) fault-free deployment."""
    report = QueryEngine(deploy(supervised=False)).execute_batch(RANGE_SPECS)
    return [r.uids for r in report.results]


FRESH_UIDS = run_fresh_reference()
#: Pre-update live keys (a user's routing key; fixed under SV sharding).
FRESH_KEYS = dict(WORLD.peb.live.keys)


# ----------------------------------------------------------------------
# Transient-identical
# ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    fail_reads=st.sets(st.integers(min_value=1, max_value=600), max_size=6),
    fail_writes=st.sets(st.integers(min_value=1, max_value=150), max_size=3),
)
def test_transient_schedule_runs_bit_identical(fail_reads, fail_writes):
    sharded = deploy(supervised=True)
    schedule = TransientFaultSchedule(
        fail_reads=fail_reads, fail_writes=fail_writes
    )
    for disk in shard_disks(sharded):
        disk.heal()  # counters restart at 0: the indices are live
        disk.schedule = schedule

    result = sharded.update_batch(list(BATCH))
    report = QueryEngine(sharded).execute_batch(SPECS)

    supervisor = sharded.supervisor
    assert supervisor.stats.exhausted == 0  # impossible by construction
    assert supervisor.quarantined() == []
    assert result.deferred == []
    assert result.ops == REFERENCE["result"].ops
    assert result.in_place == REFERENCE["result"].in_place
    assert result.moved == REFERENCE["result"].moved
    assert result.inserted == REFERENCE["result"].inserted
    assert [r.uids for r in report.results] == REFERENCE["uids"]
    assert any(REFERENCE["uids"][len(RANGE_SPECS):])  # PkNN answers too
    assert report.degraded == [False] * len(SPECS)
    for disk in shard_disks(sharded):
        disk.heal()  # the end-state audit must read clean
    assert list(sharded.items()) == REFERENCE["items"]
    # Accounting coherence: every retry answered a fault, and whenever
    # the schedule fired at all, the counters saw it.
    assert supervisor.stats.retries == supervisor.stats.faults


def test_pipeline_fault_stats_exclude_faults_between_flushes():
    """Faults a query batch retried through between two flushes are the
    engine's, not the updater's: the pipeline's ``fault_stats`` is the
    sum of what the supervisor counted *during* its flushes.

    The read indices are spread so that every phase meets a fault:
    6/3/10/2 faults for flush, query, flush, query.  Which attempts
    each phase makes depends on the page layout, the prefetch order and
    how many pages a query batch reads, so re-spread them when any of
    these moves (read 7 was read 9 while a range plan banded every
    friend over the window's span, and the query batches read more).  Each half of the
    stream crosses a partition rollover, so it is put in the buffer
    directly: one flush per half, each spanning both partitions.
    """
    sharded = deploy(supervised=True)
    for pool in sharded.pools:
        pool.resize(2)  # smaller than a shard: the queries read too
    # Sparse enough that no retried job exhausts, spread so that both
    # flushes and both query batches run into some (asserted below).
    schedule = TransientFaultSchedule(
        fail_reads={2, 7, 12, 20, 27, 31, 36, 40, 45, 50},
        fail_writes={3, 9, 12, 15},
    )
    for disk in shard_disks(sharded):
        disk.heal()
        disk.schedule = schedule
    supervisor = sharded.supervisor
    pipeline = UpdatePipeline(sharded, capacity=1000)
    during_flushes = []

    for part in (BATCH[:60], BATCH[60:]):
        for obj, pntp in part:
            pipeline.buffer.add(obj, pntp)
        before = supervisor.stats.copy()
        pipeline.flush()
        during_flushes.append(supervisor.stats.delta_from(before))
        between = supervisor.stats.copy()
        QueryEngine(sharded).execute_batch(RANGE_SPECS)
        assert supervisor.stats.delta_from(between).faults > 0

    assert supervisor.stats.exhausted == 0
    assert pipeline.stats.flushes == 2 and pipeline.pending == 0
    assert during_flushes[0].faults > 0 and during_flushes[1].faults > 0
    billed = pipeline.stats.fault_stats
    assert billed.faults == sum(delta.faults for delta in during_flushes)
    assert billed.retries == sum(delta.retries for delta in during_flushes)


def test_supervised_fault_free_run_is_identical_to_unsupervised():
    """The opt-in invariant: with a supervisor attached but no faults,
    nothing observable changes."""
    sharded = deploy(supervised=True)
    result = sharded.update_batch(list(BATCH))
    report = QueryEngine(sharded).execute_batch(SPECS)
    assert sharded.supervisor.stats.faults == 0
    assert result.ops == REFERENCE["result"].ops
    assert result.deferred == []
    assert [r.uids for r in report.results] == REFERENCE["uids"]
    assert list(sharded.items()) == REFERENCE["items"]


# ----------------------------------------------------------------------
# Quarantine-subset
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dead", range(N_SHARDS))
def test_quarantined_shard_degrades_queries_to_exact_subset(dead):
    sharded = deploy(supervised=True)
    disks = shard_disks(sharded)
    disks[dead].heal()
    disks[dead].fail_every_nth_read = 1  # every read fails, forever

    engine = QueryEngine(sharded)
    report = engine.execute_batch(RANGE_SPECS)
    supervisor = sharded.supervisor

    assert supervisor.is_quarantined(dead)
    assert supervisor.stats.quarantines >= 1
    assert supervisor.stats.bands_dropped > 0
    assert report.stats.fault_stats is not None
    assert report.stats.fault_stats.bands_dropped > 0
    assert len(report.degraded) == len(RANGE_SPECS)

    # Queries ran before any update: compare against the pre-update
    # fault-free reference.
    router = sharded.router
    for spec, served, expected, flagged in zip(
        RANGE_SPECS, report.results, FRESH_UIDS, report.degraded
    ):
        assert served.uids <= expected, spec  # never an invented result
        for uid in expected - served.uids:  # every loss routes to dead
            assert router.shard_of_key(FRESH_KEYS[uid]) == dead, (spec, uid)
        if not flagged:  # un-flagged queries are exact
            assert served.uids == expected, spec
    # The flags are honest both ways on at least one query: this
    # workload must actually touch the dead shard somewhere.
    assert any(report.degraded)


@pytest.mark.parametrize("dead", range(N_SHARDS))
def test_quarantined_shard_defers_updates_and_spares_the_rest(dead):
    sharded = deploy(supervised=True)
    disks = shard_disks(sharded)
    disks[dead].heal()
    disks[dead].fail_every_nth_read = 1

    result = sharded.update_batch(list(BATCH))
    supervisor = sharded.supervisor
    assert supervisor.is_quarantined(dead)

    router = sharded.router
    deferred_uids = set()
    for item in result.deferred:
        obj = item[0] if isinstance(item, tuple) else item
        deferred_uids.add(obj.uid)
        # SV sharding: a user's shard never changes, so the routed
        # shard of the deferred state is exactly the dead one.
        assert router.shard_of_key(FRESH_KEYS[obj.uid]) == dead
    assert deferred_uids  # this workload routes updates everywhere
    assert supervisor.stats.updates_deferred == len(result.deferred)
    # Counters exclude the deferred states but count everything else.
    assert result.ops == REFERENCE["result"].ops - len(result.deferred)

    disks[dead].heal()  # audit reads must be clean
    by_shard = lambda items, shard: [
        entry for entry in items if router.shard_of_key(entry[0]) == shard
    ]
    got_items = list(sharded.items())
    for shard in range(N_SHARDS):
        if shard == dead:
            # The dead shard holds its pre-batch state: deferred means
            # not applied, and the sweep guard means not half-applied.
            assert by_shard(got_items, shard) == by_shard(
                REFERENCE["before_items"], shard
            )
        else:
            assert by_shard(got_items, shard) == by_shard(
                REFERENCE["items"], shard
            )
    # The memo still maps every deferred uid to its *pre-batch* key, so
    # a later retry will re-route the update rather than double-insert.
    for uid in deferred_uids:
        assert sharded.live_keys()[uid] == FRESH_KEYS[uid]


def test_deferred_updates_rebuffer_through_the_pipeline():
    """Through :class:`UpdatePipeline`: a deferred state is restored to
    the buffer (still pending) and re-applies cleanly once the shard
    recovers."""
    sharded = deploy(supervised=True)
    disks = shard_disks(sharded)
    disks[1].heal()
    disks[1].fail_every_nth_read = 1

    pipeline = UpdatePipeline(sharded, capacity=256)
    pipeline.extend(list(BATCH))
    pipeline.flush()
    deferred = pipeline.stats.deferred
    assert deferred > 0
    # Every deferral was restored; the buffer holds the distinct users
    # still waiting (a user deferred across several flushes — the
    # rollover forces two here — counts once per flush but buffers once).
    assert 0 < pipeline.pending <= deferred
    assert pipeline.stats.fault_stats is not None
    assert pipeline.stats.fault_stats.updates_deferred == deferred

    disks[1].heal()
    sharded.supervisor.reset(1)
    pipeline.flush()
    assert pipeline.pending == 0
    assert list(sharded.items()) == REFERENCE["items"]


# ----------------------------------------------------------------------
# Single queries read under the supervisor too
# ----------------------------------------------------------------------

#: Issuer 49's window and issuer 11's kNN probe: both fault-free answers
#: hold users routed to shard 0, and issuer 49's friends live on every
#: shard, so each entry point below reads every shard it can.
RANGE = RANGE_SPECS[3]
KNN = KnnQuerySpec(11, *WORLD.states[11].position_at(130.0), 4, 130.0)


def single_query(entry, sharded):
    """One single-query entry point's answer on ``sharded``."""
    if entry == "prq":
        result = prq(sharded, RANGE.q_uid, RANGE.window, RANGE.t_query)
        return sorted(result.uids), result.candidates_examined
    if entry == "pcount":
        result = pcount(sharded, RANGE.q_uid, RANGE.window, RANGE.t_query)
        return result.count, result.candidates_examined
    if entry == "pknn":
        result = pknn(sharded, KNN.q_uid, KNN.qx, KNN.qy, KNN.k, KNN.t_query)
        return (
            [(round(d, 9), obj.uid) for d, obj in result.neighbors],
            result.candidates_examined,
            result.rounds,
        )
    monitor = ContinuousPRQ(sharded, RANGE.q_uid, RANGE.window, RANGE.t_query)
    return sorted(monitor._tracked), sorted(monitor.result_at(RANGE.t_query))


SINGLE_ENTRIES = ("prq", "pknn", "pcount", "continuous")


@pytest.mark.parametrize("fail_reads", ({1}, {1, 5}), ids=("1", "1,5"))
@pytest.mark.parametrize("entry", SINGLE_ENTRIES)
def test_single_query_retries_transient_faults(entry, fail_reads):
    expected = single_query(entry, deploy(supervised=False))
    sharded = deploy(supervised=True)
    schedule = TransientFaultSchedule(fail_reads=fail_reads)
    for disk in shard_disks(sharded):
        disk.heal()  # counters restart at 0: the indices are live
        disk.schedule = schedule

    assert single_query(entry, sharded) == expected
    supervisor = sharded.supervisor
    assert supervisor.stats.retries > 0
    assert supervisor.stats.exhausted == 0
    assert supervisor.stats.bands_dropped == 0


@pytest.mark.parametrize("entry", SINGLE_ENTRIES)
def test_single_query_on_a_quarantined_shard_raises(entry):
    sharded = deploy(supervised=True)
    disks = shard_disks(sharded)
    disks[0].heal()
    disks[0].fail_every_nth_read = 1  # every read fails, forever

    with pytest.raises(DiskFaultError, match="quarantined shard"):
        single_query(entry, sharded)
    assert sharded.supervisor.stats.bands_dropped > 0
