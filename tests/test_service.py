"""Tests for the open-loop service front-end.

Covers the request envelopes, the admission/batching queue (size and
time triggers, busy-worker absorption, conservation of requests), the
open-loop arrival processes, the sojourn statistics, and the worker
loop — including the property that every result a service run produces
is identical to applying the same recorded batches directly through
``UpdatePipeline`` + ``execute_batch`` on a twin deployment.
"""

import gc
import random
import threading
from types import SimpleNamespace

import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.engine import QueryEngine, UpdatePipeline
from repro.service import (
    BatchPolicy,
    OpenLoopGenerator,
    RequestQueue,
    ServiceRequest,
    SimulatedService,
    build_stats,
    detect_saturation,
    percentile,
    query_request,
    update_request,
)
from repro.spatial.geometry import Rect
from repro.workloads.queries import KnnQuerySpec, QueryGenerator, RangeQuerySpec

from tests.conftest import build_world
from tests.test_peb_tree import make_peb, mover


def upd(seq, arrival_us, uid=0, x=100.0):
    return update_request(seq, arrival_us, mover(uid, x=x))


# ----------------------------------------------------------------------
# Request envelopes
# ----------------------------------------------------------------------


def test_request_kinds_derived_and_validated():
    range_spec = RangeQuerySpec(q_uid=1, window=Rect(0, 10, 0, 10), t_query=0.0)
    knn_spec = KnnQuerySpec(q_uid=1, qx=5.0, qy=5.0, k=3, t_query=0.0)
    assert query_request(0, 0.0, range_spec).kind == "range"
    assert query_request(1, 0.0, knn_spec).kind == "knn"
    assert update_request(2, 0.0, mover(1)).is_update
    with pytest.raises(TypeError):
        query_request(3, 0.0, "not a spec")
    with pytest.raises(ValueError):
        ServiceRequest(seq=0, arrival_us=0.0, kind="scan", query=range_spec)
    with pytest.raises(ValueError):
        ServiceRequest(seq=0, arrival_us=-1.0, kind="range", query=range_spec)
    with pytest.raises(ValueError):
        # An update request must not also carry a query spec.
        ServiceRequest(
            seq=0, arrival_us=0.0, kind="update", update=mover(1), query=range_spec
        )
    with pytest.raises(ValueError):
        ServiceRequest(seq=0, arrival_us=0.0, kind="range")


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch=0)
    with pytest.raises(ValueError):
        BatchPolicy(max_wait_us=-1.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "field, build",
    [
        ("max_wait_us", lambda: BatchPolicy(max_wait_us=NAN)),
        ("max_wait_us", lambda: BatchPolicy(max_wait_us=INF)),
        ("shed_after_us", lambda: BatchPolicy(shed_after_us=NAN)),
        ("shed_after_us", lambda: BatchPolicy(shed_after_us=INF)),
        ("rate_per_sec", lambda: open_loop().poisson_stamps(3, rate_per_sec=NAN)),
        ("rate_per_sec", lambda: open_loop().poisson_stamps(3, rate_per_sec=INF)),
        ("rate_per_sec", lambda: open_loop().burst_stamps(3, NAN, burst_size=2)),
        ("rate_per_sec", lambda: open_loop().burst_stamps(3, INF, burst_size=2)),
        ("rate_per_sec", lambda: open_loop().generate(4, rate_per_sec=NAN)),
        ("arrival_us", lambda: upd(0, NAN)),
        ("arrival_us", lambda: upd(0, INF)),
        (
            "arrival_us",  # a stream that slipped a NaN stamp past its envelope
            lambda: RequestQueue(
                [upd(0, 0.0), SimpleNamespace(seq=1, arrival_us=NAN), upd(2, 5.0)],
                BatchPolicy(),
            ),
        ),
    ],
)
def test_service_inputs_refuse_non_finite_values(field, build):
    """A NaN or infinite stamp, wait, deadline or rate never compares
    again: each is refused up front, naming the field."""
    with pytest.raises(ValueError, match=field):
        build()


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------


def test_queue_rejects_unsorted_arrivals():
    requests = [upd(0, 100.0), upd(1, 50.0)]
    with pytest.raises(ValueError):
        RequestQueue(requests, BatchPolicy())


def test_size_trigger_dispatches_at_fill_instant():
    stamps = [0.0, 10.0, 20.0, 30.0, 100.0, 110.0, 120.0, 130.0]
    requests = [upd(seq, stamp, uid=seq) for seq, stamp in enumerate(stamps)]
    queue = RequestQueue(requests, BatchPolicy(max_batch=4, max_wait_us=1e9))

    first = queue.next_batch(free_at=0.0)
    assert [r.seq for r in first.requests] == [0, 1, 2, 3]
    assert first.dispatch_us == 30.0
    assert first.trigger == "full"
    second = queue.next_batch(free_at=first.dispatch_us)
    assert [r.seq for r in second.requests] == [4, 5, 6, 7]
    assert second.dispatch_us == 130.0
    assert queue.next_batch(free_at=200.0) is None


def test_timeout_trigger_dispatches_partial_batch():
    requests = [upd(0, 0.0), upd(1, 10.0, uid=1), upd(2, 200.0, uid=2)]
    queue = RequestQueue(requests, BatchPolicy(max_batch=64, max_wait_us=50.0))

    first = queue.next_batch(free_at=0.0)
    assert [r.seq for r in first.requests] == [0, 1]
    assert first.dispatch_us == 50.0
    assert first.trigger == "timeout"
    second = queue.next_batch(free_at=first.dispatch_us)
    assert [r.seq for r in second.requests] == [2]
    assert second.dispatch_us == 250.0


def test_busy_worker_absorbs_late_arrivals_up_to_cap():
    stamps = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
    requests = [upd(seq, stamp, uid=seq) for seq, stamp in enumerate(stamps)]
    queue = RequestQueue(requests, BatchPolicy(max_batch=4, max_wait_us=1000.0))

    first = queue.next_batch(free_at=0.0)
    assert first.dispatch_us == 30.0

    # The worker stays busy until 500; by then every remaining request
    # has arrived, but only a capful dispatches.
    second = queue.next_batch(free_at=500.0)
    assert [r.seq for r in second.requests] == [4, 5, 6, 7]
    assert second.dispatch_us == 500.0
    # Depth counts the batch plus the arrived-but-unserved leftover.
    assert second.queue_depth == 5

    third = queue.next_batch(free_at=500.0)
    assert [r.seq for r in third.requests] == [8]
    assert queue.exhausted


def test_queue_conserves_requests_in_arrival_order():
    rng = random.Random(7)
    stamps = sorted(rng.uniform(0, 5000.0) for _ in range(100))
    requests = [upd(seq, stamp, uid=seq) for seq, stamp in enumerate(stamps)]
    for policy in (
        BatchPolicy(max_batch=1, max_wait_us=0.0),
        BatchPolicy(max_batch=7, max_wait_us=100.0),
        BatchPolicy(max_batch=64, max_wait_us=250.0),
    ):
        queue = RequestQueue(requests, policy)
        free_at, seen = 0.0, []
        while (batch := queue.next_batch(free_at)) is not None:
            assert batch.dispatch_us >= free_at
            assert len(batch.requests) <= policy.max_batch
            seen.extend(r.seq for r in batch.requests)
            free_at = batch.dispatch_us + 120.0  # fixed service time
        assert seen == list(range(100))
        assert queue.remaining() == 0


def test_backlog_probe_counts_waiting_and_unabsorbed():
    requests = [upd(seq, 10.0 * seq, uid=seq) for seq in range(10)]
    queue = RequestQueue(requests, BatchPolicy(max_batch=4, max_wait_us=1e9))
    queue.next_batch(free_at=0.0)  # takes seqs 0-3 at t=30
    assert queue.backlog_at(65.0) == 3  # seqs 4, 5, 6 arrived, none served
    assert queue.backlog_at(1e9) == 6


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------


def open_loop(seed=3, n_users=50):
    rng = random.Random(seed)
    generator = QueryGenerator(1000.0, rng)
    states = {uid: mover(uid, x=50.0 + uid) for uid in range(n_users)}
    return OpenLoopGenerator(generator, states)


def test_poisson_stamps_ascending_at_target_rate():
    loop = open_loop()
    stamps = loop.poisson_stamps(2000, rate_per_sec=500.0)
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))
    mean_gap = stamps[-1] / len(stamps)
    assert 2000.0 * 0.85 < mean_gap < 2000.0 * 1.15  # 1e6/500 = 2000 µs
    # Same seed, same stream.
    again = open_loop().poisson_stamps(2000, rate_per_sec=500.0)
    assert again == stamps


def test_burst_stamps_share_instants_at_same_mean_rate():
    loop = open_loop()
    stamps = loop.burst_stamps(64, rate_per_sec=1000.0, burst_size=16)
    assert stamps[0:16] == [0.0] * 16
    assert stamps[16:32] == [16000.0] * 16
    assert len(set(stamps)) == 4


def test_generate_mixes_kinds_with_ascending_stamps():
    loop = open_loop()
    requests = loop.generate(
        40, rate_per_sec=2000.0, update_fraction=0.5, knn_fraction=0.25
    )
    assert len(requests) == 40
    assert [r.seq for r in requests] == list(range(40))
    stamps = [r.arrival_us for r in requests]
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))
    kinds = [r.kind for r in requests]
    assert kinds.count("update") == 20
    assert kinds.count("range") + kinds.count("knn") == 20
    assert kinds.count("knn") > 0
    # Update world-timestamps ascend along arrival order.
    t_updates = [r.update.t_update for r in requests if r.is_update]
    assert t_updates == sorted(t_updates)
    with pytest.raises(ValueError):
        loop.generate(10, rate_per_sec=100.0, arrival="unknown")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 110, 10)]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.95) == 100.0
    assert percentile(values, 0.99) == 100.0
    assert percentile(values, 0.0) == 10.0
    assert percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_detect_saturation_requires_both_signals():
    policy = BatchPolicy(max_batch=4, max_wait_us=100.0)
    flat = [100.0] * 30
    growing = [100.0 * (1 + i) for i in range(30)]
    # Growing sojourns but drained backlog: not saturated.
    assert not detect_saturation(growing, backlog_at_last_arrival=2, policy=policy)
    # Backlog but flat sojourns: not saturated.
    assert not detect_saturation(flat, backlog_at_last_arrival=50, policy=policy)
    assert detect_saturation(growing, backlog_at_last_arrival=50, policy=policy)
    # Too few samples to call a trend.
    assert not detect_saturation(growing[:5], backlog_at_last_arrival=50, policy=policy)


def test_build_stats_aggregates_sojourns_and_batches():
    class Batch:
        def __init__(self, requests, dispatch_us, finish_us, queue_depth):
            self.requests = requests
            self.dispatch_us = dispatch_us
            self.finish_us = finish_us
            self.queue_depth = queue_depth

    requests = [upd(0, 0.0), upd(1, 10.0, uid=1), upd(2, 40.0, uid=2)]
    records = [
        (requests[0], 20.0, 30.0),
        (requests[1], 20.0, 30.0),
        (requests[2], 40.0, 55.0),
    ]
    batches = [
        Batch(requests[:2], 20.0, 30.0, queue_depth=2),
        Batch(requests[2:], 40.0, 55.0, queue_depth=1),
    ]
    stats = build_stats(
        records,
        batches,
        BatchPolicy(max_batch=2, max_wait_us=100.0),
        backlog_at_last_arrival=1,
        physical_reads=12,
        physical_writes=3,
    )
    assert stats.n_requests == 3 and stats.n_batches == 2
    assert stats.overall.count == 3
    assert stats.overall.max_us == 30.0  # request 0: finish 30 - arrival 0
    assert stats.per_class["update"].count == 3
    assert stats.batch_size_hist == {2: 1, 1: 1}
    assert stats.queue_depth_max == 2
    assert stats.busy_us == pytest.approx(25.0)
    assert stats.makespan_us == pytest.approx(55.0)
    assert stats.throughput_per_sec == pytest.approx(3 / 55e-6)
    assert stats.reads_per_request == pytest.approx(4.0)
    snapshot = stats.snapshot()
    assert snapshot["overall"]["p50_us"] == stats.overall.p50_us
    assert snapshot["batch_size_hist"] == {"1": 1, "2": 1}


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------


def make_service(tree, policy):
    engine = QueryEngine(tree)
    pipeline = UpdatePipeline(tree, capacity=256)
    return SimulatedService(engine, pipeline, policy)


def test_service_rejects_mismatched_engine_and_pipeline():
    tree_a, tree_b = make_peb(range(6)), make_peb(range(6))
    with pytest.raises(ValueError):
        SimulatedService(QueryEngine(tree_a), UpdatePipeline(tree_b))


def test_batch_queries_see_the_batch_own_updates():
    tree = make_peb(range(6))
    for uid in range(6):
        tree.insert(mover(uid, x=100.0 + uid, y=100.0))
    service = make_service(tree, BatchPolicy(max_batch=8, max_wait_us=10.0))
    # make_store grants uid 1 access to uid 0; move uid 0 far away and
    # range-query its new neighbourhood in the same batch.
    requests = [
        update_request(0, 0.0, mover(0, x=900.0, y=900.0, vx=0.0, vy=0.0)),
        query_request(
            1,
            1.0,
            RangeQuerySpec(q_uid=1, window=Rect(850, 950, 850, 950), t_query=0.0),
        ),
    ]
    report = service.run(requests)
    assert len(report.batches) == 1
    batch = report.batches[0]
    assert batch.n_updates == 1 and batch.n_queries == 1
    assert 0 in batch.query_results[0].uids


def test_untimed_run_records_every_request_once():
    world = build_world(n_users=80, n_policies=6, seed=21)
    loop = OpenLoopGenerator(world.query_generator(), world.states)
    requests = loop.generate(50, rate_per_sec=5000.0, update_fraction=0.4)
    service = make_service(world.peb, BatchPolicy(max_batch=8, max_wait_us=1500.0))
    report = service.run(requests)

    assert [record[0].seq for record in report.records] == list(range(50))
    assert sum(len(b.requests) for b in report.batches) == 50
    for request, dispatch, finish in report.records:
        assert dispatch >= request.arrival_us
        # Untimed storage: zero service time, so finish == dispatch and
        # the sojourn is pure admission delay.
        assert finish == dispatch
        assert report.sojourn_us(request.seq) >= 0.0
    stats = report.stats
    assert stats.n_requests == 50
    assert stats.overall.count == 50
    assert set(stats.per_class) <= {"range", "knn", "update"}
    assert sum(s.count for s in stats.per_class.values()) == 50
    assert sum(size * n for size, n in stats.batch_size_hist.items()) == 50


@pytest.mark.parametrize("arrival", ["poisson", "burst"])
def test_timed_sharded_run_pins_to_direct_replay(arrival):
    """The tentpole property: a service run is an *orchestration* of
    the engine.  Replaying the recorded batches directly through a twin
    deployment's UpdatePipeline + execute_batch reproduces every query
    result, and the final trees match entry for entry.

    The shards are larger than their pools (400 users, 8 frames a
    shard), so every batch reads: a range plan bands only the friends
    whose cell can reach the window, and on a tree its pools held whole
    a batch of such plans could find every page resident."""
    world = build_world(n_users=400, n_policies=8, seed=33)
    twin_world = build_world(n_users=400, n_policies=8, seed=33)

    def deploy(w):
        sharded = w.deploy(2, buffer_pages=8, latency="ssd")
        for pool in sharded.pools:
            pool.clear()
        return sharded

    sharded = deploy(world)
    twin = deploy(twin_world)

    loop = OpenLoopGenerator(world.query_generator(), world.states)
    requests = loop.generate(
        48,
        rate_per_sec=3000.0,
        arrival=arrival,
        update_fraction=0.5,
        burst_size=8,
    )
    policy = BatchPolicy(max_batch=8, max_wait_us=2000.0)
    service = SimulatedService(
        QueryEngine(sharded), UpdatePipeline(sharded, capacity=256), policy
    )
    report = service.run(requests)

    # Virtual-time sanity: positive service time, ordered dispatches.
    assert report.stats.busy_us > 0.0
    assert 0.0 < report.stats.utilization <= 1.0
    finishes = [batch.finish_us for batch in report.batches]
    for batch, finish in zip(report.batches, finishes):
        assert finish > batch.dispatch_us  # cold pools: real simulated I/O
    assert finishes == sorted(finishes)
    assert report.stats.overall.p99_us >= report.stats.overall.p50_us > 0.0
    assert report.stats.physical_reads > 0

    # Replay pin: same batches, direct application, twin deployment.
    twin_engine = QueryEngine(twin)
    twin_pipeline = UpdatePipeline(twin, capacity=256)
    for batch in report.batches:
        if batch.updates:
            twin_pipeline.extend(batch.updates)
            twin_pipeline.flush()
        specs = batch.query_specs
        if not specs:
            assert batch.query_results == []
            continue
        direct = twin_engine.execute_batch(specs).results
        assert len(direct) == len(batch.query_results)
        for served, replayed in zip(batch.query_results, direct):
            if hasattr(served, "uids"):
                assert served.uids == replayed.uids
            else:
                served_nn = [(round(d, 9), o.uid) for d, o in served.neighbors]
                direct_nn = [(round(d, 9), o.uid) for d, o in replayed.neighbors]
                assert served_nn == direct_nn
    assert sorted(sharded.fetch_all(), key=lambda o: o.uid) == sorted(
        twin.fetch_all(), key=lambda o: o.uid
    )


def test_smaller_batches_trade_reads_for_latency():
    """The knee the benchmark sweeps, in miniature: at the same offered
    load, B=1 must not batch (mean batch size 1) while a large-B policy
    amortizes I/O across multi-request batches."""
    world = build_world(n_users=100, n_policies=6, seed=44)

    def run(policy):
        sharded = world.deploy(2, buffer_pages=256, latency="ssd")
        for pool in sharded.pools:
            pool.clear()
        loop = OpenLoopGenerator(
            QueryGenerator(world.space_side, random.Random(91)), world.states
        )
        requests = loop.generate(40, rate_per_sec=4000.0, update_fraction=0.5)
        service = SimulatedService(
            QueryEngine(sharded), UpdatePipeline(sharded, capacity=256), policy
        )
        return service.run(requests)

    solo = run(BatchPolicy(max_batch=1, max_wait_us=0.0))
    batched = run(BatchPolicy(max_batch=16, max_wait_us=4000.0))
    assert solo.stats.mean_batch_size == 1.0
    assert batched.stats.mean_batch_size > 1.5
    assert batched.stats.n_batches < solo.stats.n_batches


def test_serving_path_starts_no_thread(monkeypatch):
    """Per-shard jobs overlap on the virtual fork/join only: a served
    mixed stream — on a deployment built the way the benchmark builds
    its, ``parallel_io=True`` included — never starts an OS thread."""
    world = build_world(n_users=200, n_policies=8, seed=52)
    sharded = world.deploy(4, buffer_pages=64, latency="ssd", parallel_io=True)
    for pool in sharded.pools:
        pool.clear()
    requests = OpenLoopGenerator(world.query_generator(), world.states).generate(
        64, rate_per_sec=4000.0, update_fraction=0.5, knn_fraction=0.25
    )
    assert {request.kind for request in requests} == {"range", "knn", "update"}

    fan_outs = []
    run_timed = sharded.io.run_timed

    def counting_run_timed(jobs, **kwargs):
        fan_outs.append(len(jobs))
        return run_timed(jobs, **kwargs)

    def no_threads(self):
        raise AssertionError("the serving path started a thread")

    monkeypatch.setattr(sharded.io, "run_timed", counting_run_timed)
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    service = SimulatedService(
        QueryEngine(sharded),
        UpdatePipeline(sharded, capacity=256),
        BatchPolicy(max_batch=16, max_wait_us=4000.0),
    )
    report = service.run(requests)
    assert max(fan_outs) > 1  # the fork really had several shard jobs
    assert report.stats.physical_reads > 0
    assert sum(s.count for s in report.stats.per_class.values()) == 64


def test_run_freezes_the_older_heap_only_for_the_call(monkeypatch):
    """Collections inside a run skip what existed before it; a heap the
    process froze itself stays frozen afterwards."""
    world = build_world(n_users=80, n_policies=6, seed=21)
    requests = OpenLoopGenerator(world.query_generator(), world.states).generate(
        20, rate_per_sec=5000.0, update_fraction=0.4
    )
    service = make_service(world.peb, BatchPolicy(max_batch=8, max_wait_us=1500.0))
    frozen_while_serving = []
    serve = service._serve

    def probing_serve(batch, base):
        frozen_while_serving.append(gc.get_freeze_count())
        return serve(batch, base)

    monkeypatch.setattr(service, "_serve", probing_serve)
    assert gc.get_freeze_count() == 0
    service.run(requests)
    assert frozen_while_serving and min(frozen_while_serving) > 0
    assert gc.get_freeze_count() == 0

    def failing_serve(batch, base):
        raise RuntimeError("device lost")

    monkeypatch.setattr(service, "_serve", failing_serve)
    with pytest.raises(RuntimeError):
        service.run(requests)
    assert gc.get_freeze_count() == 0

    monkeypatch.setattr(service, "_serve", serve)
    gc.freeze()
    try:
        service.run(requests)
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------

TINY = ExperimentConfig(
    n_users=300,
    n_policies=6,
    n_queries=4,
    page_size=1024,
    build_buffer_pages=1024,
    seed=29,
)


def test_harness_run_service_pins_and_reports():
    harness = ExperimentHarness(TINY)
    costs = harness.run_service(
        rate_per_sec=2500.0,
        n_requests=40,
        max_batch=8,
        max_wait_us=2000.0,
        n_shards=2,
        latency="ssd",
    )
    assert costs.pinned
    assert costs.n_requests == 40
    assert costs.stats.n_requests == 40
    assert costs.p99_us >= costs.stats.overall.p50_us > 0.0
    assert costs.throughput_per_sec > 0.0
    assert costs.stats.physical_reads > 0
    snapshot = costs.snapshot()
    assert snapshot["stats"]["n_requests"] == 40
    assert snapshot["rate_per_sec"] == 2500.0
    # The harness's own indexes are untouched by a service run.
    assert len(harness.peb) == TINY.n_users


def test_harness_run_service_same_seed_is_deterministic():
    first = ExperimentHarness(TINY).run_service(
        rate_per_sec=2500.0, n_requests=24, max_batch=8, pin=False
    )
    second = ExperimentHarness(TINY).run_service(
        rate_per_sec=2500.0, n_requests=24, max_batch=8, pin=False
    )
    assert first.snapshot() == second.snapshot()
