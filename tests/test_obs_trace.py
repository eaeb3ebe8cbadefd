"""The observability layer: recorder, export, metrics, report, inertness.

The tentpole contract is **observational inertness**: a run with the
:class:`repro.obs.TraceRecorder` attached must be bit-identical — same
results, same candidates, same physical counters, same virtual time —
to the same run without it.  Tracing only *reads* the clock and the
stats; Hypothesis sweeps seeds/rates/policies to pin that.

The rest of the file covers the pieces: span/instant/flow arithmetic
against the recorder origin, exemplar sampling, the Chrome trace-event
export (track metadata, flow balance, deterministic ordering), the
metrics registry, the dual-axis stopwatches, and the ``trace-report``
summary cross-check against ``ServiceStats.busy_us``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.obs import (
    MetricsRegistry,
    NULL_RECORDER,
    TraceRecorder,
    chrome_trace,
    load_trace,
    record_exemplars,
    render_trace_report,
    timer,
    virtual_timer,
    write_trace,
)
from repro.obs.report import summarize_trace
from repro.simio.clock import SimClock


# ----------------------------------------------------------------------
# TraceRecorder primitives
# ----------------------------------------------------------------------


def test_recorder_span_subtracts_origin_and_clamps_duration():
    recorder = TraceRecorder()
    recorder.set_origin(1000.0)
    recorder.span("worker", "batch.serve", 1250.0, 1750.0)
    recorder.span("worker", "inverted", 1500.0, 1400.0)  # clamped, not negative
    spans = recorder.spans()
    assert spans[0].start_us == 250.0 and spans[0].dur_us == 500.0
    assert spans[1].dur_us == 0.0


def test_recorder_instant_flow_and_queries():
    recorder = TraceRecorder()
    recorder.instant("faults", "retry", 42.0, args={"shard": 1})
    recorder.flow("s", 7, "requests", 10.0)
    recorder.flow("t", 7, "worker", 20.0)
    recorder.flow("f", 7, "worker", 30.0)
    assert [event.name for event in recorder.instants()] == ["retry"]
    assert [event.phase for event in recorder.flows()] == ["s", "t", "f"]
    with pytest.raises(ValueError):
        recorder.flow("x", 7, "worker", 40.0)


def test_recorder_track_groups_inferred_and_explicit():
    recorder = TraceRecorder()
    recorder.span("shard3", "scan.shard", 0.0, 1.0)
    recorder.span("engine/scan", "scan.prefetch", 0.0, 1.0)
    recorder.span("queue", "queue.wait", 0.0, 1.0)
    recorder.instant("faults", "fault", 0.5)
    recorder.register_track("custom", group="devices")
    assert recorder.tracks["shard3"] == "devices"
    assert recorder.tracks["engine/scan"] == "engine"
    assert recorder.tracks["queue"] == "service"
    assert recorder.tracks["faults"] == "faults"
    assert recorder.tracks["custom"] == "devices"


def test_null_recorder_is_disabled_and_callable():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.set_origin(5.0)
    NULL_RECORDER.span("worker", "x", 0.0, 1.0)
    NULL_RECORDER.instant("worker", "x", 0.0)
    NULL_RECORDER.flow("s", 1, "worker", 0.0)
    NULL_RECORDER.metadata("k", "v")  # all no-ops, nothing raises


class _Req:
    def __init__(self, seq, arrival_us):
        self.seq = seq
        self.kind = "range"
        self.arrival_us = arrival_us


def test_record_exemplars_tags_quantile_tracks():
    recorder = TraceRecorder()
    # sojourn = 5 + seq, strictly increasing with seq.
    records = [
        (_Req(seq, 10.0 * seq), 10.0 * seq + 5.0, 10.0 * seq + 5.0 + seq)
        for seq in range(1, 11)
    ]
    record_exemplars(recorder, records)
    tracks = {event.track for event in recorder.spans()}
    assert "exemplar p50" in tracks
    assert "exemplar p99" in tracks
    # p100 picks the same request as p99 over 10 records: deduped.
    assert "exemplar p100" not in tracks
    p99 = [event for event in recorder.spans() if event.track == "exemplar p99"]
    assert [event.name for event in p99] == ["wait", "service"]
    assert all(event.args["seq"] == 10 for event in p99)
    assert all(event.args["sojourn_us"] == 15.0 for event in p99)


def test_record_exemplars_empty_records_is_noop():
    recorder = TraceRecorder()
    record_exemplars(recorder, [])
    assert recorder.events == []


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------


def _small_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    recorder.span("worker", "batch.serve", 0.0, 100.0)
    recorder.span("queue", "queue.wait", 0.0, 40.0)
    recorder.span("shard0", "scan.shard", 10.0, 60.0)
    recorder.span("shard1", "scan.shard", 10.0, 80.0)
    recorder.instant("faults", "retry", 50.0, args={"shard": 0})
    recorder.flow("s", 3, "requests", 0.0)
    recorder.flow("f", 3, "worker", 100.0)
    recorder.metadata("service_stats", {"busy_us": 100.0})
    return recorder


def test_chrome_trace_structure_and_metadata():
    trace = chrome_trace(_small_recorder())
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    assert trace["otherData"]["service_stats"]["busy_us"] == 100.0

    names = {
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event["name"] == "thread_name"
    }
    assert {"worker", "queue", "requests", "shard0", "shard1", "faults"} <= names
    groups = {
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event["name"] == "process_name"
    }
    assert {"service", "devices", "faults"} <= groups

    # Shard tracks live in the devices process, one tid each.
    pid_of = {
        event["args"]["name"]: event["pid"]
        for event in events
        if event.get("ph") == "M" and event["name"] == "process_name"
    }
    shard_tids = {
        (event["pid"], event["tid"])
        for event in events
        if event.get("ph") == "M"
        and event["name"] == "thread_name"
        and event["args"]["name"].startswith("shard")
    }
    assert len(shard_tids) == 2
    assert all(pid == pid_of["devices"] for pid, _ in shard_tids)

    instant = next(event for event in events if event.get("ph") == "i")
    assert instant["s"] == "t"
    flow_finish = next(event for event in events if event.get("ph") == "f")
    assert flow_finish["bp"] == "e"


def test_chrome_trace_is_deterministic_under_append_order():
    first = _small_recorder()
    second = TraceRecorder()
    # Same events, reversed append order.
    for event in reversed(first.events):
        second.events.append(event)
        second.register_track(event.track, first.tracks[event.track])
    second.metadata("service_stats", {"busy_us": 100.0})
    assert json.dumps(chrome_trace(first)) == json.dumps(chrome_trace(second))


def test_write_and_load_trace_round_trip(tmp_path):
    path = tmp_path / "out.json"
    written = write_trace(_small_recorder(), str(path))
    loaded = load_trace(str(path))
    assert loaded == written


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


def test_registry_counters_accumulate_per_label_set():
    registry = MetricsRegistry()
    registry.counter("service.requests", 3)
    registry.counter("service.requests", 2)
    registry.counter("shard.physical_reads", 5, shard=0)
    registry.counter("shard.physical_reads", 7, shard=1)
    assert registry.counter_value("service.requests") == 5
    assert registry.counter_value("shard.physical_reads", shard=0) == 5
    assert registry.counter_value("shard.physical_reads", shard=1) == 7
    with pytest.raises(ValueError):
        registry.counter("service.requests", -1)


def test_registry_gauges_overwrite_and_histograms_summarize():
    registry = MetricsRegistry()
    registry.gauge("service.utilization", 0.5)
    registry.gauge("service.utilization", 0.9)
    assert registry.gauge_value("service.utilization") == 0.9
    for value in [1.0, 2.0, 3.0, 4.0]:
        registry.observe("sojourn_us", value, kind="range")
    snapshot = registry.snapshot()
    histogram = snapshot["histograms"]["sojourn_us"]["kind=range"]
    assert histogram["count"] == 4
    assert histogram["sum"] == 10.0
    assert histogram["min"] == 1.0 and histogram["max"] == 4.0
    assert histogram["p50"] == 2.0
    assert registry.observations("sojourn_us", kind="range") == [
        1.0,
        2.0,
        3.0,
        4.0,
    ]


def test_registry_label_order_is_canonical():
    registry = MetricsRegistry()
    registry.counter("x", 1, a=1, b=2)
    registry.counter("x", 1, b=2, a=1)
    assert registry.counter_value("x", a=1, b=2) == 2
    assert list(registry.snapshot()["counters"]["x"]) == ["a=1,b=2"]


def test_stats_publish_lands_in_registry():
    from repro.service.stats import ServiceStats
    from repro.fault.stats import FaultStats
    from repro.shard.stats import ShardStats

    registry = MetricsRegistry()
    ServiceStats(n_requests=8, n_batches=2, busy_us=100.0).publish(registry)
    FaultStats(faults=3, retries=2).publish(registry)
    ShardStats(
        entries=(4, 6), physical_reads=(1, 2), physical_writes=(0, 1)
    ).publish(registry)
    assert registry.counter_value("service.requests") == 8
    assert registry.gauge_value("service.busy_us") == 100.0
    assert registry.counter_value("fault.faults") == 3
    assert registry.gauge_value("shard.entries", shard=1) == 6
    assert registry.gauge_value("shard.balance_skew") == pytest.approx(1.2)


# ----------------------------------------------------------------------
# Stopwatches: the two time axes stay distinguishable
# ----------------------------------------------------------------------


def test_wall_stopwatch_reports_axis_and_freezes():
    watch = timer()
    assert watch.axis == "wall" and watch.unit == "seconds"
    first = watch.stop()
    assert first >= 0.0
    assert watch.elapsed_seconds == watch.stop() == first


def test_virtual_stopwatch_tracks_clock_horizon():
    clock = SimClock()
    watch = virtual_timer(clock)
    assert watch.axis == "virtual" and watch.unit == "microseconds"
    clock.advance(250.0)
    assert watch.elapsed_us == 250.0
    watch.stop()
    clock.advance(100.0)
    assert watch.elapsed_us == 250.0


# ----------------------------------------------------------------------
# Traced service runs: structure, report, and the inertness pin
# ----------------------------------------------------------------------

TINY = ExperimentConfig(
    n_users=300,
    n_policies=6,
    n_queries=4,
    page_size=1024,
    build_buffer_pages=1024,
    seed=29,
)


def _run(harness=None, recorder=None, **overrides):
    harness = harness or ExperimentHarness(TINY)
    kwargs = dict(
        rate_per_sec=2500.0,
        n_requests=32,
        max_batch=8,
        max_wait_us=2000.0,
        n_shards=2,
        latency="ssd",
        pin=False,
    )
    kwargs.update(overrides)
    return harness.run_service(trace_recorder=recorder, **kwargs)


def test_traced_service_run_produces_linked_trace(tmp_path):
    recorder = TraceRecorder()
    costs = _run(recorder=recorder)
    trace = write_trace(recorder, str(tmp_path / "trace.json"))
    events = trace["traceEvents"]

    thread_names = {
        event["args"]["name"]
        for event in events
        if event.get("ph") == "M" and event["name"] == "thread_name"
    }
    assert {"queue", "worker", "requests", "shard0", "shard1"} <= thread_names
    assert any(name.startswith("exemplar p") for name in thread_names)

    # Flow ids: every request that got served has s (arrival), t
    # (dispatch) and f (finish) markers.
    starts = {event["id"] for event in events if event.get("ph") == "s"}
    finishes = {event["id"] for event in events if event.get("ph") == "f"}
    assert starts and starts == finishes
    assert len(starts) == costs.stats.n_requests - costs.stats.n_shed

    assert all(
        event["dur"] >= 0 for event in events if event.get("ph") == "X"
    )
    assert trace["otherData"]["service_stats"]["busy_us"] == pytest.approx(
        costs.stats.busy_us
    )
    assert "metrics" in trace["otherData"]
    assert trace["otherData"]["run_config"]["n_shards"] == 2


def test_trace_report_matches_service_stats(tmp_path):
    recorder = TraceRecorder()
    costs = _run(recorder=recorder)
    trace = chrome_trace(recorder)

    summary = summarize_trace(trace)
    assert summary["busy_check"] is not None
    assert summary["busy_check"]["matches"]
    assert summary["worker_busy_us"] == pytest.approx(costs.stats.busy_us)
    assert summary["phases"]["batch.serve"]["count"] == costs.stats.n_batches
    assert {"shard0", "shard1"} <= set(summary["devices"])

    text = render_trace_report(trace)
    assert "batch.serve" in text
    assert "-> OK" in text


def test_verify_pipeline_spans_carry_items_idle_and_tail():
    recorder = TraceRecorder()
    _run(recorder=recorder)
    pipelines = recorder.spans("verify.pipeline")
    assert pipelines
    scans = recorder.spans("scan.shard")
    for span in pipelines:
        assert span.args["items"] > 0
        assert 0.0 <= span.args["idle_us"] <= span.dur_us
        # The tail is what the span adds past the slowest shard job
        # that ended inside or before it.
        end = span.start_us + span.dur_us
        landed = max(
            scan.start_us + scan.dur_us
            for scan in scans
            if scan.start_us <= span.start_us
        )
        assert span.args["tail_us"] == pytest.approx(max(0.0, end - landed))

    summary = summarize_trace(chrome_trace(recorder))["verify_pipeline"]
    assert summary["batches"] == len(pipelines)
    assert summary["items"] == sum(span.args["items"] for span in pipelines)
    assert summary["tail_us"] == pytest.approx(
        sum(span.args["tail_us"] for span in pipelines)
    )
    text = render_trace_report(chrome_trace(recorder))
    assert f"verify pipeline over {len(pipelines)} batches: tail " in text


def test_verify_pipeline_carries_the_knn_bands_and_starts_before_the_join():
    recorder = TraceRecorder()
    _run(recorder=recorder, knn_fraction=0.5)
    pipelines = recorder.spans("verify.pipeline")
    batches = recorder.spans("batch.serve")
    scans = recorder.spans("scan.shard")
    plans = recorder.instants("plan")
    assert sum(plan.args["knn_bands"] for plan in plans) > 0
    early = 0
    for plan in plans:
        lo, hi = next(
            (b.start_us, b.start_us + b.dur_us)
            for b in batches
            if b.start_us <= plan.ts_us <= b.start_us + b.dur_us
        )
        mine = [span for span in pipelines if lo <= span.start_us <= hi]
        if not plan.args["knn_bands"] and not mine:
            continue
        # Every kNN point band returns its friend's row, so each is an
        # item of its batch's one pipeline.
        (span,) = mine
        assert span.args["items"] >= plan.args["knn_bands"]
        joined = max(s.start_us + s.dur_us for s in scans if lo <= s.start_us <= hi)
        early += span.start_us < joined
    # The point of the timeline: verification starts before its batch joins.
    assert early


def test_embedded_metrics_publish_each_run_level_series_once():
    """One registry rides in the trace: its per-shard series must sum
    to the merged ``io.*`` counters and its ``fault.*`` series must be
    the run's ``ServiceStats.fault_stats`` — not that plus the update
    pipeline's copy of the same events."""
    from repro.fault import BreakerPolicy, RetryPolicy
    from repro.storage.faults import FaultyDisk, TransientFaultSchedule
    from tests.test_service_faults import shard_disks

    def arm(deployment):
        for disk in shard_disks(deployment):
            disk.heal()
            disk.schedule = TransientFaultSchedule(
                fail_reads=(3, 20, 50), fail_writes=(2,)
            )

    recorder = TraceRecorder()
    costs = _run(
        recorder=recorder,
        n_requests=48,
        update_fraction=0.5,
        shard_buffer_pages=12,  # small: reads go physical, faults fire
        disk_factory=lambda shard: FaultyDisk(page_size=TINY.page_size),
        fault_policy=RetryPolicy(max_attempts=6),
        breaker_policy=BreakerPolicy(),
        arm_faults=arm,
    )
    counters = chrome_trace(recorder)["otherData"]["metrics"]["counters"]

    def total(name):
        return sum(counters[name].values())

    assert total("io.physical_reads") > 0 and total("io.physical_writes") > 0
    assert total("shard.physical_reads") == total("io.physical_reads")
    assert total("shard.physical_writes") == total("io.physical_writes")
    faults = costs.stats.fault_stats
    assert faults.faults > 0
    for field in ("faults", "retries", "backoff_us", "exhausted", "quarantines"):
        assert total(f"fault.{field}") == getattr(faults, field), field
    assert summarize_trace(chrome_trace(recorder))["shard_check"]["matches"]


def test_trace_report_flags_tampered_metrics_and_busy_time():
    recorder = TraceRecorder()
    _run(recorder=recorder)
    trace = chrome_trace(recorder)
    assert summarize_trace(trace)["consistent"]

    reads = trace["otherData"]["metrics"]["counters"]["shard.physical_reads"]
    reads[next(iter(reads))] += 1
    summary = summarize_trace(trace)
    assert not summary["shard_check"]["matches"] and not summary["consistent"]
    assert summary["busy_check"]["matches"]
    assert "per-shard sums vs io.physical_*" in render_trace_report(trace)
    assert "-> MISMATCH" in render_trace_report(trace)

    reads[next(iter(reads))] -= 1
    trace["otherData"]["service_stats"]["busy_us"] += 5.0
    summary = summarize_trace(trace)
    assert summary["shard_check"]["matches"]
    assert not summary["busy_check"]["matches"] and not summary["consistent"]


def test_trace_report_renders_loaded_file(tmp_path):
    recorder = TraceRecorder()
    _run(recorder=recorder)
    path = tmp_path / "trace.json"
    write_trace(recorder, str(path))
    assert "-> OK" in render_trace_report(load_trace(str(path)))


def test_batched_prq_traced_identical_and_counter_spans():
    plain = ExperimentHarness(TINY).run_batched_prq()
    recorder = TraceRecorder()
    traced = ExperimentHarness(TINY).run_batched_prq(trace_recorder=recorder)
    # Wall-clock seconds jitter; every deterministic field must match.
    assert traced.sequential_io == plain.sequential_io
    assert traced.batched_io == plain.batched_io
    assert traced.n_queries == plain.n_queries
    assert traced.dedup_ratio == plain.dedup_ratio
    names = {event.name for event in recorder.spans()}
    assert "scan.prefetch" in names
    assert "scan.shard" not in names  # single tree: no device tracks


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    rate=st.sampled_from([900.0, 2500.0, 7000.0]),
    max_batch=st.sampled_from([1, 8]),
    arrival=st.sampled_from(["poisson", "burst"]),
)
def test_traced_run_bit_identical_to_untraced(seed, rate, max_batch, arrival):
    """The tentpole pin: tracing is observationally inert.

    Same seed, same knobs, recorder on vs off — the full snapshot
    (results pin, sojourns, batch shapes, physical counters, virtual
    time) must match bit for bit.
    """
    kwargs = dict(
        rate_per_sec=rate,
        n_requests=24,
        max_batch=max_batch,
        max_wait_us=1500.0,
        arrival=arrival,
        n_shards=2,
        latency="ssd",
        workload_seed=seed,
        pin=False,
    )
    plain = ExperimentHarness(TINY).run_service(**kwargs)
    recorder = TraceRecorder()
    traced = ExperimentHarness(TINY).run_service(
        trace_recorder=recorder, **kwargs
    )
    assert traced.snapshot() == plain.snapshot()
    assert recorder.spans()  # the recorder did observe the run
