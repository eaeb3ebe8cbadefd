"""Text rendering of an exported trace: where virtual time went.

``repro trace-report out.json`` loads a Chrome trace-event file
written by :mod:`repro.obs.export` and prints:

* a per-phase virtual-time breakdown (span name → total µs, count,
  and share of worker busy time — the critical-path share, since the
  single worker *is* the service's critical path);
* per-device busy time and overlap factor (device busy µs over the
  trace horizon — how much of the run each simulated device spent
  serving I/O);
* a cross-check that the worker's ``batch.serve`` spans sum to the
  ``ServiceStats.busy_us`` embedded in ``otherData`` — the trace and
  the stats must tell one story — and beside it what the verify
  pipeline left of that busy time per batch: its *tail* (verification
  still running after the slowest shard landed) and its *idle* time
  (the CPU waiting for a landing); then the same for the kNN searches
  on that CPU: their tail past the join, and their time waiting for
  landings, in on-demand scans and verifying;
* a cross-check that the per-shard ``shard.physical_*`` series of the
  embedded metrics sum to the merged ``io.physical_*`` counters — a
  breakdown published twice, or billed someone else's I/O, shows here.

``repro trace-report`` exits 1 when either check fails.

Only standard-library formatting: the report must stay loadable in
contexts where the bench reporting stack is not.
"""

from __future__ import annotations


def _tracks(events: list[dict]) -> tuple[dict, dict]:
    """Map (pid, tid) -> track name and pid -> group name."""
    track_of: dict[tuple[int, int], str] = {}
    group_of: dict[int, str] = {}
    for event in events:
        if event.get("ph") != "M":
            continue
        if event.get("name") == "thread_name":
            track_of[(event["pid"], event["tid"])] = event["args"]["name"]
        elif event.get("name") == "process_name":
            group_of[event["pid"]] = event["args"]["name"]
    return track_of, group_of


def summarize_trace(trace: dict) -> dict:
    """Reduce a Chrome trace dict to the numbers the report prints."""
    events = trace.get("traceEvents", [])
    track_of, group_of = _tracks(events)
    # Exemplar tracks replay intervals already counted on the worker and
    # requests tracks; including them would double-count phase time.
    spans = [
        event
        for event in events
        if event.get("ph") == "X"
        and not track_of.get(
            (event.get("pid"), event.get("tid")), ""
        ).startswith("exemplar")
    ]

    phases: dict[str, dict] = {}
    device_busy: dict[str, float] = {}
    lo = float("inf")
    hi = float("-inf")
    for span in spans:
        ts = float(span["ts"])
        dur = float(span.get("dur", 0.0))
        lo = min(lo, ts)
        hi = max(hi, ts + dur)
        entry = phases.setdefault(span["name"], {"total_us": 0.0, "count": 0})
        entry["total_us"] += dur
        entry["count"] += 1
        key = (span["pid"], span["tid"])
        if group_of.get(span["pid"]) == "devices":
            track = track_of.get(key, f"pid{span['pid']}.tid{span['tid']}")
            device_busy[track] = device_busy.get(track, 0.0) + dur
    horizon_us = (hi - lo) if spans else 0.0

    pipelines = [  # a trace written before the span had args has none
        span["args"] for span in spans
        if span["name"] == "verify.pipeline" and "args" in span
    ]
    verify_pipeline = {
        key: sum(args[key] for args in pipelines)
        for key in ("items", "idle_us", "tail_us")
    }
    verify_pipeline["batches"] = len(pipelines)

    worker_busy = phases.get("batch.serve", {}).get("total_us", 0.0)
    for entry in phases.values():
        entry["share_of_busy"] = (
            entry["total_us"] / worker_busy if worker_busy > 0 else 0.0
        )

    devices = {
        track: {
            "busy_us": busy,
            "overlap_factor": busy / horizon_us if horizon_us > 0 else 0.0,
        }
        for track, busy in sorted(device_busy.items())
    }

    instants: dict[str, int] = {}
    for event in events:
        if event.get("ph") == "i":
            instants[event["name"]] = instants.get(event["name"], 0) + 1

    stats = trace.get("otherData", {}).get("service_stats")
    busy_check = None
    if isinstance(stats, dict) and "busy_us" in stats:
        expected = float(stats["busy_us"])
        busy_check = {
            "trace_us": worker_busy,
            "stats_us": expected,
            "matches": abs(worker_busy - expected) <= 1e-6 * max(1.0, expected),
        }

    counters = trace.get("otherData", {}).get("metrics", {}).get("counters", {})
    shard_check = None
    if "shard.physical_reads" in counters:
        shard_check = {
            kind: {
                "shards": sum(counters.get(f"shard.physical_{kind}", {}).values()),
                "io": sum(counters.get(f"io.physical_{kind}", {}).values()),
            }
            for kind in ("reads", "writes")
        }
        shard_check["matches"] = all(
            shard_check[kind]["shards"] == shard_check[kind]["io"]
            for kind in ("reads", "writes")
        )

    return {
        "horizon_us": horizon_us,
        "n_spans": len(spans),
        "worker_busy_us": worker_busy,
        "phases": {name: dict(entry) for name, entry in sorted(phases.items())},
        "devices": devices,
        "instants": dict(sorted(instants.items())),
        "verify_pipeline": verify_pipeline,
        "busy_check": busy_check,
        "shard_check": shard_check,
        "consistent": all(
            check["matches"]
            for check in (busy_check, shard_check)
            if check is not None
        ),
    }


def render_trace_report(trace: dict) -> str:
    """Render the per-phase / per-device breakdown as plain text."""
    summary = summarize_trace(trace)
    lines: list[str] = []
    lines.append("trace report (virtual time)")
    lines.append(
        f"  horizon: {summary['horizon_us']:.1f} us over "
        f"{summary['n_spans']} spans"
    )
    lines.append("")
    lines.append(
        f"  {'phase':<18} {'total_us':>14} {'count':>7} {'share_of_busy':>14}"
    )
    for name, entry in summary["phases"].items():
        lines.append(
            f"  {name:<18} {entry['total_us']:>14.1f} {entry['count']:>7d} "
            f"{entry['share_of_busy']:>13.1%}"
        )
    if summary["devices"]:
        lines.append("")
        lines.append(f"  {'device':<18} {'busy_us':>14} {'overlap_factor':>15}")
        for track, entry in summary["devices"].items():
            lines.append(
                f"  {track:<18} {entry['busy_us']:>14.1f} "
                f"{entry['overlap_factor']:>15.2f}"
            )
    if summary["instants"]:
        lines.append("")
        lines.append("  instants: " + ", ".join(
            f"{name}x{count}" for name, count in summary["instants"].items()
        ))
    check = summary["busy_check"]
    if check is not None:
        lines.append("")
        verdict = "OK" if check["matches"] else "MISMATCH"
        lines.append(
            f"  worker busy vs ServiceStats.busy_us: "
            f"{check['trace_us']:.1f} vs {check['stats_us']:.1f} -> {verdict}"
        )
    pipeline = summary["verify_pipeline"]
    if pipeline["batches"]:
        n = pipeline["batches"]
        lines.append(
            f"  verify pipeline over {n} batches: tail "
            f"{pipeline['tail_us']:.1f} us ({pipeline['tail_us'] / n:.1f}/batch), "
            f"idle {pipeline['idle_us']:.1f} us ({pipeline['idle_us'] / n:.1f}/batch), "
            f"{pipeline['items']} items"
        )
    check = summary["shard_check"]
    if check is not None:
        verdict = "OK" if check["matches"] else "MISMATCH"
        lines.append(
            "  per-shard sums vs io.physical_*: "
            + ", ".join(
                f"{kind} {check[kind]['shards']:.0f} vs {check[kind]['io']:.0f}"
                for kind in ("reads", "writes")
            )
            + f" -> {verdict}"
        )
    return "\n".join(lines)


__all__ = ["render_trace_report", "summarize_trace"]
