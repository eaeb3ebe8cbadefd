"""Chrome trace-event JSON export (Perfetto-loadable).

Serializes a :class:`repro.obs.trace.TraceRecorder` into the Chrome
trace-event format: complete events (``ph: "X"``) for spans, instants
(``ph: "i"``), flow points (``ph: "s"/"t"/"f"``) and metadata events
(``ph: "M"``) naming each process and thread.  Track groups become
processes and tracks become threads, so Perfetto renders one lane per
device/shard, one per worker, with request flow arrows across lanes.

Timestamps are virtual microseconds — conveniently also the unit the
trace-event format expects — relative to the run's time origin.  The
top-level ``otherData`` object carries the run's stats snapshot,
metrics-registry snapshot, and config, which ``repro trace-report``
cross-checks against the spans.

Export sorts events by (timestamp, track, name), so a trace
serializes identically whatever order its spans were appended in: the
*events* are deterministic (virtual time is), append order need not
be.
"""

from __future__ import annotations

import json

from repro.obs.trace import (
    FlowEvent,
    GROUP_ORDER,
    InstantEvent,
    SpanEvent,
    TraceRecorder,
)


def _assign_ids(recorder: TraceRecorder):
    """Map groups to pids and tracks to tids, deterministically."""
    groups: list[str] = []
    for group in GROUP_ORDER:
        if group in recorder.tracks.values():
            groups.append(group)
    for group in recorder.tracks.values():
        if group not in groups:
            groups.append(group)
    pid_of = {group: index + 1 for index, group in enumerate(groups)}
    tid_of: dict[str, tuple[int, int]] = {}
    next_tid: dict[str, int] = {group: 1 for group in groups}
    for track in sorted(recorder.tracks):
        group = recorder.tracks[track]
        tid_of[track] = (pid_of[group], next_tid[group])
        next_tid[group] += 1
    return pid_of, tid_of


def chrome_trace(recorder: TraceRecorder) -> dict:
    """Render the recorder as a Chrome trace-event JSON object."""
    pid_of, tid_of = _assign_ids(recorder)
    events: list[dict] = []
    for group, pid in pid_of.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": group},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for track, (pid, tid) in tid_of.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    body: list[dict] = []
    for event in recorder.events:
        pid, tid = tid_of[event.track]
        if isinstance(event, SpanEvent):
            record = {
                "ph": "X",
                "name": event.name,
                "cat": event.category or "span",
                "ts": event.start_us,
                "dur": event.dur_us,
                "pid": pid,
                "tid": tid,
            }
            if event.args:
                record["args"] = event.args
        elif isinstance(event, InstantEvent):
            record = {
                "ph": "i",
                "name": event.name,
                "cat": event.category or "instant",
                "ts": event.ts_us,
                "pid": pid,
                "tid": tid,
                "s": "t",
            }
            if event.args:
                record["args"] = event.args
        elif isinstance(event, FlowEvent):
            record = {
                "ph": event.phase,
                "name": event.name,
                "cat": event.category,
                "id": event.flow_id,
                "ts": event.ts_us,
                "pid": pid,
                "tid": tid,
            }
            if event.phase == "f":
                record["bp"] = "e"
        else:  # pragma: no cover - recorder only appends the three kinds
            raise TypeError(f"unknown trace event {event!r}")
        body.append(record)
    body.sort(key=lambda rec: (rec["ts"], rec["pid"], rec["tid"], rec["name"]))

    return {
        "traceEvents": events + body,
        "displayTimeUnit": "ms",
        "otherData": dict(recorder.meta),
    }


def write_trace(recorder: TraceRecorder, path: str) -> dict:
    """Write the recorder's Chrome trace JSON to ``path``; return it."""
    trace = chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return trace


def load_trace(path: str) -> dict:
    """Load a Chrome trace JSON written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


__all__ = ["chrome_trace", "load_trace", "write_trace"]
