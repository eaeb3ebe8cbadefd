"""Span recorder on the simulated-time axis.

A :class:`TraceRecorder` accumulates *spans* (named intervals),
*instants* (zero-width marks), and *flow points* (arrows linking one
request's arrival to the batch that served it), all stamped in
virtual microseconds the instrumented code read from the shared
:class:`repro.simio.clock.SimClock`.  Recording is append-only and
side-effect free toward the system under observation: the recorder
never touches a clock cursor, a device timeline, or an RNG stream,
which is what lets the property pin assert a traced run is
bit-identical to an untraced one.

Every event lives on a named *track* ("worker", "queue", "shard0",
"engine/scan", ...).  Tracks belong to *groups* ("service",
"engine", "devices", "faults") which the Chrome-trace exporter maps
to processes so Perfetto renders one lane per device/shard and one
per worker.  Track names are free-form: instrumentation sites invent
them on first use and the exporter assigns stable pid/tid pairs in
first-seen order (deterministic, because the instrumented run is).

Instrumented layers read their recorder from the deployment's
``recorder`` field (:class:`repro.engine.deployment.Deployment`), beside
its ``sim_clock`` and ``supervisor``; setting the field hands the
recorder to the supervisor too.  When no recorder is set (or
``enabled`` is False) every site skips even its argument
construction, so the disabled path costs one field read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.metrics import nearest_rank

#: Default track groups, in display order.  Unknown groups sort after.
GROUP_ORDER = ("service", "engine", "devices", "faults")


@dataclass(frozen=True)
class SpanEvent:
    """A named interval on one track, in run-relative microseconds."""

    track: str
    name: str
    start_us: float
    dur_us: float
    category: str = ""
    args: dict | None = None


@dataclass(frozen=True)
class InstantEvent:
    """A zero-width mark on one track."""

    track: str
    name: str
    ts_us: float
    category: str = ""
    args: dict | None = None


@dataclass(frozen=True)
class FlowEvent:
    """One point of a flow arrow (``phase`` in ``s``/``t``/``f``)."""

    track: str
    name: str
    ts_us: float
    flow_id: int
    phase: str
    category: str = "flow"


class NullRecorder:
    """The disabled recorder: every method is a no-op.

    ``enabled`` is False so instrumentation sites can skip argument
    construction entirely; calling the methods anyway is also safe.
    """

    enabled = False

    def set_origin(self, origin_us: float) -> None:
        pass

    def register_track(self, track: str, group: str = "service") -> None:
        pass

    def span(self, track, name, start_us, end_us, category="", args=None):
        pass

    def instant(self, track, name, ts_us, category="", args=None):
        pass

    def flow(self, phase, flow_id, track, ts_us, name="request"):
        pass

    def metadata(self, key, value) -> None:
        pass


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects virtual-time trace events for one run.

    Timestamps are stored relative to ``origin_us`` (set once by the
    service worker to the clock horizon at run start, so build-time
    charges never shift the trace).  Instrumentation passes absolute
    clock readings; the subtraction happens here, at append time.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list = []
        self.origin_us = 0.0
        self.meta: dict = {}
        # track name -> group; insertion order is display order.
        self.tracks: dict[str, str] = {}

    # -- configuration -------------------------------------------------

    def set_origin(self, origin_us: float) -> None:
        """Make subsequent timestamps relative to ``origin_us``."""
        self.origin_us = float(origin_us)

    def register_track(self, track: str, group: str = "service") -> None:
        """Pin ``track`` into ``group`` (first registration wins)."""
        self.tracks.setdefault(track, group)

    def metadata(self, key: str, value) -> None:
        """Attach a run-level fact (stats snapshot, config, ...)."""
        self.meta[key] = value

    # -- events --------------------------------------------------------

    def span(
        self,
        track: str,
        name: str,
        start_us: float,
        end_us: float,
        category: str = "",
        args: dict | None = None,
    ) -> None:
        """Record the interval ``[start_us, end_us]`` (absolute clock)."""
        self.register_track(track, _default_group(track))
        start = float(start_us) - self.origin_us
        dur = max(0.0, float(end_us) - float(start_us))
        self.events.append(SpanEvent(track, name, start, dur, category, args))

    def instant(
        self,
        track: str,
        name: str,
        ts_us: float,
        category: str = "",
        args: dict | None = None,
    ) -> None:
        self.register_track(track, _default_group(track))
        self.events.append(
            InstantEvent(track, name, float(ts_us) - self.origin_us, category, args)
        )

    def flow(
        self,
        phase: str,
        flow_id: int,
        track: str,
        ts_us: float,
        name: str = "request",
    ) -> None:
        """Record one flow point; ``phase`` is ``s``/``t``/``f``."""
        if phase not in ("s", "t", "f"):
            raise ValueError(f"flow phase must be s/t/f, got {phase!r}")
        self.register_track(track, _default_group(track))
        self.events.append(
            FlowEvent(track, name, float(ts_us) - self.origin_us, int(flow_id), phase)
        )

    # -- queries (used by tests and the exporter) ----------------------

    def spans(self, name: str | None = None) -> list[SpanEvent]:
        return [
            event
            for event in self.events
            if isinstance(event, SpanEvent)
            and (name is None or event.name == name)
        ]

    def instants(self, name: str | None = None) -> list[InstantEvent]:
        return [
            event
            for event in self.events
            if isinstance(event, InstantEvent)
            and (name is None or event.name == name)
        ]

    def flows(self) -> list[FlowEvent]:
        return [event for event in self.events if isinstance(event, FlowEvent)]


def _default_group(track: str) -> str:
    """Infer a track's group from its naming convention."""
    if track.startswith("shard"):
        return "devices"
    if track.startswith("engine"):
        return "engine"
    if track.startswith("fault"):
        return "faults"
    return "service"


def record_exemplars(
    recorder,
    records: Sequence,
    offset: float = 0.0,
    quantiles: Iterable[float] = (0.5, 0.99, 1.0),
) -> None:
    """Record exemplar request traces at the given sojourn quantiles.

    ``records`` is the service report's ``(request, dispatch_us,
    finish_us)`` list with run-relative stamps; ``offset`` is the run's
    time origin so the emitted spans share the recorder's axis.  For
    each requested quantile the nearest-rank request (by sojourn) gets
    its own track carrying a ``wait`` span (arrival → dispatch) and a
    ``service`` span (dispatch → finish), so a tail request's latency
    decomposes visually instead of being a bare percentile number.
    """
    if not recorder.enabled or not records:
        return
    by_sojourn = sorted(records, key=lambda rec: rec[2] - rec[0].arrival_us)
    n = len(by_sojourn)
    seen: set[int] = set()
    for fraction in quantiles:
        request, dispatch_us, finish_us = by_sojourn[nearest_rank(n, fraction) - 1]
        if request.seq in seen:
            continue
        seen.add(request.seq)
        track = f"exemplar p{int(round(fraction * 100))}"
        recorder.register_track(track, "service")
        args = {
            "seq": request.seq,
            "kind": request.kind,
            "sojourn_us": finish_us - request.arrival_us,
            "quantile": fraction,
        }
        recorder.span(
            track,
            "wait",
            offset + request.arrival_us,
            offset + dispatch_us,
            category="exemplar",
            args=args,
        )
        recorder.span(
            track,
            "service",
            offset + dispatch_us,
            offset + finish_us,
            category="exemplar",
            args=args,
        )


__all__ = [
    "FlowEvent",
    "GROUP_ORDER",
    "InstantEvent",
    "NULL_RECORDER",
    "NullRecorder",
    "SpanEvent",
    "TraceRecorder",
    "record_exemplars",
]
