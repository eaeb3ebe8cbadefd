"""Observability: virtual-time tracing, unified metrics, wall timers.

The obs layer is strictly *read-only* over the rest of the stack: a
:class:`TraceRecorder` collects spans/instants/flows stamped with
values the instrumented code already read from the shared
:class:`repro.simio.clock.SimClock` (tracing never advances a cursor,
charges a device, or consumes randomness), a
:class:`MetricsRegistry` gives the six per-layer stats dataclasses one
labelled counter/gauge/histogram namespace to publish into, and
:func:`timer` marks wall-clock measurements so they can never be
confused with virtual-time ones.  The property pin in
``tests/test_obs_trace.py`` holds tracing to the same standard every
prior layer obeys: a traced run is bit-identical to an untraced one.
"""

from repro.obs.export import chrome_trace, load_trace, write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_trace_report
from repro.obs.timer import Stopwatch, VirtualStopwatch, timer, virtual_timer
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    record_exemplars,
)

__all__ = [
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Stopwatch",
    "TraceRecorder",
    "VirtualStopwatch",
    "chrome_trace",
    "load_trace",
    "record_exemplars",
    "render_trace_report",
    "timer",
    "virtual_timer",
    "write_trace",
]
