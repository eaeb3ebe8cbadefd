"""Overlapped job scheduling in virtual time.

:class:`IOScheduler` runs a list of independent jobs — per-shard
prefetches on the read side, per-shard ``apply_sorted_batch`` sweeps on
the write side — with fork/join virtual-time semantics on a shared
:class:`repro.simio.clock.SimClock`:

1. **fork** — capture the calling context's cursor; every job's
   context starts there;
2. **run** — each job executes in job order on the calling thread,
   charging its own device timeline (jobs touch disjoint devices —
   the shard layer's invariant: one disk per shard — so the order
   they run in changes nothing about the virtual schedule);
3. **join** — the caller's cursor advances to the latest job end, so
   the measured elapsed time is ``max`` over jobs, not their sum.

The overlap is entirely virtual: the per-device timelines model
independent servers, which real threads sharing one interpreter lock
would not.  Without a clock the scheduler degrades gracefully to a
plain sequential loop — the shard layer runs one code path whether or
not latency is being simulated.

Exception discipline: every job runs to completion or failure, ends
are joined (time passed even for the failing job), and then the first
failure *in job order* is re-raised — deterministic, and transparent
to the fault-injection layer: a
:class:`repro.storage.faults.DiskFaultError` raised by one shard's
disk surfaces from :meth:`run` exactly as it would from a sequential
loop.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.simio.clock import SimClock

T = TypeVar("T")


class IOScheduler:
    """Fork/join executor for independent I/O jobs on one virtual clock.

    Args:
        clock: the shared virtual clock; None disables virtual timing.
    """

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock

    @property
    def overlapped(self) -> bool:
        """True when jobs overlap in virtual time (a clock is attached)."""
        return self.clock is not None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, jobs: Sequence[Callable[[], T]]) -> list[T]:
        """Run every job; results in job order."""
        results, _ = self.run_timed(jobs)
        return results

    def run_timed(
        self,
        jobs: Sequence[Callable[[], T]],
        recorder=None,
        span_name: str = "job",
        labels: Sequence[str] | None = None,
        category: str = "io",
    ) -> tuple[list[T], list[float]]:
        """Run every job; returns ``(results, per-job virtual end times)``.

        The end times say what each job added to the join (the scatter
        scanner keeps them as ``shard_ends``: the verify pipeline, fed
        by the landings inside each job, measures its tail against the
        latest).  Without a clock the end times are all 0.0.

        When ``recorder`` (a :class:`repro.obs.trace.TraceRecorder`) is
        enabled and a clock is attached, each job emits one span
        ``[fork base, its end]`` named ``span_name`` on the track
        ``labels[i]`` — the fork/join shape makes the per-job interval
        exact, so both scatter prefetches and update sweeps get their
        per-device tracks from this one site.  Failed jobs still emit
        (their time passed) before the failure re-raises.
        """
        jobs = list(jobs)
        if not jobs:
            return [], []
        clock = self.clock
        base = clock.cursor() if clock is not None else 0.0

        results: list[T] = []
        failures: list[Exception] = []
        ends: list[float] = []
        for job in jobs:
            if clock is not None:
                clock.set_cursor(base)
            try:
                results.append(job())
            except Exception as exc:
                # Ordinary failures are deferred so every job settles
                # before the first one re-raises;
                # KeyboardInterrupt/SystemExit propagate immediately.
                failures.append(exc)
            ends.append(clock.cursor() if clock is not None else 0.0)

        if clock is not None:
            clock.join(ends)
            if recorder is not None and recorder.enabled and labels is not None:
                for label, end in zip(labels, ends):
                    recorder.span(label, span_name, base, end, category=category)
        if failures:
            raise failures[0]
        return results, ends


__all__ = ["IOScheduler"]
