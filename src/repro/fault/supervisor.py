"""The shard supervisor: retry, quarantine, and accounting in one place.

:class:`ShardSupervisor` sits at the per-shard job boundary — one
scatter prefetch, one sub-band scan, one update sweep — and wraps each
job in the retry policy, feeds retry exhaustions into the shard's
circuit breaker, and counts everything in a shared
:class:`repro.fault.stats.FaultStats`.  The two callers
(:class:`repro.shard.engine.ShardScatterScanner` on the read side,
:class:`repro.shard.tree.ShardedPEBTree.update_batch` on the write
side) never raise a retryable error past this layer: a job either
succeeds (possibly after retries, with the backoff priced in virtual
time) or reports ``(False, None)`` and the shard is quarantined —
degradation, not failure.

Not synchronized: shard jobs run inline, one at a time, on the calling
thread (:class:`repro.simio.scheduler.IOScheduler`), so breaker
transitions and counters are plain state.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.fault.breaker import BreakerPolicy, CircuitBreaker
from repro.fault.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.fault.stats import FaultStats

T = TypeVar("T")


class ShardSupervisor:
    """Fault-tolerance state for one N-shard deployment.

    Args:
        n_shards: breaker count (one per shard).
        retry: the retry policy applied to every supervised job.
        breaker: the quarantine policy shared by all breakers.
        clock: the deployment's :class:`repro.simio.clock.SimClock`;
            prices backoff into virtual time and drives the breaker
            cooldowns off the simulated horizon.  Without a clock,
            cooldowns are measured in admission calls.
    """

    def __init__(
        self,
        n_shards: int,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
        clock=None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_policy = breaker if breaker is not None else BreakerPolicy()
        self.clock = clock
        self.stats = FaultStats()
        self._breakers = [CircuitBreaker(self.breaker_policy) for _ in range(n_shards)]
        self._ticks = 0
        #: A :class:`repro.obs.trace.TraceRecorder`, handed over when
        #: the deployment's ``recorder`` field is set; retries and
        #: breaker transitions then land on the trace's fault track as
        #: instants.  Tracing only reads the clock's cursor — never the
        #: retry RNG.
        self.recorder = None

    def _mark(self, name: str, shard: int, **extra) -> None:
        """Emit one fault-track instant at the calling job's cursor."""
        recorder = self.recorder
        if recorder is None or not recorder.enabled:
            return
        ts = self.clock.cursor() if self.clock is not None else 0.0
        recorder.instant(
            "faults", name, ts, category="fault", args={"shard": shard, **extra}
        )

    @property
    def n_shards(self) -> int:
        return len(self._breakers)

    def _now(self) -> float:
        if self.clock is not None:
            return self.clock.elapsed
        return float(self._ticks)

    def _cooldown(self) -> float:
        if self.clock is not None:
            return self.breaker_policy.cooldown_us
        return float(self.breaker_policy.cooldown_calls)

    # ------------------------------------------------------------------
    # Admission and execution
    # ------------------------------------------------------------------

    def admits(self, shard: int) -> bool:
        """May this shard serve right now?  Opens the half-open probe
        window after a cooldown (the call that returns True *is* the
        probe — follow it with :meth:`run`)."""
        self._ticks += 1
        allowed, probing = self._breakers[shard].allow(self._now(), self._cooldown())
        if probing:
            self.stats.probes += 1
            self._mark("breaker.probe", shard)
        return allowed

    def run(self, shard: int, fn: Callable[[], T]) -> tuple[bool, "T | None"]:
        """Run one shard job under retry + breaker; ``(ok, result)``.

        Retryable errors never propagate: exhaustion quarantines the
        shard and returns ``(False, None)``.  Non-retryable exceptions
        are bugs in the caller and raise unchanged — no retry, no
        quarantine (the write path's sweep guard rolls the shard back,
        so nothing half-applies).
        """
        attempt = 1
        while True:
            try:
                result = fn()
            except RETRYABLE_ERRORS:
                self.stats.faults += 1
                self._mark("fault", shard, attempt=attempt)
                if attempt >= self.retry.max_attempts:
                    self._record_failure(shard)
                    return False, None
                backoff = self.retry.backoff_us(attempt, token=shard)
                if self.clock is not None and backoff > 0:
                    self.clock.advance(backoff)
                self.stats.retries += 1
                self.stats.backoff_us += backoff
                self._mark("retry", shard, attempt=attempt, backoff_us=backoff)
                attempt += 1
            else:
                self._record_success(shard)
                return True, result

    def _record_failure(self, shard: int) -> None:
        self.stats.exhausted += 1
        if self._breakers[shard].record_failure(self._now()):
            self.stats.quarantines += 1
            self._mark("breaker.open", shard)

    def _record_success(self, shard: int) -> None:
        if self._breakers[shard].record_success():
            self.stats.recoveries += 1
            self._mark("breaker.close", shard)

    # ------------------------------------------------------------------
    # Quarantine state
    # ------------------------------------------------------------------

    def quarantined(self) -> list[int]:
        """Shards currently open or probing, ascending."""
        return [
            shard
            for shard, breaker in enumerate(self._breakers)
            if breaker.quarantined
        ]

    def is_quarantined(self, shard: int) -> bool:
        return self._breakers[shard].quarantined

    def reset(self, shard: int) -> None:
        """Close a shard's breaker after an out-of-band rebuild
        (:class:`repro.shard.recovery.ShardCheckpointer`)."""
        if self._breakers[shard].reset():
            self.stats.recoveries += 1

    # ------------------------------------------------------------------
    # Degradation accounting (incremented by the scatter/write layers)
    # ------------------------------------------------------------------

    def note_dropped_band(self, n: int = 1) -> None:
        self.stats.bands_dropped += n

    def note_deferred_updates(self, n: int) -> None:
        self.stats.updates_deferred += n


__all__ = ["ShardSupervisor"]
