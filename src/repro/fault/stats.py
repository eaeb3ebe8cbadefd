"""Fault-handling accounting (the robustness twin of the I/O counters).

Every number here is an *event count* over a supervisor's lifetime;
consumers attach before/after deltas to their own stats blocks
(:class:`repro.engine.executor.ExecutionStats`,
:class:`repro.engine.updater.UpdateStats`,
:class:`repro.service.stats.ServiceStats`), exactly the way the
physical I/O counters are read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import CounterSet


@dataclass
class FaultStats(CounterSet, prefix="fault."):
    """What the fault-tolerance layer saw and did.

    Attributes:
        faults: retryable errors observed (including ones a later
            attempt recovered from).
        retries: re-attempts performed after a fault.
        backoff_us: virtual microseconds charged as retry backoff.
        exhausted: operations that ran out of attempts.
        quarantines: circuit-breaker open transitions (shard
            quarantined after retry exhaustion).
        probes: half-open probe attempts after a cooldown.
        recoveries: breaker close transitions (a probe succeeded, or a
            checkpoint rebuild reset the shard).
        bands_dropped: sub-band scan requests skipped because their
            shard was quarantined (the degraded-result accounting).
        updates_deferred: update states re-buffered because their
            shard was quarantined; a state deferred across several
            flushes counts once per flush.
    """

    faults: int = 0
    retries: int = 0
    backoff_us: float = 0.0
    exhausted: int = 0
    quarantines: int = 0
    probes: int = 0
    recoveries: int = 0
    bands_dropped: int = 0
    updates_deferred: int = 0

    @property
    def any_degradation(self) -> bool:
        """True when any result was served incomplete or deferred."""
        return self.bands_dropped > 0 or self.updates_deferred > 0


__all__ = ["FaultStats"]
