"""Per-shard circuit breaker: closed → open → half-open → closed.

The breaker answers one question — *may this shard serve right now?* —
from three states:

* **closed** — healthy; every request passes.  Retry exhaustions
  accumulate; at ``failure_threshold`` the breaker opens.
* **open** — quarantined; requests are refused (the scatter layer
  drops the shard's sub-bands with accounting, the write path defers
  the shard's updates).  After ``cooldown`` time units the next
  request is admitted as a *probe*.
* **half-open** — one probe in flight.  Success closes the breaker
  (recovery); failure re-opens it for another cooldown.

Time is whatever the caller's ``now`` means — virtual microseconds
from a :class:`repro.simio.clock.SimClock` horizon when one exists,
or a plain admission-call counter otherwise
(:class:`BreakerPolicy.cooldown_calls`); the state machine only
compares differences.  Plain state, like its owning
:class:`repro.fault.supervisor.ShardSupervisor`: shard jobs run one at
a time on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When to quarantine and when to probe.

    Attributes:
        failure_threshold: retry exhaustions (while closed) before the
            breaker opens; ``1`` quarantines on the first exhaustion.
        cooldown_us: quarantine duration before a half-open probe, in
            virtual microseconds (clocked deployments).
        cooldown_calls: the same duration in admission calls, used when
            no clock exists.
    """

    failure_threshold: int = 1
    cooldown_us: float = 50_000.0
    cooldown_calls: int = 8

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_us < 0:
            raise ValueError(f"cooldown_us must be >= 0, got {self.cooldown_us}")
        if self.cooldown_calls < 1:
            raise ValueError(
                f"cooldown_calls must be >= 1, got {self.cooldown_calls}"
            )


class CircuitBreaker:
    """One shard's quarantine state machine."""

    def __init__(self, policy: BreakerPolicy | None = None):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.state = CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def quarantined(self) -> bool:
        """True while requests are being refused or probed."""
        return self.state != CLOSED

    def allow(self, now: float, cooldown: float) -> tuple[bool, bool]:
        """``(admitted, is_probe)`` for a request arriving at ``now``."""
        if self.state == CLOSED:
            return True, False
        if self.state == OPEN and now - self._opened_at >= cooldown:
            self.state = HALF_OPEN
            return True, True
        return False, False

    def record_success(self) -> bool:
        """Note a served request; True when a probe just closed the
        breaker (a recovery)."""
        recovered = self.state == HALF_OPEN
        self.state = CLOSED
        self._failures = 0
        return recovered

    def record_failure(self, now: float) -> bool:
        """Note a retry exhaustion; True when the breaker just opened."""
        if self.state == HALF_OPEN:
            self.state = OPEN
            self._opened_at = now
            return True
        self._failures += 1
        if self.state == CLOSED and self._failures >= self.policy.failure_threshold:
            self.state = OPEN
            self._opened_at = now
            return True
        return False

    def reset(self) -> bool:
        """Force-close (after an out-of-band rebuild); True if it was open."""
        was_quarantined = self.quarantined
        self.state = CLOSED
        self._failures = 0
        return was_quarantined


__all__ = ["BreakerPolicy", "CircuitBreaker", "CLOSED", "HALF_OPEN", "OPEN"]
