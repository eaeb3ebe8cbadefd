"""Admission and batching over a virtual-time arrival stream.

:class:`RequestQueue` turns a pre-stamped open-loop arrival stream into
the sequence of batches a single worker dispatches, under a
:class:`BatchPolicy` with the two classic knobs:

* **size** — dispatch as soon as ``max_batch`` requests are waiting
  (the batch was *full* the instant its ``max_batch``-th member
  arrived);
* **time** — dispatch once ``max_wait_us`` virtual microseconds have
  passed since the *oldest* waiting request arrived, full or not.

The worker may itself be busy past the trigger instant; the batch then
dispatches the moment the worker frees, and any requests that arrived
in the meantime join it up to the size cap — exactly what a real
server's accept loop does, which is where queueing delay under
overload comes from.

Everything is deterministic: the dispatch schedule is a pure function
of the arrival stamps, the policy, and the per-batch service times the
caller feeds back via ``free_at``.  No real threads, no races.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from math import inf
from typing import Sequence

from repro.service.requests import ServiceRequest


@dataclass(frozen=True)
class BatchPolicy:
    """The admission/batching trade-off in two numbers.

    Attributes:
        max_batch: dispatch when this many requests are waiting
            (``1`` disables batching: every request dispatches alone).
        max_wait_us: dispatch when the oldest waiting request has
            waited this long, even if the batch is not full (``0``
            dispatches immediately on arrival).
        shed_after_us: drop a request instead of serving it once it has
            queued this long at its batch's dispatch instant (None, the
            default, never sheds).  Shedding is the last rung of
            graceful degradation: under a fault-slowed worker the queue
            answers some requests not-at-all rather than all of them
            arbitrarily late, keeping the served tail bounded.

    Bigger batches amortize physical I/O across more requests (fewer
    reads per op); smaller batches and shorter waits bound the batching
    delay each request pays — the tail-latency trade-off the service
    benchmark sweeps.
    """

    max_batch: int = 64
    max_wait_us: float = 2000.0
    shed_after_us: float | None = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        # NaN compares false, so each bound is written to refuse it.
        if not 0 <= self.max_wait_us < inf:
            raise ValueError(
                f"max_wait_us must be finite and >= 0, got {self.max_wait_us}"
            )
        if self.shed_after_us is not None and not 0 < self.shed_after_us < inf:
            raise ValueError(
                f"shed_after_us must be finite and positive, got {self.shed_after_us}"
            )


@dataclass
class DispatchedBatch:
    """One batch released to the worker.

    Attributes:
        requests: batch members in arrival order (at most
            ``max_batch``).
        dispatch_us: the virtual instant service starts — the trigger
            instant, or the instant the worker freed, whichever is
            later.
        queue_depth: arrived-but-unserved requests at the dispatch
            instant, batch members included (the congestion signal).
        trigger: ``"full"`` (size trigger) or ``"timeout"`` (time
            trigger).
        trigger_us: the virtual instant the policy trigger fired;
            ``dispatch_us - trigger_us`` is the extra wait spent on a
            busy worker (zero when the worker was free).
        shed: requests dropped at this dispatch under the policy's
            ``shed_after_us`` deadline (never served; a batch may be
            empty when everything waiting was shed).
    """

    requests: list[ServiceRequest] = field(default_factory=list)
    dispatch_us: float = 0.0
    queue_depth: int = 0
    trigger: str = "full"
    trigger_us: float = 0.0
    shed: list[ServiceRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)


class RequestQueue:
    """FIFO admission of a stamped arrival stream, batch by batch.

    Args:
        requests: the open-loop stream, ascending by ``arrival_us``
            (the generators produce it sorted; unsorted input is
            rejected rather than silently reordered).
        policy: the batching policy.

    Drive it with :meth:`next_batch`, feeding back the instant the
    worker finished the previous batch.
    """

    def __init__(self, requests: Sequence[ServiceRequest], policy: BatchPolicy):
        self._arrivals = list(requests)
        for earlier, later in zip(self._arrivals, self._arrivals[1:]):
            if not earlier.arrival_us <= later.arrival_us:  # NaN is unsorted
                raise ValueError(
                    "arrival stream must be sorted by arrival_us "
                    f"(request {later.seq} arrives before {earlier.seq})"
                )
        self._stamps = [request.arrival_us for request in self._arrivals]
        self.policy = policy
        self._index = 0
        self._pending: deque[ServiceRequest] = deque()

    @property
    def exhausted(self) -> bool:
        """True once every request has been dispatched."""
        return self._index >= len(self._arrivals) and not self._pending

    def remaining(self) -> int:
        """Requests not yet dispatched (waiting or still to arrive)."""
        return len(self._arrivals) - self._index + len(self._pending)

    def _absorb_until(self, instant: float, cap: int) -> None:
        """Move arrivals with ``arrival_us <= instant`` into pending."""
        arrivals = self._arrivals
        while (
            self._index < len(arrivals)
            and len(self._pending) < cap
            and arrivals[self._index].arrival_us <= instant
        ):
            self._pending.append(arrivals[self._index])
            self._index += 1

    def next_batch(self, free_at: float) -> DispatchedBatch | None:
        """The next batch a worker free at ``free_at`` would serve.

        Returns None when the stream is exhausted.  The dispatch
        instant honours both policy triggers *and* the worker: a batch
        whose trigger fired while the worker was busy dispatches the
        moment the worker frees, with late arrivals joining up to the
        size cap.
        """
        if self.exhausted:
            return None
        batch_cap = self.policy.max_batch
        if not self._pending:
            self._pending.append(self._arrivals[self._index])
            self._index += 1

        timeout_at = self._pending[0].arrival_us + self.policy.max_wait_us
        if len(self._pending) >= batch_cap:
            # (Only after an overload dispatch left >cap pending — the
            # absorb paths below never overfill.)
            trigger, trigger_kind = self._pending[batch_cap - 1].arrival_us, "full"
        else:
            missing = batch_cap - len(self._pending)
            fills_by = self._index + missing - 1
            if (
                fills_by < len(self._arrivals)
                and self._arrivals[fills_by].arrival_us <= timeout_at
            ):
                # The size trigger fires first: the batch is full the
                # instant its last member arrives.
                self._absorb_until(timeout_at, batch_cap)
                trigger, trigger_kind = self._pending[-1].arrival_us, "full"
            else:
                # The timer fires first; whatever lands before it still
                # joins this batch.
                self._absorb_until(timeout_at, batch_cap)
                trigger, trigger_kind = timeout_at, "timeout"

        dispatch_us = max(free_at, trigger)
        # Requests arriving while the trigger was pending or the worker
        # busy join the batch up to the cap.
        self._absorb_until(dispatch_us, batch_cap)

        batch = DispatchedBatch(
            dispatch_us=dispatch_us, trigger=trigger_kind, trigger_us=trigger
        )
        deadline = self.policy.shed_after_us
        if deadline is not None:
            # Pending is in arrival order, so over-deadline requests are
            # a head prefix.  Shedding frees cap room, which may admit
            # further (older-than-deadline) stream arrivals — iterate
            # until the pending set is stable.  A batch may end up
            # empty: everything waiting was shed.
            while True:
                shed_any = False
                while (
                    self._pending
                    and dispatch_us - self._pending[0].arrival_us > deadline
                ):
                    batch.shed.append(self._pending.popleft())
                    shed_any = True
                before = len(self._pending)
                self._absorb_until(dispatch_us, batch_cap)
                if not shed_any and len(self._pending) == before:
                    break
        for _ in range(min(batch_cap, len(self._pending))):
            batch.requests.append(self._pending.popleft())
        # Depth counts every arrived-but-unserved request at dispatch:
        # the batch itself, leftovers past the cap, and arrivals not
        # yet pulled out of the stream.
        backlog = bisect_right(self._stamps, dispatch_us, lo=self._index)
        batch.queue_depth = len(batch) + len(self._pending) + backlog - self._index
        return batch

    def backlog_at(self, instant: float) -> int:
        """Arrived-but-undispatched requests at ``instant`` (untaken
        stream arrivals plus waiting ones); a saturation probe."""
        backlog = bisect_right(self._stamps, instant, lo=self._index)
        return len(self._pending) + backlog - self._index


__all__ = ["BatchPolicy", "DispatchedBatch", "RequestQueue"]
