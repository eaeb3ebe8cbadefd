"""Sojourn-time accounting and saturation detection.

Percentiles here are *sojourn* percentiles: for every request, the
virtual instant its batch finished minus its arrival instant — the
latency an open-loop client would observe, combining queueing delay
(worker busy), batching delay (waiting for the batch to fill or time
out), and service time (the batch's simulated I/O and verification).
Throughput alone hides the knee; these numbers are the knee.

Saturation — the queue growing without bound because offered load
exceeds service capacity — is detected from the run itself, with no
capacity model: sojourn times must trend flat in a stable system, and
the backlog at the last arrival must be bounded by the batch size.  A
run where the final third's mean sojourn dwarfs the first third's
*and* a worker's worth of backlog was still waiting when the stream
ended is reported ``saturated`` (its percentiles then measure the
arrival count, not the system).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.counters import CounterSet, counter, derived, gauge, nested
from repro.obs.metrics import percentile
from repro.service.queue import BatchPolicy
from repro.service.requests import REQUEST_KINDS


@dataclass(frozen=True)
class SojournSummary(CounterSet, prefix="service.sojourn_"):
    """Five-number summary of one request class's sojourn times (µs)."""

    count: int = gauge(0)
    mean_us: float = gauge(0.0)
    p50_us: float = gauge(0.0)
    p95_us: float = gauge(0.0)
    p99_us: float = gauge(0.0)
    max_us: float = gauge(0.0)

    @classmethod
    def of(cls, sojourns: list[float]) -> "SojournSummary":
        if not sojourns:
            return cls()
        return cls(
            count=len(sojourns),
            mean_us=sum(sojourns) / len(sojourns),
            p50_us=percentile(sojourns, 0.50),
            p95_us=percentile(sojourns, 0.95),
            p99_us=percentile(sojourns, 0.99),
            max_us=max(sojourns),
        )


@dataclass
class ServiceStats(CounterSet, prefix="service."):
    """Everything one simulated service run measured.

    Attributes:
        n_requests / n_batches: stream size and dispatch count.
        overall: sojourn summary across every request.
        per_class: sojourn summary per request kind (``range`` /
            ``knn`` / ``update``).
        batch_size_hist: dispatched batch size -> occurrence count.
        queue_depth_max / queue_depth_mean: arrived-but-unserved
            requests sampled at each dispatch instant.
        backlog_at_last_arrival: requests still waiting when the last
            request arrived (bounded in a stable system, Θ(stream) in
            overload).
        makespan_us: first arrival to last batch finish.
        busy_us: summed batch service time (dispatch to finish).
        utilization: ``busy_us`` over the span the worker *could* have
            worked (first dispatch to last finish); 1.0 means the
            worker never idled.
        throughput_per_sec: requests completed per virtual second of
            makespan.
        saturated: True when sojourns trended unbounded (see module
            docstring for the detection rule).
        physical_reads / physical_writes: page-level I/O of the whole
            run, from the deployment's counters.
        n_shed: requests dropped by the admission queue under the
            policy's ``shed_after_us`` deadline (never served; excluded
            from ``n_requests`` and the sojourn summaries).
        degraded_queries: queries answered with at least one sub-band
            dropped by a quarantined shard (served, honest, incomplete).
        unapplied_updates: update states still buffered (deferred by
            quarantined shards) when the run ended.
        fault_stats: fault-handling events of the run
            (:class:`repro.fault.stats.FaultStats` delta) when the
            deployment carries a shard supervisor; None otherwise.
    """

    n_requests: int = counter(0, name="requests")
    n_batches: int = counter(0, name="batches")
    overall: SojournSummary = field(default_factory=SojournSummary)
    per_class: dict[str, SojournSummary] = field(default_factory=dict)
    batch_size_hist: dict[int, int] = field(default_factory=dict)
    queue_depth_max: int = gauge(0)
    queue_depth_mean: float = gauge(0.0)
    backlog_at_last_arrival: int = gauge(0)
    makespan_us: float = gauge(0.0)
    busy_us: float = gauge(0.0)
    utilization: float = gauge(0.0)
    throughput_per_sec: float = gauge(0.0)
    saturated: bool = gauge(False)
    physical_reads: int = 0
    physical_writes: int = 0
    n_shed: int = counter(0, name="shed")
    degraded_queries: int = 0
    unapplied_updates: int = 0
    fault_stats: object = nested()

    @derived
    def mean_batch_size(self) -> float:
        if self.n_batches == 0:
            return 0.0
        return self.n_requests / self.n_batches

    @derived
    def availability(self) -> float:
        """Fraction of offered requests fully honored.

        Offered = served + shed; honored = served minus updates still
        deferred at run end.  Degraded-but-answered queries count as
        available — they returned an honest (flagged) subset, which is
        the graceful-degradation contract — while shed requests and
        unapplied updates do not.  1.0 on a fault-free run.
        """
        offered = self.n_requests + self.n_shed
        if offered == 0:
            return 1.0
        honored = self.n_requests - self.unapplied_updates
        return max(0.0, honored / offered)

    @derived
    def reads_per_request(self) -> float:
        """Amortized physical reads per admitted request."""
        if self.n_requests == 0:
            return 0.0
        return self.physical_reads / self.n_requests

    def publish(self, registry, **labels) -> None:
        """Publish this run into a ``MetricsRegistry`` as
        ``service.<field>``; per-class sojourn summaries become gauges
        labelled ``kind=<class>`` (``kind=all`` for the overall one)."""
        super().publish(registry, **labels)
        for kind, summary in [("all", self.overall), *sorted(self.per_class.items())]:
            summary.publish(registry, kind=kind, **labels)
        for size, count in sorted(self.batch_size_hist.items()):
            registry.counter("service.batch_size", count, size=size, **labels)


def detect_saturation(
    arrival_ordered_sojourns: list[float],
    backlog_at_last_arrival: int,
    policy: BatchPolicy,
) -> bool:
    """The queue-grows-without-bound test (see module docstring).

    Requires both signals: the final third of sojourns (in arrival
    order) averaging more than twice the first third, *and* more than
    one full batch still waiting when the arrivals stopped.  Either
    alone is a transient; together they are a queue that was still
    growing when the experiment ended.
    """
    if backlog_at_last_arrival <= policy.max_batch:
        return False
    n = len(arrival_ordered_sojourns)
    if n < 6:
        return False
    third = n // 3
    head = arrival_ordered_sojourns[:third]
    tail = arrival_ordered_sojourns[-third:]
    head_mean = sum(head) / len(head)
    tail_mean = sum(tail) / len(tail)
    return tail_mean > 2.0 * head_mean


def build_stats(
    records: "list[tuple]",
    batches: "list",
    policy: BatchPolicy,
    backlog_at_last_arrival: int,
    **counted,
) -> ServiceStats:
    """Assemble :class:`ServiceStats` from a finished run.

    Args:
        records: ``(request, dispatch_us, finish_us)`` per request, in
            submission (arrival) order.
        batches: the run's dispatched-batch records (anything with
            ``requests``, ``dispatch_us``, ``finish_us`` and
            ``queue_depth`` attributes).
        policy: the batching policy the run used.
        backlog_at_last_arrival: probe taken by the worker.
        counted: the :class:`ServiceStats` fields the worker counted
            rather than derived from the records — ``physical_reads`` /
            ``physical_writes`` (deployment counter deltas) and its
            degradation accounting (``n_shed``, ``degraded_queries``,
            ``unapplied_updates``, ``fault_stats``).
    """
    sojourns = [finish - request.arrival_us for request, _, finish in records]
    by_class: dict[str, list[float]] = {kind: [] for kind in REQUEST_KINDS}
    for (request, _, finish), sojourn in zip(records, sojourns):
        by_class[request.kind].append(sojourn)

    size_hist: dict[int, int] = {}
    depth_total = 0
    depth_max = 0
    busy_us = 0.0
    for batch in batches:
        size = len(batch.requests)
        size_hist[size] = size_hist.get(size, 0) + 1
        depth_total += batch.queue_depth
        depth_max = max(depth_max, batch.queue_depth)
        busy_us += batch.finish_us - batch.dispatch_us

    first_arrival = min(
        (request.arrival_us for request, _, _ in records), default=0.0
    )
    last_finish = max((finish for _, _, finish in records), default=0.0)
    first_dispatch = min((batch.dispatch_us for batch in batches), default=0.0)
    makespan_us = max(0.0, last_finish - first_arrival)
    work_span = max(0.0, last_finish - first_dispatch)

    return ServiceStats(
        n_requests=len(records),
        n_batches=len(batches),
        overall=SojournSummary.of(sojourns),
        per_class={
            kind: SojournSummary.of(values)
            for kind, values in by_class.items()
            if values
        },
        batch_size_hist=size_hist,
        queue_depth_max=depth_max,
        queue_depth_mean=depth_total / len(batches) if batches else 0.0,
        backlog_at_last_arrival=backlog_at_last_arrival,
        makespan_us=makespan_us,
        busy_us=busy_us,
        utilization=busy_us / work_span if work_span > 0 else 0.0,
        throughput_per_sec=(
            len(records) / (makespan_us / 1e6) if makespan_us > 0 else 0.0
        ),
        saturated=detect_saturation(sojourns, backlog_at_last_arrival, policy),
        **counted,
    )


__all__ = [
    "ServiceStats",
    "SojournSummary",
    "build_stats",
    "detect_saturation",
    "percentile",
]
