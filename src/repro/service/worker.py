"""The service worker: batches through engine + pipeline on one clock.

:class:`SimulatedService` closes the loop between the three existing
subsystems: a :class:`repro.service.queue.RequestQueue` decides *when*
a batch dispatches, an :class:`repro.engine.updater.UpdatePipeline`
applies the batch's location updates, a
:class:`repro.engine.executor.QueryEngine` executes its queries, and
the deployment's :class:`repro.simio.clock.SimClock` prices all of it
— so a request's
*sojourn* (batch finish instant minus arrival instant) emerges from
the same virtual-time machinery the storage stack already runs on,
with no real threads.

Batch semantics, pinned by the property tests: within one batch the
updates apply first (one pipeline flush), then the queries execute as
one ``execute_batch`` call — a batch is a consistent snapshot taken
after its own writes.  Every request of a batch completes at the
batch's finish instant; the dispatch schedule depends only on arrival
stamps, the policy, and the measured service times.  Replaying a run's
recorded batches directly against ``UpdatePipeline`` +
``execute_batch`` on any equivalent tree therefore reproduces every
result bit-for-bit — which is exactly how the harness proves the
service layer is an *orchestration* of the engine, never a different
engine.

Without a clock (untimed storage) the worker still runs — service
time is then zero and sojourns measure pure admission delay — so the
queueing logic is testable without the simio stack.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.engine.executor import QueryEngine
from repro.engine.updater import UpdatePipeline
from repro.obs.trace import NULL_RECORDER, record_exemplars
from repro.service.queue import BatchPolicy, DispatchedBatch, RequestQueue
from repro.service.stats import ServiceStats, build_stats
from repro.service.requests import ServiceRequest

if TYPE_CHECKING:
    from repro.motion.objects import MovingObject


@dataclass
class BatchOutcome:
    """One dispatched batch, as served.

    Attributes:
        requests: batch members in arrival order.
        dispatch_us / finish_us: service start and end instants
            (relative to the run's time origin).
        queue_depth: congestion at dispatch (see
            :class:`DispatchedBatch`).
        trigger: ``"full"`` or ``"timeout"``.
        n_updates / n_queries: batch composition.
        query_results: per-query result objects, in batch order —
            ``PRQResult`` / ``PKNNResult``, exactly what
            ``execute_batch`` returned; the replay pin compares
            against these.
        shed: requests the admission queue dropped at this dispatch
            (never served).
        degraded: per-query flags in batch order, True when the query
            was answered with a quarantined shard's sub-bands dropped
            (empty without a fault-tolerant deployment).
        update_finish_us: the instant the batch's update flush came
            back (== ``dispatch_us`` for a query-only batch), splitting
            service time into update and query phases for tracing.
    """

    requests: list[ServiceRequest]
    dispatch_us: float
    finish_us: float
    queue_depth: int
    trigger: str
    n_updates: int
    n_queries: int
    query_results: list = field(default_factory=list)
    shed: list[ServiceRequest] = field(default_factory=list)
    degraded: list = field(default_factory=list)
    update_finish_us: float = 0.0

    @property
    def updates(self) -> "list[tuple[MovingObject, int]]":
        """The batch's update payloads, in arrival order."""
        return [
            (request.update, request.pntp)
            for request in self.requests
            if request.is_update
        ]

    @property
    def query_specs(self) -> list:
        """The batch's query specs, in arrival order."""
        return [
            request.query for request in self.requests if not request.is_update
        ]


@dataclass
class ServiceReport:
    """Outcome of one open-loop run.

    Attributes:
        records: ``(request, dispatch_us, finish_us)`` per request in
            submission order.
        batches: every dispatched batch with its results.
        stats: the aggregated :class:`ServiceStats`.
        shed: requests the admission queue dropped (never served, never
            in ``records``), in shed order.
    """

    records: list = field(default_factory=list)
    batches: list[BatchOutcome] = field(default_factory=list)
    stats: ServiceStats = field(default_factory=ServiceStats)
    shed: list[ServiceRequest] = field(default_factory=list)

    def sojourn_us(self, seq: int) -> float:
        request, _, finish = self.records[seq]
        if request.seq != seq:
            raise KeyError(f"no record for request {seq}")
        return finish - request.arrival_us


class SimulatedService:
    """A single-worker service front-end over one deployment.

    Args:
        engine: the query engine over the deployment.
        pipeline: the update pipeline; must write to the same deployment.
        policy: the admission/batching policy.

    Time and tracing come from the deployment's ``sim_clock`` (None:
    admission-only timing) and ``recorder``.  Tracing only reads the
    clock — a traced run is bit-identical to an untraced one.
    """

    def __init__(
        self,
        engine: QueryEngine,
        pipeline: UpdatePipeline,
        policy: BatchPolicy | None = None,
    ):
        if pipeline.tree is not engine.tree:
            raise ValueError("pipeline and engine must share one tree")
        self.engine = engine
        self.pipeline = pipeline
        self.policy = policy if policy is not None else BatchPolicy()
        self.clock = engine.tree.sim_clock

    def run(self, requests: Sequence[ServiceRequest]) -> ServiceReport:
        """Serve one stamped open-loop stream to completion.

        The worker is sequential: batches serve one after another, each
        starting at ``max(trigger instant, previous finish)``.  Arrival
        stamps are relative to the run's start; the clock's current
        horizon is taken as the time origin, so build-time charges
        never leak into sojourns.

        The heap that exists on entry is frozen (``gc.freeze``) until
        the run returns.  A full collection inside a run walks
        everything the process holds — the policy directory alone is
        hundreds of thousands of objects — to find next to nothing:
        what a run drops from the older heap dies by reference count.
        One such walk costs more than a hundred served range queries,
        and which request pays for it shifts with the size of the heap
        around the deployment.  Frozen, the older heap is skipped and
        the run's collections cost what the run allocates.  A process
        that froze its heap itself keeps it that way.
        """
        # First thing, before the run allocates anything.
        thaw = not gc.get_freeze_count()
        if thaw:
            gc.freeze()
        try:
            return self._run(requests)
        finally:
            if thaw:
                gc.unfreeze()

    def _run(self, requests: Sequence[ServiceRequest]) -> ServiceReport:
        queue = RequestQueue(requests, self.policy)
        clock = self.clock
        base = clock.elapsed if clock is not None else 0.0
        tree = self.engine.tree
        recorder = tree.recorder if tree.recorder is not None else NULL_RECORDER
        if recorder.enabled:
            recorder.set_origin(base)
        stats = tree.stats
        reads_before = stats.physical_reads
        writes_before = stats.physical_writes

        supervisor = tree.supervisor
        faults_before = supervisor.stats.copy() if supervisor is not None else None

        report = ServiceReport()
        last_arrival = max(
            (request.arrival_us for request in requests), default=0.0
        )
        backlog_probe = 0
        free_at = 0.0
        while (batch := queue.next_batch(free_at)) is not None:
            report.shed.extend(batch.shed)
            if not batch.requests:
                # Everything waiting was shed; the worker never started.
                continue
            outcome = self._serve(batch, base)
            free_at = outcome.finish_us
            if recorder.enabled:
                self._trace_batch(recorder, batch, outcome, base)
            report.batches.append(outcome)
            for request in outcome.requests:
                report.records.append(
                    (request, outcome.dispatch_us, outcome.finish_us)
                )
            if outcome.dispatch_us <= last_arrival:
                # The most recent dispatch at or before the end of the
                # arrival stream sees the backlog the stream left behind.
                backlog_probe = queue.backlog_at(last_arrival)

        report.records.sort(key=lambda record: record[0].seq)
        report.stats = build_stats(
            report.records,
            report.batches,
            self.policy,
            backlog_at_last_arrival=backlog_probe,
            physical_reads=stats.physical_reads - reads_before,
            physical_writes=stats.physical_writes - writes_before,
            n_shed=len(report.shed),
            degraded_queries=sum(
                sum(1 for flag in outcome.degraded if flag)
                for outcome in report.batches
            ),
            unapplied_updates=self.pipeline.pending,
            fault_stats=(
                supervisor.stats.delta_from(faults_before)
                if supervisor is not None
                else None
            ),
        )
        if recorder.enabled:
            record_exemplars(recorder, report.records, offset=base)
            recorder.metadata("service_stats", report.stats.snapshot())
        return report

    @staticmethod
    def _trace_batch(recorder, batch: DispatchedBatch, outcome, base: float):
        """Emit one served batch's spans, instants, and request flows.

        Pure observation: every timestamp was already computed by the
        serving path; nothing here touches the clock.
        """
        dispatch = base + outcome.dispatch_us
        finish = base + outcome.finish_us
        oldest = base + min(
            request.arrival_us for request in outcome.requests
        )
        recorder.span(
            "queue",
            "queue.wait",
            oldest,
            dispatch,
            category="service",
            args={
                "n_requests": len(outcome.requests),
                "trigger": outcome.trigger,
                "queue_depth": outcome.queue_depth,
                "wait_on_worker_us": outcome.dispatch_us - batch.trigger_us,
            },
        )
        recorder.span(
            "worker",
            "batch.serve",
            dispatch,
            finish,
            category="service",
            args={
                "n_updates": outcome.n_updates,
                "n_queries": outcome.n_queries,
                "trigger": outcome.trigger,
                "queue_depth": outcome.queue_depth,
            },
        )
        if outcome.n_updates:
            recorder.span(
                "worker",
                "batch.updates",
                dispatch,
                base + outcome.update_finish_us,
                category="service",
                args={"n_updates": outcome.n_updates},
            )
        for request in outcome.requests:
            arrival = base + request.arrival_us
            recorder.span(
                "requests",
                f"req.{request.kind}",
                arrival,
                arrival,
                category="request",
                args={"seq": request.seq},
            )
            recorder.flow("s", request.seq, "requests", arrival)
            recorder.flow("t", request.seq, "worker", dispatch)
            recorder.flow("f", request.seq, "worker", finish)
        for request in outcome.shed:
            recorder.instant(
                "queue",
                "shed",
                dispatch,
                category="service",
                args={"seq": request.seq, "kind": request.kind},
            )

    def _serve(self, batch: DispatchedBatch, base: float) -> BatchOutcome:
        """Apply one batch — updates first, then queries — and time it."""
        clock = self.clock
        if clock is not None:
            clock.set_cursor(base + batch.dispatch_us)

        outcome = BatchOutcome(
            requests=list(batch.requests),
            dispatch_us=batch.dispatch_us,
            finish_us=batch.dispatch_us,
            queue_depth=batch.queue_depth,
            trigger=batch.trigger,
            n_updates=0,
            n_queries=0,
            shed=list(batch.shed),
        )
        updates = outcome.updates
        query_specs = outcome.query_specs
        outcome.n_updates = len(updates)
        outcome.n_queries = len(query_specs)
        if updates:
            self.pipeline.extend(updates)
            self.pipeline.flush()
        outcome.update_finish_us = (
            clock.cursor() - base if clock is not None else batch.dispatch_us
        )
        if query_specs:
            engine_report = self.engine.execute_batch(query_specs)
            outcome.query_results = list(engine_report.results)
            outcome.degraded = list(engine_report.degraded)

        if clock is not None:
            outcome.finish_us = clock.cursor() - base
        return outcome


__all__ = ["BatchOutcome", "ServiceReport", "SimulatedService"]
