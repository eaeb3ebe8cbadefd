"""Plan execution and cross-query batching (engine layer 3).

:class:`QueryEngine` is the single implementation of the Section 5.3
pipeline.  Every privacy-aware query path in the repository — PRQ
(:mod:`repro.core.prq`), the aggregates (:mod:`repro.core.aggregate`),
the Figure 7 span-scan ablation (:mod:`repro.core.ablation`), the
continuous-query registration scan (:mod:`repro.core.continuous`), the
served PkNN fetch and the Section 5.4 matrix walk
(:mod:`repro.core.pknn`) — is a thin adapter over this engine: the
planner decides *what* to scan, the scanner decides *how* (from a
proven interval, or physically), the verifier decides *who qualifies*,
and this module drives the three in the paper's iteration order with
the skip rule applied in one place.

Batching (:meth:`QueryEngine.execute_batch`) is the throughput path the
ROADMAP's north star asks for: many concurrent query specs are planned
up front, their band requests are merged across issuers, each merged
band is physically scanned once (:meth:`BandScanner.prefetch`), and
every query is then replayed against the resident rows with *zero
additional index I/O*.  Per-query results are bit-identical to
running the queries one at a time — the replay applies the identical
iteration order and skip rules — while the physical reads per query
drop by the cross-query overlap, reported as
:attr:`ExecutionStats.dedup_ratio`.  Replay is one loop in spec order:
a kNN spec's point bands replay as a range plan's do, and on a timed
sharded deployment every verified band of every spec is booked on the
scanner's one verify timeline (:class:`repro.shard.engine.VerifyTimeline`).

One engine serves every deployment (:mod:`repro.engine.deployment`):
every path takes its scanner from it (:meth:`QueryEngine.new_scanner`)
— a :class:`BandScanner` on one PEB-tree, a scatter/gather scanner on a
sharded deployment (:mod:`repro.shard.engine`) — and the rest from
its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.counters import CounterSet, counter, derived, nested
from repro.engine.plan import QueryPlan, QueryPlanner
from repro.engine.scanner import BandScanner
from repro.engine.verify import CandidateVerifier
from repro.spatial.geometry import Rect
from repro.storage.faults import DiskFaultError
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

if TYPE_CHECKING:
    from repro.core.peb_tree import PEBTree
    from repro.fault.stats import FaultStats
    from repro.motion.objects import MovingObject
    from repro.shard.stats import ShardStats

#: Callback invoked per qualifying user with its located position;
#: returning True stops the scan early (the existential aggregate).
OnMatch = Callable[["MovingObject", float, float], bool]


@dataclass
class ExecutionStats(CounterSet, prefix="engine."):
    """Scan-level accounting of one batch execution.

    Attributes:
        bands_requested: band requests actually issued to the scanner —
            after the skip rule dropped the bands of already-located
            friends — whether static (range plans) or adaptive (PkNN
            rounds), so the dedup ratio compares like with like.
        bands_scanned: physical scans that reached the tree, including
            batch prefetch merges.
        bands_deduped: requests served from the scanner's stratum
            residency or its memo instead of the tree.
        residency_hits: the deduped requests a proven stratum interval
            answered (the rest were memo hits: multi-SV spans and
            ZV-first layouts, which keep no residency).
        candidates_examined: entries located and verified.
        physical_reads: page-level reads the buffer pool could not
            serve, measured across the execution.
        shard_stats: per-shard breakdown of this execution's I/O when
            it ran on a sharded deployment (None on a single tree);
            entries are point-in-time.
        fault_stats: fault-handling events of this execution
            (:class:`repro.fault.stats.FaultStats` delta) when the
            deployment carries a shard supervisor; None otherwise.
        virtual_time_us: simulated elapsed time of this execution in
            virtual microseconds, when the tree runs on timed devices
            (:mod:`repro.simio`); 0.0 on untimed storage.  Overlapped
            scheduling shrinks this number while leaving every counter
            above unchanged — which is exactly why it exists.
            Verification CPU (``verify_us`` per candidate) is priced
            only by batch execution, the simio subsystem's consumer
            surface.
        entries_prefetched: index entries transferred by batch prefetch
            scans (0 when prefetching was off or skipped).
        dead_entries: prefetched entries outside every band actually
            requested during replay — the merged prefetch's over-scan,
            measurable even on untimed storage.
        memo_evictions: bands dropped from the scanner's exact-identity
            memo by its LRU entry bound (0 unless a batch outgrew it).
        seeks: device positionings charged during the execution, when
            the tree runs on timed devices; 0 on untimed storage.
        sequential_hits: accesses that rode a sequential run instead of
            seeking, under the same conditions.
    """

    bands_requested: int = 0
    bands_scanned: int = 0
    bands_deduped: int = 0
    residency_hits: int = 0
    candidates_examined: int = 0
    physical_reads: int = 0
    shard_stats: "ShardStats | None" = nested()
    fault_stats: "FaultStats | None" = nested()
    virtual_time_us: float = counter(0.0, as_gauge=True)
    entries_prefetched: int = 0
    dead_entries: int = 0
    memo_evictions: int = 0
    seeks: int = 0
    sequential_hits: int = 0

    @derived
    def dedup_ratio(self) -> float:
        """Fraction of band requests that did not cost a physical scan.

        ``1 - bands_scanned / bands_requested``: 0 when every request
        needed its own scan, approaching 1 when a few physical scans
        (batch prefetch merges included) served many requests.
        """
        if self.bands_requested == 0:
            return 0.0
        return max(0.0, 1.0 - self.bands_scanned / self.bands_requested)

    @derived
    def overscan_ratio(self) -> float:
        """Fraction of prefetched entries that no request consumed."""
        if self.entries_prefetched == 0:
            return 0.0
        return self.dead_entries / self.entries_prefetched


def check_complete(tree: "PEBTree", dropped: int) -> None:
    """Refuse a single query's answer that a quarantined shard cut short
    since ``tree.bands_dropped`` read ``dropped``: its result carries no
    ``degraded`` flag, so raise instead."""
    cut = tree.bands_dropped - dropped
    if cut:
        raise DiskFaultError(
            f"{cut} sub-band(s) dropped by a quarantined shard; "
            "a single query does not answer degraded"
        )


@dataclass
class RangeExecution:
    """Outcome of one range-shaped plan execution."""

    candidates_examined: int
    stopped_early: bool


@dataclass
class BatchReport:
    """Outcome of one batch execution.

    Attributes:
        results: per-spec results, in spec order — ``PRQResult`` for
            range specs, ``PKNNResult`` for kNN specs, directly
            comparable to the output of :func:`repro.core.prq.prq` and
            :func:`repro.core.pknn.pknn` on the same spec.
        stats: batch-level scan accounting (the dedup headline).
        degraded: per-spec flags, in spec order — True when the query's
            result was served with at least one sub-band dropped by a
            quarantined shard (complete-minus-dropped-shards, never
            wrong-by-inclusion).  All False on fault-free runs and on
            deployments without a supervisor.
    """

    results: list = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    degraded: list = field(default_factory=list)


class QueryEngine:
    """The unified privacy-aware query engine over one deployment.

    Args:
        tree: the deployment to query: a :class:`PEBTree` or a
            :class:`repro.shard.tree.ShardedPEBTree`.

    A single query given no scanner takes a fresh one and raises
    :class:`DiskFaultError` when a quarantined shard dropped one of its
    sub-bands (:func:`check_complete`); a batch flags it ``degraded``.
    """

    def __init__(self, tree: "PEBTree"):
        self.tree = tree
        self.planner = QueryPlanner(tree)

    def new_scanner(self) -> BandScanner:
        """A fresh scanner (one deduplication scope) from the deployment:
        every path of this engine takes its scanner here, so a test
        installs its equipment by overriding this one method."""
        return self.tree.new_scanner()

    # ------------------------------------------------------------------
    # Single-query execution
    # ------------------------------------------------------------------

    def execute_range(
        self,
        q_uid: int,
        window: Rect,
        t_query: float,
        on_match: OnMatch | None = None,
        scanner: BandScanner | None = None,
    ) -> RangeExecution:
        """Run the Section 5.3 pipeline for one range-shaped query."""
        plan = self.planner.plan_range(q_uid, window, t_query)
        return self.run_range_plan(plan, on_match, scanner)

    def execute_span_scan(
        self,
        q_uid: int,
        window: Rect,
        t_query: float,
        on_match: OnMatch | None = None,
        scanner: BandScanner | None = None,
    ) -> RangeExecution:
        """Run the literal Figure 7 span-scan procedure (ablation)."""
        plan = self.planner.plan_span_scan(q_uid, window, t_query)
        return self.run_range_plan(plan, on_match, scanner)

    def run_range_plan(
        self,
        plan: QueryPlan,
        on_match: OnMatch | None = None,
        scanner: BandScanner | None = None,
    ) -> RangeExecution:
        """Execute a planned scan schedule with the skip rule applied.

        Bands are visited in plan order; a band whose friend is already
        located is skipped ("a user has only one location").  Each newly
        located candidate is policy-checked and window-tested (a PkNN
        plan has no window), and ``on_match`` may stop the whole
        execution early by returning True (the ``at_least`` aggregate).
        On a verify timeline every verified band is booked on the
        pipeline, a kNN spec's point bands as a range plan's.
        """
        owned = scanner is None
        if owned:
            scanner = self.new_scanner()
            dropped = self.tree.bands_dropped
        timeline = scanner.timeline
        verifier = CandidateVerifier(
            self.tree.store, plan.q_uid, plan.t_query, plan.visible
        )
        stopped = False
        located = verifier.located
        for planned in plan.bands:
            friend_uid = planned.friend_uid
            if friend_uid is not None and friend_uid in located:
                continue
            rows = scanner.scan(planned.band)
            if not rows.records:
                continue  # most bands come back empty: nothing to admit
            seen = verifier.candidates_examined
            stopped = verifier.admit_rows(rows, plan.window, on_match)
            if timeline is not None:
                timeline.book_verified(planned.band, verifier.candidates_examined - seen)
            if stopped:
                break
        if owned:
            check_complete(self.tree, dropped)
        return RangeExecution(
            candidates_examined=verifier.candidates_examined,
            stopped_early=stopped,
        )

    def collect_friend_states(
        self, q_uid: int, scanner: BandScanner | None = None
    ) -> "dict[int, MovingObject]":
        """Fetch every friend's current motion function via its SV band.

        The continuous-query registration scan: I/O bounded by the
        friend count, not the population (the Figure 15(a) property).
        Only users actually holding a policy about the issuer are
        returned — entries merely sharing a quantized SV are dropped.
        """
        owned = scanner is None
        if owned:
            scanner = self.new_scanner()
            dropped = self.tree.bands_dropped
        plan = self.planner.plan_seed(q_uid)
        store = self.tree.store
        tracked: dict[int, "MovingObject"] = {}
        for planned in plan.bands:
            if planned.friend_uid in tracked:
                continue
            rows = scanner.scan(planned.band)
            # The policy probe needs only the uid, so states
            # materialize just for tracked friends.
            for i, rec in enumerate(rows.records):
                uid = rec[0]
                if uid not in tracked and store.policies_for(uid, q_uid):
                    tracked[uid] = rows.object_at(i)
        if owned:
            check_complete(self.tree, dropped)
        return tracked

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def execute_batch(self, specs: Sequence) -> BatchReport:
        """Execute many concurrent query specs with shared band scans.

        Args:
            specs: ``RangeQuerySpec`` / ``KnnQuerySpec`` instances (the
                :mod:`repro.workloads.queries` types), in any mix.

        Every spec is planned up front and every planned band joins one
        prefetch, sorted into key order: a range plan's point bands, one
        per friend whose cell can reach the window
        (:meth:`repro.engine.plan.QueryPlanner.plan_range`), and a kNN
        spec's, one per visible friend that can be among its k nearest
        (:func:`repro.core.pknn.plan_pknn`), each at the friend's live
        key.  Replay asks for no band outside
        the prefetch (the skip rule can only *remove* bands).  A stratum
        holds one raw sequence value, so issuers share leaves rather
        than strata, and a key-ordered sweep reads a shared leaf while
        it is resident.

        Replay is one loop in spec order; results and ``degraded``
        flags come back in spec order.  A kNN spec is a range plan
        without a window: it admits its bands' rows through the verifier
        and keeps the k nearest (:func:`repro.core.pknn.pknn_from_plan`).
        When the scanner has a verify timeline (a timed sharded
        deployment's), every spec's verified bands are booked on it as
        they replay, each query's verification is closed there
        (``charge_query``), and ``end_batch`` prices the one verify CPU
        — each band as its stratum lands — and joins the shards.

        A spec of an unsupported type, a range spec with a non-finite
        ``t_query``, or a kNN spec with a negative ``k`` or a non-finite
        ``qx``/``qy``/``t_query``, raises before anything is planned,
        scanned or counted.
        """
        # Imported here: repro.core.{prq,pknn} are adapters over this
        # module, so importing them at module scope would cycle.
        from repro.core.pknn import check_knn_arguments, plan_pknn, pknn_from_plan
        from repro.core.prq import check_range_arguments, prq_from_plan

        for spec in specs:
            if isinstance(spec, RangeQuerySpec):
                check_range_arguments(spec.t_query)
            elif isinstance(spec, KnnQuerySpec):
                check_knn_arguments(spec.k, spec.qx, spec.qy, spec.t_query)
            else:
                raise TypeError(
                    f"unsupported query spec {spec!r}; expected "
                    "RangeQuerySpec or KnnQuerySpec"
                )

        scanner = self.new_scanner()
        planner = self.planner
        plans = [
            planner.plan_range(spec.q_uid, spec.window, spec.t_query)
            if isinstance(spec, RangeQuerySpec)
            else plan_pknn(planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)
            for spec in specs
        ]

        clock = self.tree.sim_clock
        before = self._progress(scanner)
        recorder = self.tree.recorder
        tracing = recorder is not None and recorder.enabled
        if tracing:
            t_scan0 = clock.cursor() if clock is not None else 0.0
            recorder.instant(
                "engine/scan",
                "plan",
                t_scan0,
                category="engine",
                args={
                    "specs": len(specs),
                    "knn_bands": sum(
                        len(plan.bands)
                        for spec, plan in zip(specs, plans)
                        if isinstance(spec, KnnQuerySpec)
                    ),
                },
            )
        scanner.prefetch(sorted(planned.band for plan in plans for planned in plan.bands))
        if tracing:
            recorder.span(
                "engine/scan",
                "scan.prefetch",
                t_scan0,
                clock.cursor() if clock is not None else 0.0,
                category="engine",
                args={
                    "entries_prefetched": scanner.entries_prefetched,
                    "physical_scans": scanner.physical_scans,
                },
            )

        report = BatchReport(results=[None] * len(specs), degraded=[False] * len(specs))
        if tracing:
            t_replay0 = clock.cursor() if clock is not None else 0.0

        timeline = scanner.timeline
        # Every plan replays off the prefetched batch, in spec order.
        for index, (spec, plan) in enumerate(zip(specs, plans)):
            dropped = self.tree.bands_dropped
            if isinstance(spec, RangeQuerySpec):
                result = prq_from_plan(self, plan, scanner)
            else:
                result = pknn_from_plan(self, plan, spec.qx, spec.qy, spec.k, scanner)
            if timeline is not None:
                timeline.charge_query(result.candidates_examined)
            report.stats.candidates_examined += result.candidates_examined
            report.results[index] = result
            report.degraded[index] = self.tree.bands_dropped > dropped
        if timeline is not None:
            timeline.end_batch()
        if tracing:
            recorder.span(
                "engine/replay",
                "query.replay",
                t_replay0,
                clock.cursor() if clock is not None else 0.0,
                category="engine",
                args={
                    "queries": len(specs),
                    "candidates": report.stats.candidates_examined,
                },
            )

        examined = report.stats.candidates_examined
        report.stats = self._progress(scanner).delta_from(before)
        report.stats.candidates_examined = examined
        report.stats.entries_prefetched = scanner.entries_prefetched
        report.stats.dead_entries = scanner.dead_entries
        report.stats.memo_evictions = scanner.memo_evictions
        return report

    def _progress(self, scanner) -> ExecutionStats:
        """The cumulative counters an execution is measured between.

        Two of these bracket a batch; their
        :meth:`~ExecutionStats.delta_from` is what it cost.  Shards add their breakdown and a supervisor its fault
        counters, so a delta's sum to the counters beside them.
        """
        tree = self.tree
        clock = tree.sim_clock
        latency = tree.latency_stats
        seen = ExecutionStats(
            bands_requested=scanner.requests,
            bands_scanned=scanner.physical_scans,
            bands_deduped=scanner.deduped,
            residency_hits=scanner.residency_hits,
            physical_reads=tree.stats.physical_reads,
            virtual_time_us=clock.elapsed if clock is not None else 0.0,
            seeks=latency.seeks if latency is not None else 0,
            sequential_hits=latency.sequential_hits if latency is not None else 0,
        )
        if tree.router is not None:
            seen.shard_stats = tree.shard_stats()
        if tree.supervisor is not None:
            seen.fault_stats = tree.supervisor.stats.copy()
        return seen


__all__ = [
    "BatchReport",
    "ExecutionStats",
    "OnMatch",
    "QueryEngine",
    "RangeExecution",
    "check_complete",
]
