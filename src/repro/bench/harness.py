"""Experiment harness (Section 7.1 settings).

One harness instance is a :class:`repro.bench.world.World` — a movement
workload, a policy store with encoded sequence values, a PEB-tree, and
the Bx-tree + filter baseline, each index on its own simulated disk —
plus the measurements run on it.  Indexes are built with a generous
build buffer (builds are not part of the reported numbers); before each
query batch the pools are flushed and resized to the paper's 50-page
LRU buffer and the physical-read counters zeroed, so the reported
figure is the paper's "average I/O cost of N queries".
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.bench.world import ExperimentConfig, World, build_world
from repro.bxtree.tree import BxTree
from repro.core.checkpoint import clone_peb_tree
from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn_walk
from repro.core.prq import prq
from repro.counters import CounterSet, derived
from repro.engine import QueryEngine, UpdatePipeline
from repro.obs import MetricsRegistry
from repro.service import (
    BatchPolicy,
    OpenLoopGenerator,
    ServiceStats,
    SimulatedService,
)
from repro.shard import ShardedPEBTree
from repro.motion.objects import MovingObject
from repro.workloads.queries import QueryGenerator


@dataclass
class QueryCosts:
    """Average per-query physical reads of the two approaches."""

    peb_io: float
    baseline_io: float
    n_queries: int
    peb_result_sizes: list[int] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Baseline I/O over PEB-tree I/O (>1 means the PEB-tree wins)."""
        if self.peb_io <= 0:
            return float("inf") if self.baseline_io > 0 else 1.0
        return self.baseline_io / self.peb_io


@dataclass
class BatchQueryCosts:
    """One-at-a-time vs batched execution of the same PRQ workload.

    Attributes:
        sequential_io: physical reads per query, queries run one at a
            time through :func:`repro.core.prq.prq`.
        batched_io: physical reads per query through
            :meth:`repro.engine.QueryEngine.execute_batch`.
        n_queries: batch size.
        dedup_ratio: fraction of key requests the batch served without
            touching the tree (:attr:`repro.engine.ExecutionStats.dedup_ratio`).
        sequential_seconds, batched_seconds: wall-clock of each mode.
        distinct_io: distinct pages the batch touches, per query — the
            floor no schedule of its scans can read below: the same
            batch on a cold pool that holds the whole tree reads each
            touched page once.
    """

    sequential_io: float
    batched_io: float
    n_queries: int
    dedup_ratio: float
    sequential_seconds: float
    batched_seconds: float
    distinct_io: float

    @property
    def io_reduction(self) -> float:
        """Sequential reads over batched reads (>1 means batching wins)."""
        if self.batched_io <= 0:
            return float("inf") if self.sequential_io > 0 else 1.0
        return self.sequential_io / self.batched_io

    @property
    def sequential_qps(self) -> float:
        if self.sequential_seconds <= 0:
            return float("inf")
        return self.n_queries / self.sequential_seconds

    @property
    def batched_qps(self) -> float:
        if self.batched_seconds <= 0:
            return float("inf")
        return self.n_queries / self.batched_seconds


@dataclass
class UpdateRoundCosts:
    """One-at-a-time vs pipelined application of one update round.

    Attributes:
        sequential_io: physical reads + writes per update, states
            applied one :meth:`PEBTree.update` at a time.
        batched_io: physical reads + writes per update through
            :class:`repro.engine.UpdatePipeline` at ``batch_size``.
        n_updates: states applied (identical in both modes).
        batch_size: pipeline flush threshold measured.
        in_place_ratio: fraction of states served by an in-place leaf
            rewrite (same PEB-key re-reports).
        descents_saved: root-to-leaf descents batching avoided.
        sequential_seconds, batched_seconds: wall-clock of each mode.
    """

    sequential_io: float
    batched_io: float
    n_updates: int
    batch_size: int
    in_place_ratio: float
    descents_saved: int
    sequential_seconds: float
    batched_seconds: float

    @property
    def io_reduction(self) -> float:
        """Sequential I/O over batched I/O (>1 means the pipeline wins)."""
        if self.batched_io <= 0:
            return float("inf") if self.sequential_io > 0 else 1.0
        return self.sequential_io / self.batched_io

    @property
    def sequential_ups(self) -> float:
        """Updates per second, one-at-a-time mode."""
        if self.sequential_seconds <= 0:
            return float("inf")
        return self.n_updates / self.sequential_seconds

    @property
    def batched_ups(self) -> float:
        """Updates per second, pipelined mode."""
        if self.batched_seconds <= 0:
            return float("inf")
        return self.n_updates / self.batched_seconds


@dataclass
class ShardScalingCosts:
    """One shard count's sharded-vs-single measurement of one workload.

    Both deployments start from the same population, apply the same
    update stream through an :class:`repro.engine.UpdatePipeline`, and
    run the same query batch; per-query results are asserted identical.
    The single tree keeps the paper's one buffer; each shard owns its
    own pool of ``shard_buffer_pages`` — added shards add buffer, which
    is the scale-out story the benchmark quantifies.

    Attributes:
        n_shards: shard count of the sharded deployment.
        workload: ``"uniform"`` or ``"hotspot"``.
        ops_applied: distinct states applied (identical in both modes).
        n_queries: query batch size.
        single_update_reads / single_update_writes: physical I/O of the
            update phase on the single tree (final pool flush included).
        sharded_update_reads / sharded_update_writes: same, summed over
            every shard's pool.
        single_query_reads / sharded_query_reads: physical reads of the
            query batch.
        balance_skew: largest shard over the even-split ideal
            (:attr:`repro.shard.ShardStats.balance_skew`).
    """

    n_shards: int
    workload: str
    ops_applied: int
    n_queries: int
    single_update_reads: int
    single_update_writes: int
    sharded_update_reads: int
    sharded_update_writes: int
    single_query_reads: int
    sharded_query_reads: int
    balance_skew: float

    @property
    def single_ops_per_write(self) -> float:
        """Update throughput of the single tree: ops per physical write."""
        if self.single_update_writes <= 0:
            return float("inf") if self.ops_applied > 0 else 0.0
        return self.ops_applied / self.single_update_writes

    @property
    def sharded_ops_per_write(self) -> float:
        """Update throughput of the sharded deployment."""
        if self.sharded_update_writes <= 0:
            return float("inf") if self.ops_applied > 0 else 0.0
        return self.ops_applied / self.sharded_update_writes

    @property
    def update_throughput_gain(self) -> float:
        """Sharded over single ops-per-write (>1 means sharding wins)."""
        single = self.single_ops_per_write
        sharded = self.sharded_ops_per_write
        if single == sharded:
            return 1.0
        if single <= 0 or sharded == float("inf"):
            return float("inf")
        return sharded / single

    @property
    def single_query_io(self) -> float:
        """Physical reads per query, single tree."""
        return self.single_query_reads / max(1, self.n_queries)

    @property
    def sharded_query_io(self) -> float:
        """Physical reads per query, summed across shards."""
        return self.sharded_query_reads / max(1, self.n_queries)


@dataclass
class OverlapCosts(CounterSet):
    """Simulated-latency comparison: overlapped N-shard vs 1-shard.

    Both deployments run on :class:`repro.simio.disk.TimedDisk` devices
    under the same :class:`repro.simio.model.LatencyModel` profile and
    apply the identical workload (an update stream, then a range-query
    batch); results and end state are pinned to an *untimed* single-tree
    reference, so the only thing that differs is the virtual schedule.
    The baseline puts every scan and sweep on one device; the sharded
    run overlaps per-shard prefetch scans and per-shard update sweeps.
    Both pipeline verification against still-running scans, which on
    one shard can only overlap the tail of its one sweep.

    Attributes:
        profile: latency profile name (``hdd`` / ``ssd`` / ``nvme``).
        n_shards: shard count of the overlapped deployment.
        workload: ``"uniform"`` or ``"hotspot"``.
        ops_applied: distinct states applied (identical in all runs).
        n_queries: query batch size.
        baseline_update_us / baseline_query_us: virtual elapsed time of
            each phase on the 1-shard deployment.
        sharded_update_us / sharded_query_us: same on the N-shard
            overlapped deployment.
        baseline_reads / baseline_writes: physical I/O of the baseline
            (update + query phases, final pool flush included).
        sharded_reads / sharded_writes: same, summed across shards.
        sharded_busy_us: summed device-serialized time of the sharded
            run — divided by its elapsed time this is the overlap
            factor (1.0 = serial, N = N devices kept busy).
        baseline_busy_us: same for the baseline (≈ its elapsed time).
        baseline_seeks / sharded_seeks: accesses that paid the
            positioning cost (from the devices'
            :class:`~repro.simio.stats.LatencyStats`).
        baseline_sequential_hits / sharded_sequential_hits: accesses
            that rode a sequential run instead — together with the
            seeks, the device-level view of how well merged scans and
            leaf-ordered sweeps preserve sequentiality.
    """

    profile: str
    n_shards: int
    workload: str
    ops_applied: int
    n_queries: int
    baseline_update_us: float
    baseline_query_us: float
    sharded_update_us: float
    sharded_query_us: float
    baseline_reads: int
    baseline_writes: int
    sharded_reads: int
    sharded_writes: int
    baseline_busy_us: float
    sharded_busy_us: float
    baseline_seeks: int = 0
    baseline_sequential_hits: int = 0
    sharded_seeks: int = 0
    sharded_sequential_hits: int = 0

    @property
    def baseline_elapsed_us(self) -> float:
        return self.baseline_update_us + self.baseline_query_us

    @property
    def sharded_elapsed_us(self) -> float:
        return self.sharded_update_us + self.sharded_query_us

    @derived
    def speedup(self) -> float:
        """Virtual wall-clock gain of the overlapped deployment."""
        if self.sharded_elapsed_us <= 0:
            return float("inf") if self.baseline_elapsed_us > 0 else 1.0
        return self.baseline_elapsed_us / self.sharded_elapsed_us

    @derived
    def update_speedup(self) -> float:
        if self.sharded_update_us <= 0:
            return float("inf") if self.baseline_update_us > 0 else 1.0
        return self.baseline_update_us / self.sharded_update_us

    @derived
    def query_speedup(self) -> float:
        if self.sharded_query_us <= 0:
            return float("inf") if self.baseline_query_us > 0 else 1.0
        return self.baseline_query_us / self.sharded_query_us

    @derived
    def overlap_factor(self) -> float:
        """Device busy time over elapsed time on the sharded run.

        1.0 means the devices never overlapped (serial I/O); values
        toward ``n_shards`` mean the scheduler genuinely kept that many
        devices busy at once.  Can dip below 1.0 when CPU verification
        (not device time) contributes to the elapsed tail.
        """
        if self.sharded_elapsed_us <= 0:
            return 1.0
        return self.sharded_busy_us / self.sharded_elapsed_us

    @derived
    def baseline_sequential_ratio(self) -> float:
        """Fraction of baseline accesses that skipped the seek."""
        total = self.baseline_seeks + self.baseline_sequential_hits
        return self.baseline_sequential_hits / total if total else 0.0

    @derived
    def sharded_sequential_ratio(self) -> float:
        """Fraction of sharded accesses that skipped the seek."""
        total = self.sharded_seeks + self.sharded_sequential_hits
        return self.sharded_sequential_hits / total if total else 0.0


@dataclass
class ServiceCosts(CounterSet):
    """One open-loop service run: offered load in, tail latency out.

    Produced by :meth:`ExperimentHarness.run_service`.  A stamped
    request stream (Poisson or burst arrivals at ``rate_per_sec``) is
    served by a single batching worker over a timed N-shard deployment;
    every recorded batch is then replayed directly through
    ``UpdatePipeline`` + ``execute_batch`` on an untimed single-tree
    clone and asserted result-identical — the service layer changes
    *when* work runs, never *what* it computes.

    Attributes:
        rate_per_sec: offered arrival rate (virtual requests/second).
        arrival: arrival process (``poisson`` / ``burst``).
        n_shards / profile: deployment shape and latency profile.
        max_batch / max_wait_us: the admission policy swept by the
            service benchmark.
        n_requests: stream length.
        stats: the run's :class:`repro.service.ServiceStats`.
        pinned: True when the direct-replay equivalence check ran (and
            passed — a mismatch raises instead of reporting).
    """

    rate_per_sec: float
    arrival: str
    n_shards: int
    profile: str
    max_batch: int
    max_wait_us: float
    n_requests: int
    stats: ServiceStats
    pinned: bool

    @property
    def p99_us(self) -> float:
        return self.stats.overall.p99_us

    @property
    def throughput_per_sec(self) -> float:
        return self.stats.throughput_per_sec


def _check_same_uids(label: str, specs, expected, got) -> None:
    """Raise unless every answer in ``got`` has ``expected``'s users (a
    kNN answer's in rank order)."""
    for spec, want, have in zip(specs, expected, got):
        if want.uids != have.uids:
            raise AssertionError(
                f"{label} result mismatch for {spec}: "
                f"expected={sorted(want.uids)} got={sorted(have.uids)}"
            )


class ExperimentHarness(World):
    """A :class:`World` plus the measurements of Section 7."""

    def __init__(self, config: ExperimentConfig):
        super().__init__(**vars(build_world(config)))
        self.now = 0.0

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _start_measuring(self, index: PEBTree | BxTree) -> None:
        """Flush and empty the pool, shrink it to the paper's query
        buffer, zero the counters: every measured phase starts cold,
        whatever the phase before it left resident."""
        pool = index.btree.pool
        pool.clear()
        pool.resize(self.config.buffer_pages)
        pool.stats.reset()

    def _stop_measuring(self, index: PEBTree | BxTree) -> int:
        reads = index.stats.physical_reads
        index.btree.pool.resize(self.config.build_buffer_pages)
        return reads

    def run_prq_batch(
        self, check_results: bool = False, window_side: float | None = None
    ) -> QueryCosts:
        """Average PRQ I/O over ``n_queries`` fresh random windows.

        ``window_side`` overrides the configured window for this batch
        only (the Figure 15(a) sweep varies it on one built harness).
        """
        side = window_side if window_side is not None else self.config.window_side
        queries = self.query_generator().range_queries(
            self.uids, self.config.n_queries, side, self.now
        )
        result_sizes: list[int] = []

        self._start_measuring(self.peb)
        peb_answers = []
        for query in queries:
            answer = prq(self.peb, query.q_uid, query.window, query.t_query)
            peb_answers.append(answer.uids)
            result_sizes.append(len(answer.users))
        peb_reads = self._stop_measuring(self.peb)

        self._start_measuring(self.bx)
        base_answers = []
        for query in queries:
            found = self.baseline.range_query(query.q_uid, query.window, query.t_query)
            base_answers.append({obj.uid for obj in found})
        base_reads = self._stop_measuring(self.bx)

        if check_results:
            for query, peb_set, base_set in zip(queries, peb_answers, base_answers):
                expected = brute_force_prq(
                    self.states, self.store, query.q_uid, query.window, query.t_query
                )
                if peb_set != expected or base_set != expected:
                    raise AssertionError(
                        f"PRQ mismatch for {query}: peb={sorted(peb_set)} "
                        f"base={sorted(base_set)} expected={sorted(expected)}"
                    )

        count = len(queries)
        return QueryCosts(
            peb_io=peb_reads / count,
            baseline_io=base_reads / count,
            n_queries=count,
            peb_result_sizes=result_sizes,
        )

    def run_pknn_batch(
        self, check_results: bool = False, k: int | None = None
    ) -> QueryCosts:
        """Average PkNN I/O over ``n_queries`` issuers at their locations.

        The PEB-tree side runs the Section 5.4 matrix walk
        (:func:`repro.core.pknn.pknn_walk`), the algorithm the PkNN
        figures reproduce, not the served fetch.  ``k`` overrides the configured neighbour count for this batch
        only (the Figure 15(b) sweep varies it on one built harness).
        """
        k_value = k if k is not None else self.config.k
        queries = self.query_generator().knn_queries(
            self.states, self.config.n_queries, k_value, self.now
        )

        self._start_measuring(self.peb)
        peb_answers = []
        for query in queries:
            answer = pknn_walk(
                self.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
            )
            peb_answers.append([round(d, 9) for d, _ in answer.neighbors])
        peb_reads = self._stop_measuring(self.peb)

        self._start_measuring(self.bx)
        base_answers = []
        for query in queries:
            found = self.baseline.knn_query(
                query.q_uid, query.qx, query.qy, query.k, query.t_query
            )
            base_answers.append([round(d, 9) for d, _ in found])
        base_reads = self._stop_measuring(self.bx)

        if check_results:
            for query, peb_dists, base_dists in zip(queries, peb_answers, base_answers):
                expected = brute_force_pknn(
                    self.states,
                    self.store,
                    query.q_uid,
                    query.qx,
                    query.qy,
                    query.k,
                    query.t_query,
                )
                expected_dists = [round(d, 9) for d, _ in expected]
                if peb_dists != expected_dists or base_dists != expected_dists:
                    raise AssertionError(
                        f"PkNN mismatch for {query}: peb={peb_dists} "
                        f"base={base_dists} expected={expected_dists}"
                    )

        count = len(queries)
        return QueryCosts(
            peb_io=peb_reads / count, baseline_io=base_reads / count, n_queries=count
        )

    def run_batched_prq(
        self,
        n_queries: int | None = None,
        window_side: float | None = None,
        trace_recorder=None,
    ) -> BatchQueryCosts:
        """Measure one PRQ workload one-at-a-time vs batch-executed.

        The same fresh random query specs run twice on the paper's
        query buffer: first sequentially through :func:`prq`, then
        through the engine's batch executor, which fetches each key
        the issuers' plans name once, for every query that needs it.  Both phases start from a *cold* buffer —
        otherwise the batched phase would inherit the pages the
        sequential phase just heated and the comparison would credit
        cache warming to batching.  Result sets are asserted identical
        — the batch path is an I/O optimization, never an
        approximation.
        """
        count = n_queries if n_queries is not None else self.config.n_queries
        if count < 1:
            raise ValueError(f"n_queries must be positive, got {count}")
        side = window_side if window_side is not None else self.config.window_side
        specs = self.query_generator().range_queries(
            self.uids, count, side, self.now
        )

        self._start_measuring(self.peb)
        started = time.perf_counter()
        sequential = [
            prq(self.peb, spec.q_uid, spec.window, spec.t_query)
            for spec in specs
        ]
        sequential_seconds = time.perf_counter() - started
        sequential_reads = self._stop_measuring(self.peb)

        self._start_measuring(self.peb)
        # The harness tree runs on untimed storage, so these spans
        # carry counters rather than durations; `serve-sim --trace` is
        # the timed surface.
        self.peb.recorder = trace_recorder
        started = time.perf_counter()
        try:
            report = QueryEngine(self.peb).execute_batch(specs)
        finally:
            self.peb.recorder = None
        batched_seconds = time.perf_counter() - started
        batched_reads = self._stop_measuring(self.peb)
        if trace_recorder is not None and trace_recorder.enabled:
            registry = MetricsRegistry()
            report.stats.publish(registry)
            trace_recorder.metadata("metrics", registry.snapshot())
            trace_recorder.metadata(
                "run_config",
                {"verb": "batch-query", "n_queries": count},
            )

        _check_same_uids("batched", specs, sequential, report.results)

        self._start_measuring(self.peb)
        pool = self.peb.btree.pool
        pool.resize(max(pool.disk.page_count, 1))
        QueryEngine(self.peb).execute_batch(specs)
        distinct_reads = self._stop_measuring(self.peb)

        return BatchQueryCosts(
            sequential_io=sequential_reads / count,
            batched_io=batched_reads / count,
            n_queries=count,
            dedup_ratio=report.stats.dedup_ratio,
            sequential_seconds=sequential_seconds,
            batched_seconds=batched_seconds,
            distinct_io=distinct_reads / count,
        )

    # ------------------------------------------------------------------
    # Update rounds (Figure 18)
    # ------------------------------------------------------------------

    def _generate_update_round(self, fraction: float) -> list[MovingObject]:
        """Advance the clock and derive the round's re-reported states.

        The Figure 18 workload: time moves forward by Δt_mu * fraction
        and the stalest ``fraction`` of the population re-reports.  The
        harness's own ``states`` are updated; applying the returned
        list to the indexes is the caller's business, so one generated
        round can drive several application strategies.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.now += self.config.max_update_interval * fraction
        batch_size = int(len(self.states) * fraction)
        stalest = sorted(self.states.values(), key=lambda obj: obj.t_update)
        moved_objects = []
        for obj in stalest[:batch_size]:
            moved = self.movement.advance(obj, self.now)
            self.states[moved.uid] = moved
            moved_objects.append(moved)
        return moved_objects

    def apply_update_round(
        self, fraction: float = 0.25, pipeline: UpdatePipeline | None = None
    ) -> None:
        """Advance time one phase and re-report the stalest ``fraction``.

        Figure 18 measures query cost "each time 25% of the data set has
        been updated ... until the data set has been fully updated twice".
        Each round advances the clock by Δt_mu * fraction so four rounds
        cycle the whole population within the maximum update interval.

        With a ``pipeline`` the PEB-tree side of the round flows through
        the batch update pipeline (flushed before returning, so queries
        may follow immediately); the Bx-tree baseline always updates
        one at a time — it has no batch path, which is part of the
        comparison.
        """
        moved_objects = self._generate_update_round(fraction)
        if pipeline is None:
            for moved in moved_objects:
                self.peb.update(moved)
        else:
            if pipeline.tree is not self.peb:
                raise ValueError("pipeline is bound to a different tree")
            pipeline.extend(moved_objects)
            pipeline.flush()
        for moved in moved_objects:
            self.bx.update(moved)

    def run_batched_updates(
        self, batch_size: int = 256, fraction: float = 0.25
    ) -> UpdateRoundCosts:
        """Measure one update round one-at-a-time vs pipelined.

        One Figure 18 round is generated once, then applied twice from
        a cold paper-sized buffer: sequentially to a physically
        identical clone of the PEB-tree (checkpoint round-trip — same
        page images, same ids), and through an
        :class:`repro.engine.UpdatePipeline` to the harness's own tree.
        Counting both physical reads and writes (with a final pool
        flush in each mode) makes the comparison complete for a write
        workload.  Final index contents and invariants are asserted
        identical — batching is an I/O optimization, never a different
        index.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        moved_objects = self._generate_update_round(fraction)
        count = len(moved_objects)
        if count == 0:
            raise ValueError("update round produced no states to apply")

        clone = clone_peb_tree(self.peb, buffer_pages=self.config.buffer_pages)
        clone.stats.reset()
        started = time.perf_counter()
        for moved in moved_objects:
            clone.update(moved)
        clone.btree.pool.flush()
        sequential_seconds = time.perf_counter() - started
        sequential_io = clone.stats.physical_reads + clone.stats.physical_writes

        self._start_measuring(self.peb)
        pipeline = UpdatePipeline(self.peb, capacity=batch_size)
        started = time.perf_counter()
        pipeline.extend(moved_objects)
        pipeline.flush()
        self.peb.btree.pool.flush()
        batched_seconds = time.perf_counter() - started
        batched_io = self.peb.stats.physical_reads + self.peb.stats.physical_writes
        self._stop_measuring(self.peb)

        for moved in moved_objects:
            self.bx.update(moved)

        clone.btree.check_invariants()
        self.peb.btree.check_invariants()
        if clone.live_keys() != self.peb.live_keys():
            raise AssertionError("batched update memo diverged from sequential")
        sequential_entries = list(clone.btree.items())
        batched_entries = list(self.peb.btree.items())
        if sequential_entries != batched_entries:
            raise AssertionError(
                "batched update contents diverged from sequential "
                f"({len(sequential_entries)} vs {len(batched_entries)} entries)"
            )

        return UpdateRoundCosts(
            sequential_io=sequential_io / count,
            batched_io=batched_io / count,
            n_updates=count,
            batch_size=batch_size,
            in_place_ratio=pipeline.stats.in_place_ratio,
            descents_saved=pipeline.stats.descents_saved,
            sequential_seconds=sequential_seconds,
            batched_seconds=batched_seconds,
        )

    # ------------------------------------------------------------------
    # Sharded multi-tree scaling
    # ------------------------------------------------------------------

    def _scaling_workload(
        self,
        workload: str,
        n_updates: int | None,
        n_queries: int | None,
        workload_seed: int,
    ) -> tuple[list[MovingObject], list]:
        """One deterministic update stream + query batch for scaling runs.

        Shared by :meth:`run_sharded` and :meth:`run_overlap`; the draw
        depends only on the configuration seed and ``workload_seed``,
        never on how often it is taken — the harness's own states are
        untouched.
        """
        count_updates = n_updates if n_updates is not None else len(self.states)
        count_queries = n_queries if n_queries is not None else self.config.n_queries
        generator = QueryGenerator(
            self.config.space_side,
            random.Random(self.config.seed + 9000 + workload_seed),
        )
        duration = self.config.max_update_interval / 2.0
        if workload == "uniform":
            updates = generator.update_stream(
                self.states, count_updates, self.config.max_speed, self.now, duration
            )
            queries = generator.range_queries(
                self.uids,
                count_queries,
                self.config.window_side,
                self.now + duration,
            )
        elif workload == "hotspot":
            updates, queries = generator.hotspot_stream(
                self.states,
                count_updates,
                count_queries,
                self.config.window_side,
                self.config.max_speed,
                self.now,
                duration,
            )
        else:
            raise ValueError(f"unknown workload {workload!r}")
        return updates, queries

    def _reference_clone(
        self, batch_size: int, updates: Iterable[MovingObject] = ()
    ) -> tuple[PEBTree, UpdatePipeline]:
        """A physically identical clone of the PEB-tree on the paper's
        buffer, counters zeroed, with ``updates`` flushed through the
        returned pipeline."""
        clone = clone_peb_tree(self.peb, buffer_pages=self.config.buffer_pages)
        clone.stats.reset()
        pipeline = UpdatePipeline(clone, capacity=batch_size)
        pipeline.extend(updates)
        pipeline.flush()
        clone.btree.pool.flush()
        return clone, pipeline

    def _cold_deployment(
        self, n_shards: int, shard_buffer_pages: int | None, **build_kwargs
    ) -> ShardedPEBTree:
        """:meth:`deploy` built warm, then emptied — cold like the clone
        references, or build-time residency flatters its reads — and
        shrunk to ``shard_buffer_pages`` per shard (default: the paper's
        buffer; a shard models an added machine), counters zeroed."""
        deployment = self.deploy(
            n_shards,
            buffer_pages=self.config.build_buffer_pages,
            buffer_policy=self.config.buffer_policy,
            **build_kwargs,
        )
        for pool in deployment.pools:
            pool.clear()
            pool.resize(
                shard_buffer_pages
                if shard_buffer_pages is not None
                else self.config.buffer_pages
            )
        deployment.stats.reset()
        return deployment

    def run_sharded(
        self,
        n_shards: int,
        workload: str = "uniform",
        n_updates: int | None = None,
        n_queries: int | None = None,
        batch_size: int = 256,
        shard_buffer_pages: int | None = None,
        workload_seed: int = 0,
    ) -> ShardScalingCosts:
        """Measure one workload on a sharded deployment vs the single tree.

        One deterministic workload (an update stream followed by a
        range-query batch, ``workload_seed`` selecting the draw) runs
        twice from the current population:

        * on a physically identical clone of the harness's PEB-tree
          with the paper's ``buffer_pages`` buffer, updates through an
          :class:`repro.engine.UpdatePipeline` and queries through the
          batch executor;
        * on a fresh ``n_shards``-shard
          :class:`repro.shard.ShardedPEBTree` over the same store and
          states, each shard owning ``shard_buffer_pages`` (default:
          the same paper-sized buffer per shard — a shard models an
          added machine), updates through the same pipeline splitting
          sorted runs at shard boundaries, queries through
          the same :class:`repro.engine.QueryEngine`, reading through
          the deployment's scatter scanner.

        ``"uniform"`` draws :meth:`QueryGenerator.update_stream` plus
        uniform windows; ``"hotspot"`` draws the Zipf-skewed
        :meth:`QueryGenerator.hotspot_stream`.  Per-query result sets
        are asserted identical — sharding is a deployment change, never
        an approximation.  The harness's own indexes are untouched.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        updates, queries = self._scaling_workload(
            workload, n_updates, n_queries, workload_seed
        )

        clone, single_pipeline = self._reference_clone(batch_size, updates)
        single_update_reads = clone.stats.physical_reads
        single_update_writes = clone.stats.physical_writes
        single_report = QueryEngine(clone).execute_batch(queries)

        sharded = self._cold_deployment(n_shards, shard_buffer_pages)

        sharded_pipeline = UpdatePipeline(sharded, capacity=batch_size)
        sharded_pipeline.extend(updates)
        sharded_pipeline.flush()
        for pool in sharded.pools:
            pool.flush()
        sharded_update_reads = sharded.stats.physical_reads
        sharded_update_writes = sharded.stats.physical_writes
        sharded_report = QueryEngine(sharded).execute_batch(queries)

        if single_pipeline.stats.ops != sharded_pipeline.stats.ops:
            raise AssertionError(
                "sharded pipeline applied a different op count "
                f"({sharded_pipeline.stats.ops} vs {single_pipeline.stats.ops})"
            )
        _check_same_uids(
            "sharded", queries, single_report.results, sharded_report.results
        )

        return ShardScalingCosts(
            n_shards=n_shards,
            workload=workload,
            ops_applied=single_pipeline.stats.ops,
            n_queries=len(queries),
            single_update_reads=single_update_reads,
            single_update_writes=single_update_writes,
            sharded_update_reads=sharded_update_reads,
            sharded_update_writes=sharded_update_writes,
            single_query_reads=single_report.stats.physical_reads,
            sharded_query_reads=sharded_report.stats.physical_reads,
            balance_skew=sharded.shard_stats().balance_skew,
        )

    # ------------------------------------------------------------------
    # Simulated-latency overlap (the simio subsystem's headline)
    # ------------------------------------------------------------------

    def run_overlap(
        self,
        n_shards: int,
        latency: str = "hdd",
        workload: str = "hotspot",
        n_updates: int | None = None,
        n_queries: int | None = None,
        batch_size: int = 256,
        shard_buffer_pages: int | None = None,
        workload_seed: int = 0,
    ) -> OverlapCosts:
        """Measure virtual-time overlap: N timed shards vs one timed shard.

        Three runs of one deterministic workload (update stream, then
        range-query batch, the same draw :meth:`run_sharded` uses):

        * an **untimed single-tree clone** — the result oracle; every
          timed run's per-query results and final index contents are
          asserted identical to it, so latency simulation is proven to
          be timing-only;
        * a **1-shard timed deployment** (``latency`` profile, every
          scan and sweep on one device) — the virtual-time baseline;
        * an **N-shard timed deployment** (per-shard prefetch scans and
          update sweeps fork/join on the shared clock).

        Both verify as every timed batch does, pipelined against
        still-running scans.

        Physical I/O counts stay comparable to :meth:`run_sharded`;
        what this method adds is the *time* axis: the virtual elapsed
        microseconds of each phase, and the overlap factor showing how
        many devices the scheduler kept busy at once.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        updates, queries = self._scaling_workload(
            workload, n_updates, n_queries, workload_seed
        )

        # Untimed single-tree reference: pins results and end state.
        clone, reference_pipeline = self._reference_clone(batch_size, updates)
        reference_report = QueryEngine(clone).execute_batch(queries)
        reference_entries = list(clone.btree.items())

        def timed_run(side: str, shards: int) -> dict:
            """One timed deployment's ``<side>_*`` fields of the costs."""
            deployment = self._cold_deployment(
                shards, shard_buffer_pages, latency=latency
            )
            clock = deployment.sim_clock

            phase_start = clock.elapsed
            pipeline = UpdatePipeline(deployment, capacity=batch_size)
            pipeline.extend(updates)
            pipeline.flush()
            # The final write-back is per-pool independent work too:
            # route it through the deployment's scheduler so it
            # overlaps like the sweeps that dirtied the pages.
            deployment.io.run(
                [(lambda pool=pool: pool.flush()) for pool in deployment.pools]
            )
            update_us = clock.elapsed - phase_start

            phase_start = clock.elapsed
            engine = QueryEngine(deployment)
            report = engine.execute_batch(queries)
            query_us = clock.elapsed - phase_start
            # Counters snapshot *before* the pin checks below: the
            # full-index audit scan is timed too, and must not leak
            # into the measured window.
            io, devices = deployment.stats, deployment.latency_stats
            measured = {
                f"{side}_update_us": update_us,
                f"{side}_query_us": query_us,
                f"{side}_reads": io.physical_reads,
                f"{side}_writes": io.physical_writes,
                f"{side}_busy_us": devices.busy_us,
                f"{side}_seeks": devices.seeks,
                f"{side}_sequential_hits": devices.sequential_hits,
            }

            if pipeline.stats.ops != reference_pipeline.stats.ops:
                raise AssertionError(
                    "timed pipeline applied a different op count "
                    f"({pipeline.stats.ops} vs {reference_pipeline.stats.ops})"
                )
            _check_same_uids("timed", queries, reference_report.results, report.results)
            if list(deployment.items()) != reference_entries:
                raise AssertionError(
                    "timed deployment end state diverged from the reference"
                )
            return measured

        return OverlapCosts(
            profile=latency if isinstance(latency, str) else latency.name,
            n_shards=n_shards,
            workload=workload,
            ops_applied=reference_pipeline.stats.ops,
            n_queries=len(queries),
            **timed_run("baseline", 1),
            **timed_run("sharded", n_shards),
        )

    # ------------------------------------------------------------------
    # Open-loop service (the service subsystem's headline)
    # ------------------------------------------------------------------

    def run_service(
        self,
        rate_per_sec: float,
        n_requests: int = 256,
        max_batch: int = 64,
        max_wait_us: float = 2000.0,
        arrival: str = "poisson",
        n_shards: int = 2,
        latency: str = "ssd",
        update_fraction: float = 0.5,
        knn_fraction: float = 0.25,
        burst_size: int = 16,
        batch_size: int = 256,
        shard_buffer_pages: int | None = None,
        workload_seed: int = 0,
        pin: bool = True,
        disk_factory=None,
        fault_policy=None,
        breaker_policy=None,
        shed_after_us: float | None = None,
        arm_faults=None,
        trace_recorder=None,
    ) -> ServiceCosts:
        """Serve one open-loop request stream and report sojourn SLOs.

        A mixed query+update stream (``update_fraction`` updates,
        ``knn_fraction`` of the queries kNN) arrives at ``rate_per_sec``
        under the ``arrival`` process; a single worker batches it under
        ``BatchPolicy(max_batch, max_wait_us)`` over a fresh timed
        ``n_shards``-shard deployment of the harness's population.  The
        stream's draw depends only on the configuration seed and
        ``workload_seed``; the harness's own indexes are untouched.

        With ``pin`` (the default), the run's recorded batches are then
        replayed *directly* — same update batches through an
        ``UpdatePipeline``, same query batches through
        ``execute_batch`` — on an untimed clone of the harness's
        single PEB-tree, and every per-query result plus the final
        index contents are asserted identical.  The service layer is
        thereby proven an orchestration of the engine: batching and
        virtual time change the schedule, never a result.

        ``disk_factory`` / ``fault_policy`` / ``breaker_policy`` build a
        fault-tolerant deployment (see ``ShardedPEBTree.build``);
        ``shed_after_us`` turns on admission-queue load shedding.  Under
        *transient* fault schedules the pin still holds (retry makes
        runs bit-identical); pass ``pin=False`` for quarantine
        scenarios, where deferred updates and dropped sub-bands make the
        served results an honest subset rather than a replica.

        ``arm_faults(deployment)`` is called after build and bulk
        insert, just before the stream is served — the window where
        fault injection belongs (builds are unsupervised).  If it
        returns a callable, that is invoked after the run and before
        the pin's audit scan (heal the disks there so the audit reads
        clean).

        ``trace_recorder`` (a :class:`repro.obs.trace.TraceRecorder`)
        attaches to the freshly built deployment before the run:
        spans land on the shared virtual clock, exemplar tail requests
        are sampled, and the run's stats plus a metrics-registry
        snapshot are embedded as trace metadata.  Tracing is
        observationally inert — a traced run returns bit-identical
        costs — and the pin above runs either way.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if n_requests < 1:
            raise ValueError(f"n_requests must be positive, got {n_requests}")

        generator = QueryGenerator(
            self.config.space_side,
            random.Random(self.config.seed + 9500 + workload_seed),
        )
        duration = self.config.max_update_interval / 2.0
        stream = OpenLoopGenerator(generator, self.states).generate(
            n_requests,
            rate_per_sec,
            arrival=arrival,
            update_fraction=update_fraction,
            window_side=self.config.window_side,
            k=self.config.k,
            knn_fraction=knn_fraction,
            max_speed=self.config.max_speed,
            t_start=self.now,
            duration=duration,
            burst_size=burst_size,
        )

        deployment = self._cold_deployment(
            n_shards,
            shard_buffer_pages,
            latency=latency,
            disk_factory=disk_factory,
            fault_policy=fault_policy,
            breaker_policy=breaker_policy,
        )
        deployment.recorder = trace_recorder

        admission = BatchPolicy(
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            shed_after_us=shed_after_us,
        )
        engine = QueryEngine(deployment)
        pipeline = UpdatePipeline(deployment, capacity=batch_size)
        service = SimulatedService(engine, pipeline, admission)
        disarm = arm_faults(deployment) if arm_faults is not None else None
        report = service.run(stream)
        if callable(disarm):
            disarm()

        if trace_recorder is not None and trace_recorder.enabled:
            # One queryable snapshot across every layer's stats dialect,
            # embedded in the trace (read before the pin's audit scan
            # touches the counters).  The run-level fault.* and shard.*
            # series come from the report and the deployment; the
            # pipeline's own breakdowns cover only its flushes and would
            # land on the same series a second time.
            registry = MetricsRegistry()
            report.stats.publish(registry)
            replace(pipeline.stats, shard_stats=None, fault_stats=None).publish(
                registry
            )
            deployment.shard_stats().publish(registry)
            deployment.stats.publish(registry)
            trace_recorder.metadata("metrics", registry.snapshot())
            trace_recorder.metadata(
                "run_config",
                {
                    "rate_per_sec": rate_per_sec,
                    "n_requests": n_requests,
                    "max_batch": max_batch,
                    "max_wait_us": max_wait_us,
                    "arrival": arrival,
                    "n_shards": n_shards,
                    "profile": latency if isinstance(latency, str) else latency.name,
                    "update_fraction": update_fraction,
                    "knn_fraction": knn_fraction,
                    "workload_seed": workload_seed,
                },
            )

        if pin:
            clone, reference_pipeline = self._reference_clone(batch_size)
            reference_engine = QueryEngine(clone)
            for batch in report.batches:
                if batch.updates:
                    reference_pipeline.extend(batch.updates)
                    reference_pipeline.flush()
                if batch.query_specs:
                    reference = reference_engine.execute_batch(batch.query_specs)
                    _check_same_uids(
                        "service",
                        batch.query_specs,
                        reference.results,
                        batch.query_results,
                    )
            clone.btree.pool.flush()
            if list(deployment.items()) != list(clone.btree.items()):
                raise AssertionError(
                    "service deployment end state diverged from the "
                    "direct-replay reference"
                )

        return ServiceCosts(
            rate_per_sec=rate_per_sec,
            arrival=arrival,
            n_shards=n_shards,
            profile=latency if isinstance(latency, str) else latency.name,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            n_requests=n_requests,
            stats=report.stats,
            pinned=pin,
        )
