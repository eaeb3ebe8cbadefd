"""Scatter/gather query execution over a sharded deployment.

:class:`ShardedQueryEngine` is :class:`repro.engine.QueryEngine` with
one substitution: the batch scanner.  Planning, replay order, skip
rules, and verification are inherited unchanged — which is precisely
what keeps sharded results (and ``candidates_examined``) pinned to the
single-tree engine.  The substituted
:class:`ShardScatterScanner` keeps one
:class:`repro.engine.scanner.BandScanner` per shard and:

* **scatters** every band request to its owning shards
  (:meth:`repro.shard.router.ShardRouter.split_band`, cutting
  boundary-straddling bands at the boundary key),
* runs each shard's **prefetch** against that shard's own tree and
  pool as one job of a :class:`repro.simio.scheduler.IOScheduler` —
  shards share no mutable state (separate trees, pools, disks, and
  counter bundles; the shared store/grid/codec are read-only during
  queries), so on timed devices the jobs *overlap in virtual time*,
* **gathers** sub-scans back in ascending shard order, which inside a
  time partition is ascending key order, so a replayed band is
  byte-identical to a single tree's scan.

On a timed deployment the engine additionally **pipelines
verification with scanning**: the scheduler reports each shard's
prefetch finish instant, and a query's candidates are verified on a
CPU timeline starting the moment the *last shard its bands needed*
lands — while slower shards are still scanning — instead of after the
global prefetch barrier.  Timing only: results, iteration order, and
every I/O counter are identical to the sequential schedule.

Every query then flows through the inherited executor and the
existing verifier; per-shard breakdowns land on
:attr:`repro.engine.executor.ExecutionStats.shard_stats`.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.executor import ExecutionStats, QueryEngine
from repro.engine.plan import BandRequest
from repro.engine.scanner import BandScanner
from repro.motion.rows import BandRows
from repro.shard.tree import ShardedPEBTree


class ShardScatterScanner:
    """Routes band requests to per-shard scanners; duck-types one scanner.

    One instance defines one deduplication scope, exactly like a
    :class:`BandScanner`: the single-query paths create one per query,
    the batch executor shares one across the whole batch.

    Attributes:
        requests: band requests answered (the scatter-level count the
            executor reports): :meth:`scan` calls plus the requests the
            shard scanners' residency handles served directly or
            proved quiet.
        scheduler: the deployment's scheduler; runs the per-shard
            prefetch jobs (fork/join virtual time when the deployment
            is timed).
        shard_ends: per-shard virtual finish instants of the last
            prefetch, when the deployment is timed (the pipelining
            input); empty otherwise.
        dropped_subbands: sub-band requests served *without* their
            shard's entries because the shard was quarantined — the
            per-scanner degradation counter the engine turns into
            per-query ``degraded`` flags.

    When the deployment carries a
    :class:`repro.fault.supervisor.ShardSupervisor`, every per-shard
    job — a batch prefetch, a physical sub-band scan — runs under it:
    retryable faults back off in virtual time and re-run, a shard that
    exhausts its retries is quarantined, and a quarantined shard's
    sub-bands are dropped with accounting instead of failing the query.
    """

    def __init__(self, sharded: ShardedPEBTree):
        self.tree = sharded
        self.scheduler = sharded.io
        self.supervisor = getattr(sharded, "supervisor", None)
        self.scanners = [BandScanner(tree) for tree in sharded.trees]
        self.scan_calls = 0
        self.dropped_subbands = 0
        self.shard_ends: dict[int, float] = {}
        self.prefetch_base = 0.0
        self._parts_memo: dict[tuple, list] = {}

    # ------------------------------------------------------------------
    # Aggregated counters (the executor's reporting surface)
    # ------------------------------------------------------------------

    @property
    def physical_scans(self) -> int:
        """Scans that reached any shard tree (prefetch merges included)."""
        return sum(scanner.physical_scans for scanner in self.scanners)

    @property
    def requests(self) -> int:
        return self.scan_calls + sum(scanner.direct_hits for scanner in self.scanners)

    @property
    def memo_hits(self) -> int:
        return sum(scanner.memo_hits for scanner in self.scanners)

    @property
    def residency_hits(self) -> int:
        return sum(scanner.residency_hits for scanner in self.scanners)

    @property
    def deduped(self) -> int:
        """Sub-requests served without a physical scan."""
        return self.memo_hits + self.residency_hits

    @property
    def entries_prefetched(self) -> int:
        return sum(scanner.entries_prefetched for scanner in self.scanners)

    @property
    def memo_evictions(self) -> int:
        return sum(scanner.memo_evictions for scanner in self.scanners)

    @property
    def dead_entries(self) -> int:
        return sum(scanner.dead_entries for scanner in self.scanners)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def _split(self, band: BandRequest) -> list:
        parts = self._parts_memo.get(band.key)
        if parts is None:
            parts = self.tree.router.split_band(band)
            self._parts_memo[band.key] = parts
        return parts

    def residency(self, tid: int, sv_q: int):
        """The owning shard scanner's live residency of one stratum.

        None under a supervisor: a quarantined shard's strata must be
        dropped and counted request by request, which only :meth:`scan`
        does — its per-shard scanners still answer from residency.
        """
        if self.supervisor is not None:
            return None
        return self.scanners[self.tree.router.shard_of(tid, sv_q)].residency(
            tid, sv_q
        )

    def scan(self, band: BandRequest) -> BandRows:
        """All entries of one band, gathered across shards in key order.

        Under a supervisor, a quarantined shard's sub-band is dropped
        (counted in :attr:`dropped_subbands` and the supervisor's
        ``bands_dropped``) and the remaining shards' entries are
        returned — a degraded, never wrong-by-inclusion result.
        """
        self.scan_calls += 1
        parts = self._split(band)
        if self.supervisor is None:
            if len(parts) == 1:
                shard, sub = parts[0]
                return self.scanners[shard].scan(sub)
            results = [self.scanners[shard].scan(sub) for shard, sub in parts]
        else:
            results = []
            for shard, sub in parts:
                if self.supervisor.is_quarantined(shard):
                    self._drop(shard)
                    continue
                ok, rows = self.supervisor.run(
                    shard, lambda s=shard, b=sub: self.scanners[s].scan(b)
                )
                if ok:
                    results.append(rows)
                else:
                    self._drop(shard)
        return BandRows.concat(results)  # no rows when every shard dropped

    def _drop(self, shard: int) -> None:
        self.dropped_subbands += 1
        self.supervisor.note_dropped_band()

    def prefetch(self, bands: Iterable[BandRequest]) -> None:
        """Scatter the batch's merged bands; prefetch each shard once.

        Per-shard prefetching inherits all of
        :meth:`BandScanner.prefetch`'s semantics (single-SV grouping,
        interval merging, the SV-major layout guard).  The shard
        jobs run through the scheduler: they touch disjoint trees,
        pools, and counters, so the resulting stores and I/O counts are
        identical with or without virtual overlap.  On a timed
        deployment each shard's virtual finish instant is recorded in
        :attr:`shard_ends` for the engine's verify pipelining.
        """
        per_shard: dict[int, list[BandRequest]] = {}
        for band in bands:
            for shard, sub in self._split(band):
                per_shard.setdefault(shard, []).append(sub)
        jobs = sorted(per_shard.items())
        if self.supervisor is not None:
            # admits() opens the half-open probe window: the first
            # prefetch after a cooldown *is* the probe, run under the
            # retry policy like any other shard job.  A shard whose
            # prefetch fails (or stays quarantined) simply has nothing
            # in its scanner's store; scan() drops it with accounting.
            jobs = [job for job in jobs if self.supervisor.admits(job[0])]
        if not jobs:
            return
        clock = self.scheduler.clock
        self.prefetch_base = clock.cursor() if clock is not None else 0.0
        if self.supervisor is None:
            thunks = [
                (lambda scanner=self.scanners[shard], subs=subs: scanner.prefetch(subs))
                for shard, subs in jobs
            ]
        else:
            thunks = [
                (
                    lambda shard=shard, subs=subs: self.supervisor.run(
                        shard, lambda: self.scanners[shard].prefetch(subs)
                    )
                )
                for shard, subs in jobs
            ]
        recorder = getattr(self.tree, "trace_recorder", None)
        _, ends = self.scheduler.run_timed(
            thunks,
            recorder=recorder,
            span_name="scan.shard",
            labels=[f"shard{shard}" for shard, _ in jobs],
            category="device",
        )
        if clock is not None:
            self.shard_ends = {shard: end for (shard, _), end in zip(jobs, ends)}

    def ready_time(self, bands: Iterable[BandRequest]) -> float | None:
        """The instant every given band's owning shards finished
        prefetching, or None when any shard is outside the prefetched
        set (the caller then falls back to the serial schedule)."""
        if not self.shard_ends:
            return None
        ready = self.prefetch_base
        for band in bands:
            for shard, _ in self._split(band):
                end = self.shard_ends.get(shard)
                if end is None:
                    return None
                if end > ready:
                    ready = end
        return ready


class ShardedQueryEngine(QueryEngine):
    """The unified query engine over a sharded deployment.

    Single-query execution works through the inherited paths (the
    facade's ``scan_band_rows`` routes each band); batch execution
    swaps in the scatter scanner so prefetching happens per shard
    through the deployment's I/O scheduler, and — on timed devices —
    verification pipelines against still-running shard scans.

    Args:
        sharded: the deployment to query.
        pipeline_verify: overlap verification CPU with shard scans in
            virtual time (timed deployments only; timing-neutral
            everywhere else).
    """

    def __init__(self, sharded: ShardedPEBTree, pipeline_verify: bool = True):
        super().__init__(sharded)
        self.pipeline_verify = pipeline_verify
        self._cpu_cursor: float | None = None

    def _batch_scanner(self) -> ShardScatterScanner:
        return ShardScatterScanner(self.tree)

    def _batch_progress(self, scanner) -> ExecutionStats:
        # The per-shard and fault counters ride along, so a batch's
        # delta carries breakdowns of *this* batch's I/O that sum to
        # the counters they sit beside.
        seen = self._progress(scanner)
        seen.shard_stats = self.tree.shard_stats()
        supervisor = getattr(self.tree, "supervisor", None)
        if supervisor is not None:
            seen.fault_stats = supervisor.stats.copy()
        return seen

    def _drop_marker(self, scanner) -> int:
        return getattr(scanner, "dropped_subbands", 0)

    # ------------------------------------------------------------------
    # Verify/scan pipelining (timed deployments)
    # ------------------------------------------------------------------

    def _begin_replay(self, scanner) -> None:
        self._cpu_cursor = None
        clock, model = self._timing()
        if clock is None or not self.pipeline_verify:
            return
        if getattr(scanner, "shard_ends", None):
            # The CPU verification timeline forks where the prefetch
            # forked: the verifier may start on the first-landed
            # shard's candidates while later shards still scan.
            self._cpu_cursor = scanner.prefetch_base

    def _charge_verify(self, result, plan, scanner) -> None:
        clock, model = self._timing()
        if clock is None:
            return
        cost = result.candidates_examined * model.verify_us
        ready = (
            scanner.ready_time(planned.band for planned in plan.bands)
            if self._cpu_cursor is not None and plan is not None
            else None
        )
        if ready is None:
            # kNN rounds interleave their own scans with verification,
            # and unprefetched bands have no landing instant: keep the
            # serial schedule for those.
            clock.advance(cost)
            return
        start = self._cpu_cursor if self._cpu_cursor > ready else ready
        self._cpu_cursor = start + cost

    def _end_replay(self, scanner) -> None:
        clock, _ = self._timing()
        if clock is not None and self._cpu_cursor is not None:
            recorder = getattr(self.tree, "trace_recorder", None)
            if recorder is not None and recorder.enabled:
                # The CPU verification window: forked at the prefetch
                # base, landing possibly before (or after) the slowest
                # shard scan — the pipelining the paper's Section 5.3
                # describes, made visible.
                recorder.span(
                    "engine/verify",
                    "verify.pipeline",
                    scanner.prefetch_base,
                    self._cpu_cursor,
                    category="engine",
                )
            clock.join([self._cpu_cursor])


__all__ = ["ShardScatterScanner", "ShardedQueryEngine"]
