"""Scatter/gather scanning over a sharded deployment.

A sharded deployment is queried by the one
:class:`repro.engine.QueryEngine`; what it changes is the scanner it
hands out (:meth:`repro.shard.tree.ShardedPEBTree.new_scanner`).
Planning, replay order, skip rules, and verification are the engine's,
unchanged — which is precisely what keeps sharded results (and
``candidates_examined``) pinned to the single tree.
:class:`ShardScatterScanner` keeps one
:class:`repro.engine.scanner.BandScanner` per shard and:

* **routes** every key a served query fetches to its owning shard
  (:meth:`repro.shard.router.ShardRouter.shard_of_key`),
* **scatters** every band requested on demand to its owning shards: a
  single-SV band whole to its SV's shard
  (:meth:`repro.shard.router.ShardRouter.shard_of`), a multi-SV span
  band (the Figure 7 ablation) through
  :meth:`repro.shard.router.ShardRouter.split_band`, which cuts it at
  the boundary keys it straddles,
* runs each shard's share of a batch's **key multi-get** (the batch's
  keys cut at the shard boundaries,
  :meth:`repro.shard.router.ShardRouter.split_sorted_keys`) against
  that shard's own tree and pool as one job of a
  :class:`repro.simio.scheduler.IOScheduler` — shards share no mutable
  state (separate trees, pools, disks, and counter bundles; the shared
  store/grid/codec are read-only during queries), so on timed devices
  the jobs *overlap in virtual time*,
* **gathers** a span band's sub-scans back in ascending shard order,
  which inside a time partition is ascending key order, so it is
  byte-identical to a single tree's scan.

It is the deployment's only reader, so a single query and a batch alike
scan every shard under the deployment's supervisor.  On a timed
deployment a batch additionally **pipelines verification with
scanning**: each shard job stamps every fetched key's rows with the
instant the last key of its stratum landed (:attr:`BandRows.landed`),
and every query's candidates — a range plan's and a kNN spec's keys
alike, at most one per friend, in key order — are verified on one
CPU timeline key by key, each as soon as its rows have landed — while
the rest of that shard's multi-get, and every slower shard, is still
fetching — instead of after the fork/join barrier.  Timing only:
results, iteration order, and every I/O counter are identical to
charging verification serially after the join.  That schedule is one
optional object, the scanner's :class:`VerifyTimeline`: an untimed
deployment has none, and neither has a single tree, whose
:class:`BandScanner` runs on no scheduler.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from repro.engine.plan import BandRequest
from repro.engine.scanner import BandScanner
from repro.motion.rows import BandRows

if TYPE_CHECKING:
    from repro.shard.tree import ShardedPEBTree


class ShardScatterScanner:
    """Routes keys and bands to per-shard scanners; duck-types one scanner.

    One instance defines one deduplication scope, exactly like a
    :class:`BandScanner`: the single-query paths create one per query,
    the batch executor shares one across the whole batch.

    Attributes:
        requests: requests answered (the scatter-level count the
            executor reports): :meth:`fetch` and :meth:`scan` calls plus
            the requests the shard scanners' residency handles served
            directly.
        scheduler: the deployment's scheduler; runs the per-shard
            prefetch jobs (fork/join virtual time when the deployment
            is timed).
        timeline: the batch's verify CPU (:class:`VerifyTimeline`)
            when the deployment is timed; None otherwise.

    When the deployment carries a
    :class:`repro.fault.supervisor.ShardSupervisor`, every per-shard
    job — a shard's multi-get, a key fetch, a sub-band request — runs
    under it: retryable faults back off in virtual time and re-run, a
    shard that exhausts its retries is quarantined, and a quarantined
    shard's keys and sub-bands are dropped with accounting (the
    supervisor's ``bands_dropped``): a batch flags the query
    ``degraded``, a single query raises
    (:func:`repro.engine.executor.check_complete`).
    """

    def __init__(self, sharded: "ShardedPEBTree"):
        self.tree = sharded
        self.scheduler = sharded.io
        self.supervisor = sharded.supervisor
        self.scanners = [BandScanner(tree) for tree in sharded.trees]
        self.scan_calls = 0
        self.timeline = VerifyTimeline(self) if sharded.sim_clock is not None else None

    # ------------------------------------------------------------------
    # Aggregated counters (the executor's reporting surface)
    # ------------------------------------------------------------------

    @property
    def physical_scans(self) -> int:
        """Fetches and scans that reached any shard tree (prefetched keys
        included)."""
        return sum(scanner.physical_scans for scanner in self.scanners)

    @property
    def requests(self) -> int:
        return self.scan_calls + sum(scanner.direct_hits for scanner in self.scanners)

    @property
    def residency_hits(self) -> int:
        """Sub-requests served without a physical scan."""
        return sum(scanner.residency_hits for scanner in self.scanners)

    @property
    def entries_prefetched(self) -> int:
        return sum(scanner.entries_prefetched for scanner in self.scanners)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def residency(self, tid: int, sv_q: int):
        """The owning shard scanner's live residency of one stratum.

        None under a supervisor: a quarantined shard's strata must be
        dropped and counted request by request, which only :meth:`scan`
        does — its per-shard scanners still answer from residency.
        """
        if self.supervisor is not None:
            return None
        return self.scanners[self.tree.router.shard_of(sv_q)].residency(tid, sv_q)

    def fetch(self, key: int) -> BandRows:
        """The entries at one key, from its owning shard's scanner; under
        a supervisor, no rows when that shard drops it, as :meth:`scan`
        drops a sub-band."""
        self.scan_calls += 1
        shard = self.tree.router.shard_of_key(key)
        fetch = self.scanners[shard].fetch
        supervisor = self.supervisor
        if supervisor is None:
            return fetch(key)
        if not supervisor.is_quarantined(shard):
            ok, rows = supervisor.run(shard, lambda: fetch(key))
            if ok:
                return rows
        supervisor.note_dropped_band()
        return BandRows.empty()

    def scan(self, band: BandRequest) -> BandRows:
        """All entries of one band, gathered across shards in key order.

        Under a supervisor, a quarantined shard's sub-band is dropped
        (counted in the supervisor's ``bands_dropped``) and the
        remaining shards' entries are returned — a degraded, never
        wrong-by-inclusion result.
        """
        self.scan_calls += 1
        router = self.tree.router
        if self.supervisor is None and band.sv_lo_q == band.sv_hi_q:
            return self.scanners[router.shard_of(band.sv_lo_q)].scan(band)
        parts = router.split_band(band)  # a span band is cut at boundaries
        if self.supervisor is None:
            return BandRows.concat([self.scanners[shard].scan(sub) for shard, sub in parts])
        results = []
        for shard, sub in parts:
            if self.supervisor.is_quarantined(shard):
                self.supervisor.note_dropped_band()
                continue
            ok, rows = self.supervisor.run(
                shard, lambda s=shard, b=sub: self.scanners[s].scan(b)
            )
            if ok:
                results.append(rows)
            else:
                self.supervisor.note_dropped_band()
        return BandRows.concat(results)  # no rows when every shard dropped

    def prefetch(self, keys: Sequence[int]) -> None:
        """Cut the batch's keys at the shard boundaries; fetch each
        shard's share in one job.

        Each job is :meth:`BandScanner.prefetch` on the shard's scanner.
        The jobs run through the scheduler: they touch disjoint trees,
        pools, and counters, so the fetched rows and I/O counts are
        identical with or without virtual overlap.  On a timed
        deployment the timeline records each shard's virtual finish
        instant (:attr:`VerifyTimeline.shard_ends`), and each job stamps
        its rows' landings (the clock is handed down: the shard
        scanners know no clock).
        """
        jobs = self.tree.router.split_sorted_keys(keys)
        if self.supervisor is not None:
            # admits() opens the half-open probe window: the first
            # prefetch after a cooldown *is* the probe, run under the
            # retry policy like any other shard job.  A shard whose
            # multi-get fails (or stays quarantined) keeps at most the
            # keys fetched before the fault; fetch() drops a quarantined
            # shard's keys with accounting.
            jobs = [job for job in jobs if self.supervisor.admits(job[0])]
        if not jobs:
            return
        clock = self.scheduler.clock
        thunks = [
            (lambda scanner=self.scanners[shard], keys=keys: scanner.prefetch(keys, clock))
            for shard, keys in jobs
        ]
        if self.supervisor is not None:
            thunks = [
                (lambda shard=shard, job=job: self.supervisor.run(shard, job))
                for (shard, _), job in zip(jobs, thunks)
            ]
        _, ends = self.scheduler.run_timed(
            thunks,
            recorder=self.tree.recorder,
            span_name="scan.shard",
            labels=[f"shard{shard}" for shard, _ in jobs],
            category="device",
        )
        if self.timeline is not None:
            self.timeline.shard_ends = {shard: end for (shard, _), end in zip(jobs, ends)}


class VerifyTimeline:
    """The verify CPU of one batch on a timed sharded deployment.

    The engine books each verified key (:meth:`book_verified`), closes
    each query (:meth:`charge_query`) and ends the batch
    (:meth:`end_batch`).

    Attributes:
        shard_ends: per-shard finish instants of the last prefetch.
        verify_items: ``(ready, examined)`` per verified key whose
            rows a prefetch stamped, in booking order.
    """

    def __init__(self, scatter: ShardScatterScanner):
        # The scatter's parts, not the scatter: a cycle through it would
        # keep a whole batch's fetched rows alive until a full collection.
        self.tree = scatter.tree
        self.clock = scatter.scheduler.clock
        self.shard_ends: dict[int, float] = {}
        self.verify_items: list[tuple[float, int]] = []
        self._chained = 0  # candidates this query booked

    def book_verified(self, rows: BandRows, examined: int) -> None:
        """Put one verified key's rows on the verify timeline, if they
        landed.

        They can be verified once they have landed
        (:attr:`BandRows.landed`, stamped by the prefetch): a served
        plan holds at most one key per friend, in key order, so no key
        of a query waits for another.  Rows with no stamp (a key
        fetched on demand, an un-prefetched shard's) are left to the
        serial charge.
        """
        landed = rows.landed
        if landed is None:
            return
        self._chained += examined
        self.verify_items.append((landed, examined))

    def end_query(self) -> int:
        """Close one query; the candidates it put on the timeline."""
        chained, self._chained = self._chained, 0
        return chained

    def charge_query(self, examined: int) -> None:
        """Charge one replayed query's verification in virtual time.

        Its bands booked on the verify timeline are priced by
        :meth:`end_batch`; the rest of its ``examined`` — bands without
        a landing instant — is charged serially on the worker's cursor.
        Charged here, once per query of a batch, and nowhere else:
        single queries report device time alone.
        """
        unbooked = examined - self.end_query()
        self.clock.advance(unbooked * self.tree.latency_model.verify_us)

    def _price_pipeline(self) -> float | None:
        """The booked bands on the verify CPU; its end (None when
        nothing was booked)."""
        if not self.verify_items:
            return None
        # One CPU takes the booked bands as they become ready: it may
        # verify the first-landed stratum while every shard still scans.
        items = sorted(self.verify_items, key=itemgetter(0))
        verify_us = self.tree.latency_model.verify_us
        start = cursor = items[0][0]
        idle = 0.0
        for ready, examined in items:
            if ready > cursor:
                idle += ready - cursor
                cursor = ready
            cursor += examined * verify_us
        recorder = self.tree.recorder
        if recorder is not None and recorder.enabled:
            recorder.span(
                "engine/verify",
                "verify.pipeline",
                start,
                cursor,
                category="engine",
                args={
                    "items": len(items),
                    "idle_us": idle,
                    "tail_us": max(0.0, cursor - max(self.shard_ends.values())),
                },
            )
        return cursor

    def end_batch(self) -> None:
        """End the batch at the latest of the join, the verify CPU and
        the worker's cursor, which the prefetch left at the join and
        :meth:`charge_query` moved past it by any serial charge."""
        ends = list(self.shard_ends.values())
        pipeline_end = self._price_pipeline()
        if pipeline_end is not None:
            ends.append(pipeline_end)
        self.clock.join(ends)


__all__ = ["ShardScatterScanner", "VerifyTimeline"]
