"""Band scanning with cross-request deduplication (engine layer 2).

The scanner is the only component that touches the index during query
execution.  It answers :class:`repro.engine.plan.BandRequest` objects
from what it already knows before it goes to the tree:

1. **Stratum residency** — per ``(tid, sv_q)`` stratum, the Z-intervals
   this scanner has *proven* and every row inside them
   (:class:`StratumResidency`).  A physical scan of a single-SV band
   holds, in the leaves it touched, the entries just below and just
   above the band, so it proves more than it was asked
   (:attr:`BandRows.proven`): in a sparse stratum — one friend, one or
   two entries — the first scan usually proves the whole stratum, and
   every later band of it is answered by bisection, the empty ones
   without allocating.  Both fills feed the same structure:
   :meth:`BandScanner.prefetch` takes the union of many plans' band
   requests, groups the single-SV ones by stratum, merges their
   overlapping Z-intervals and scans each merged interval *once* (the
   cross-query sharing that makes batch execution cheap) — all of them
   in one call into the tree, ``scan_bands_rows``, whose results it
   makes resident one by one as the sweep yields them; on-demand
   scans add what they prove as replay goes.
2. **Memo** — an exact-identity cache for the bands residency cannot
   serve: multi-SV spans (the Figure 7 ablation) and every band of the
   ZV-first ablation layout, where a stratum is not key-contiguous and
   no proof may be recorded.  Bounded (:data:`DEFAULT_MEMO_ENTRIES`
   entries, LRU): eviction can only cost I/O, never change a result.
3. **Physical scan** — anything else goes to the tree.

A tree hands out its scanner (``PEBTree.new_scanner``); a sharded
deployment hands out a scatter/gather one that keeps a
:class:`BandScanner` per shard (:mod:`repro.shard.engine`).

The scanner assumes the tree is not mutated while it is alive (queries
and updates are phase-separated in all the harnesses), which is why
residency needs no invalidation: it lives and dies with its scanner.
Residency additionally requires the SV-major key layout of Equation 5
(all entries of one quantized SV key-contiguous, ordered by ZV); the
scanner checks the codec's ``sv_major`` marker, and on the ZV-first
layout :meth:`BandScanner.prefetch` is a no-op and every band goes
through the layout-agnostic memo, so batch results stay identical to
sequential on any codec.

Physical scans go through the tree's ``scan_bands_rows`` sweep (a
prefetch: one call per batch, or per shard job) or its one-band form
``scan_band_rows`` (on demand), and residency and memo store and serve
:class:`repro.motion.rows.BandRows` — parallel (zv, record) columns
whose ``MovingObject`` states materialize lazily, only for entries a
verifier actually admits — in key order, exactly the sequence a direct
``PEBTree.scan_band`` would yield, so replaying a plan against the scanner
is observationally identical to scanning the tree.  There is no second
mode: the object-at-a-time, per-band, per-piece reference the pins
compare against is test equipment (``tests/reference_scan.py``, a
subclass that decodes entry by entry and forgets what a scan proved
beyond the interval it was asked, installed through
``QueryEngine.new_scanner``).

Each residency keeps the intervals the replayed queries actually
requested of its stratum; the executor reads the batch's over-scan off
them (:class:`~repro.engine.executor.ExecutionStats`, with
:attr:`BandScanner.dead_entries` — transferred entries outside every
requested interval).

A residency also answers one question without serving anything:
:meth:`StratumResidency.quiet_around` — how far around a point its
proofs reach before a row of somebody the asking search has not located
yet.  The PkNN matrix walk skips the requests that fall inside that
*quiet interval* and reports them in bulk
(:meth:`StratumResidency.count_quiet`): they count as ``requests`` and
``residency_hits`` like the served ones, but a stratum's ``requested``
list holds only the intervals that were really put to it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

from repro.engine.plan import BandRequest
from repro.motion.rows import BandRows
from repro.spatial.decompose import ZInterval, merge_intervals

if TYPE_CHECKING:
    from repro.core.peb_tree import PEBTree

#: Default bound on the exact-identity memo, in stored entries.  Large
#: enough that no in-repo workload evicts (the pins stay exact-cost),
#: small enough that a pathological span cannot hold the whole dataset.
DEFAULT_MEMO_ENTRIES = 262_144

#: What :meth:`StratumResidency.serve` returns for a provably empty
#: interval: shared, so an empty answer allocates nothing.
NO_ROWS = BandRows.empty()

#: What :meth:`StratumResidency.quiet_around` returns for an unproven
#: point: the empty interval, which contains no request.
NOT_QUIET: ZInterval = (1, 0)


class _Tally:
    """The request counters a scanner shares with its residencies.

    A residency must not point back at its scanner: the cycle would
    keep a whole batch's resident rows alive until a full collection.
    """

    __slots__ = ("requests", "residency_hits")

    def __init__(self):
        self.requests = 0
        self.residency_hits = 0


class StratumResidency:
    """What one scanner knows about one ``(tid, sv_q)`` stratum.

    A set of disjoint *proven* Z-intervals plus every row the tree
    holds inside them.  Each physical scan of the stratum — a prefetch
    coverage run or an on-demand band — adds the interval it proved
    (:attr:`BandRows.proven`: the band widened to the keys the touched
    leaves showed around it) with its rows; any later request that
    falls inside one proven interval is answered by bisection, an
    empty one without allocating.  A prefetch creates a stratum's
    residency holding its first coverage run's proof (``z_lo``,
    ``z_hi`` and ``rows``: the run and what it returned); a handle
    taken before any scan (:meth:`BandScanner.residency`) starts with
    none.  The residency lives and dies with its scanner, which assumes
    an unmutated tree, so there is nothing to invalidate.

    Searches that revisit a stratum many times (the PkNN matrix walk)
    hold the residency itself and call :meth:`serve` directly; a hit
    is accounted exactly as a :meth:`BandScanner.scan` hit would be.

    Attributes:
        tid, sv_q: the stratum.
        rows: the resident rows in key order.  Never mutated: a new
            proof builds a new container, or adopts its own rows when
            they hold every resident one.
        requested: every Z-interval put to the stratum, in request
            order — ``scan()`` calls and direct :meth:`serve` hits, not
            the pieces counted by :meth:`count_quiet`.
        landed: the virtual instant, on the prefetching job's own
            timeline, at which the stratum's last coverage run landed;
            None when no timed prefetch covered it.
    """

    __slots__ = (
        "tid",
        "sv_q",
        "rows",
        "requested",
        "landed",
        "_tally",
        "_edges",
    )

    def __init__(
        self,
        tally: _Tally,
        tid: int,
        sv_q: int,
        z_lo: int | None = None,
        z_hi: int = 0,
        rows: BandRows = NO_ROWS,
    ):
        self.tid = tid
        self.sv_q = sv_q
        self.rows = rows
        self.requested: list[ZInterval] = []
        self.landed: float | None = None
        self._tally = tally
        # The proven intervals as one ascending list of half-open edges
        # [lo0, hi0 + 1, lo1, hi1 + 1, ...]: z is proven iff an odd
        # number of edges lie at or below it.  Born holding the first
        # scan's proof when one is given (a prefetch run), else empty (a
        # handle taken before any scan of the stratum).
        if z_lo is None:
            self._edges: list[int] = []
        else:
            if rows.proven is not None:
                z_lo, z_hi = rows.proven
            self._edges = [z_lo, z_hi + 1]

    def serve(self, z_lo: int, z_hi: int) -> "BandRows | None":
        """Rows of ``[z_lo, z_hi]`` if a proof covers it, else None.

        A hit is a served request: it is counted on the scanner and
        listed in :attr:`requested`.  A miss counts nothing — the caller
        falls back to :meth:`BandScanner.scan`, which does.
        """
        edges = self._edges
        i = bisect_right(edges, z_lo)
        if not i & 1 or edges[i] <= z_hi:
            return None
        tally = self._tally
        tally.requests += 1
        tally.residency_hits += 1
        self.requested.append((z_lo, z_hi))
        rows = self.rows
        zvs = rows.zvs
        lo = bisect_left(zvs, z_lo)
        hi = bisect_right(zvs, z_hi, lo)
        return rows.slice(lo, hi) if lo < hi else NO_ROWS

    def quiet_around(self, z: int, located: "set[int]") -> ZInterval:
        """The widest proven interval around ``z`` with nobody left to find.

        Every row inside it belongs to a user in ``located``, so a
        search that has located those users learns nothing from any
        request inside it — and never will: proofs and ``located`` only
        grow, so the interval stays valid for the search's lifetime.
        :data:`NOT_QUIET` when ``z`` is unproven or an un-located row
        sits on it.  Read-only; nothing is counted.
        """
        edges = self._edges
        i = bisect_right(edges, z)
        if not i & 1:
            return NOT_QUIET
        z_lo = edges[i - 1]
        z_hi = edges[i] - 1
        zvs = self.rows.zvs
        records = self.rows.records
        above = bisect_left(zvs, z)
        for row in range(above, len(zvs)):
            if zvs[row] > z_hi:
                break
            if records[row][0] not in located:
                z_hi = zvs[row] - 1
                break
        for row in range(above - 1, -1, -1):
            if zvs[row] < z_lo:
                break
            if records[row][0] not in located:
                z_lo = zvs[row] + 1
                break
        return (z_lo, z_hi) if z <= z_hi else NOT_QUIET

    def count_quiet(self, pieces: int) -> None:
        """Account ``pieces`` requests a quiet interval answered.

        They are requests a proof served, counted on the scanner like
        :meth:`serve` hits; they are not listed in :attr:`requested` —
        each row inside them already sits in the recorded request that
        located it, so no entry turns dead.
        """
        tally = self._tally
        tally.requests += pieces
        tally.residency_hits += pieces

    def dead_entries(self) -> int:
        """Resident rows outside every requested interval.

        On-demand scans only bring in rows of the band they were asked
        for, so the dead ones are all prefetch over-scan.
        """
        zvs = self.rows.zvs
        if not zvs:
            return 0
        requested = self.requested
        if len(requested) > 1:  # the rule: one band per stratum and batch
            requested = merge_intervals(sorted(requested))
        return len(zvs) - sum(
            bisect_right(zvs, hi) - bisect_left(zvs, lo) for lo, hi in requested
        )

    def _add(self, z_lo: int, z_hi: int, rows: BandRows) -> None:
        """Merge what a scan of ``[z_lo, z_hi]`` that returned ``rows`` proved.

        The interval the rows report (:attr:`BandRows.proven`) when a
        fence was read, else just the interval asked.  Rows already
        resident inside the interval are a subset of ``rows`` (same
        tree, unmutated), so they are replaced — and when that is every
        resident row (a handle's first proof among them), ``rows`` is
        adopted as it is.  Touching or overlapping proven intervals
        fuse.
        """
        if rows.proven is not None:
            z_lo, z_hi = rows.proven
        old = self.rows
        zvs = old.zvs
        lo = bisect_left(zvs, z_lo)
        hi = bisect_right(zvs, z_hi, lo)
        if lo or hi < len(zvs):
            rows = BandRows.concat(
                (old.slice(0, lo), rows, old.slice(hi, len(zvs)))
            )
        # Edges inside or touching the new interval vanish; an end of it
        # that lands outside every proven interval is new.
        edges = self._edges
        i = bisect_left(edges, z_lo)
        j = bisect_right(edges, z_hi + 1)
        edges[i:j] = ([] if i & 1 else [z_lo]) + ([] if j & 1 else [z_hi + 1])
        self.rows = rows


class BandScanner:
    """Executes band requests with stratum residency and batch prefetching.

    One scanner instance defines one deduplication scope: the single
    query adapters create a fresh scanner per query, the batch executor
    shares one scanner across every query of the batch.

    Args:
        tree: the index to scan.
        memo_entries: LRU bound on the exact-identity memo, counted in
            stored entries (not bands).

    Attributes:
        requests: band requests answered — :meth:`scan` calls plus
            requests a residency handle served directly or proved quiet.
        scan_calls: the requests that arrived through :meth:`scan`.
        physical_scans: scans that reached the tree (including prefetch
            coverage runs).
        residency_hits: requests answered from a stratum's proven
            intervals without touching the tree (quiet ones included).
        memo_hits: requests served from the exact-identity cache.
        memo_evictions: bands evicted from the memo by the LRU bound.
        entries_prefetched: entries transferred by prefetch scans.
        timeline: None: a timed scatter scanner's verify CPU
            (:class:`repro.shard.engine.VerifyTimeline`) has no twin here.
    """

    def __init__(
        self,
        tree: "PEBTree",
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
    ):
        self.tree = tree
        self.memo_entries = memo_entries
        self.physical_scans = 0
        self.scan_calls = 0
        self.memo_hits = 0
        self.memo_evictions = 0
        self.entries_prefetched = 0
        self.timeline = None
        # Residency needs a key-contiguous, ZV-ordered stratum.
        self._sv_major = tree.codec.sv_major
        self._tally = _Tally()
        self._residency: dict[tuple[int, int], StratumResidency] = {}
        self._memo: "OrderedDict[tuple, BandRows]" = OrderedDict()
        self._memo_size = 0

    @property
    def requests(self) -> int:
        return self._tally.requests

    @property
    def residency_hits(self) -> int:
        return self._tally.residency_hits

    @property
    def deduped(self) -> int:
        """Requests served without a physical scan."""
        return self.memo_hits + self.residency_hits

    @property
    def direct_hits(self) -> int:
        """Requests a residency handle answered without a :meth:`scan`
        call (:meth:`StratumResidency.serve` by a search holding it,
        or a piece inside a quiet interval it never had to serve)."""
        return self.requests - self.scan_calls

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def residency(self, tid: int, sv_q: int) -> "StratumResidency | None":
        """The live residency of one stratum, or None where none can exist.

        The handle stays current for the scanner's lifetime: later
        prefetches and on-demand scans of the stratum extend it.
        """
        if not self._sv_major:
            return None
        resident = self._residency.get((tid, sv_q))
        if resident is None:
            resident = self._residency[(tid, sv_q)] = StratumResidency(
                self._tally, tid, sv_q
            )
        return resident

    def scan(self, band: BandRequest) -> BandRows:
        """All entries of one band, in key order."""
        self.scan_calls += 1
        tid, sv_q, sv_hi_q, z_lo, z_hi = band
        if sv_q != sv_hi_q or not self._sv_major:
            return self._scan_memoized(band)
        resident = self.residency(tid, sv_q)
        rows = resident.serve(z_lo, z_hi)
        if rows is not None:
            return rows
        self._tally.requests += 1
        resident.requested.append((z_lo, z_hi))
        rows = self._physical_scan(tid, sv_q, sv_q, z_lo, z_hi)
        resident._add(z_lo, z_hi, rows)
        return rows

    def prefetch(self, bands: Iterable[BandRequest], clock=None) -> None:
        """Scan the merged union of many plans' bands once, up front.

        Single-SV bands are grouped by ``(tid, sv_q)`` and their
        Z-intervals merged, so overlapping requests from different
        issuers share one physical scan.  Multi-SV bands are left to the
        memo, and non-SV-major key layouts skip prefetching entirely
        (subdividing their scans by ZV would return entries a direct
        scan excludes).

        The coverage runs of every stratum go to the tree in one call
        (``scan_bands_rows``), in the order a loop over the strata
        would have scanned them: strata by first appearance among the
        requests, runs ascending inside a stratum.  The sweep is lazy,
        so the page touches interleave with the accounting here exactly
        as they would in that loop.

        Args:
            bands: the batch's band requests — the static range plans'
                bands (an upper bound on what replay asks) and the kNN
                specs' point bands, in key order.
            clock: the virtual clock the sweep is charged on, when the
                caller wants each stratum stamped with the instant it
                landed (:attr:`StratumResidency.landed`).
        """
        if not self._sv_major:
            return
        # One pass groups the single-SV bands by stratum, in first
        # appearance order; a stratum named more than once has its
        # intervals merged when its runs are laid out.
        grouped: dict[tuple[int, int], list[ZInterval]] = {}
        for tid, sv_q, sv_hi_q, z_lo, z_hi in bands:
            if sv_q == sv_hi_q:
                coverage = grouped.get((tid, sv_q))
                if coverage is None:
                    grouped[(tid, sv_q)] = [(z_lo, z_hi)]
                else:
                    coverage.append((z_lo, z_hi))
        runs = []
        for stratum, coverage in grouped.items():
            if len(coverage) > 1:
                coverage = grouped[stratum] = merge_intervals(sorted(coverage))
                runs += [stratum + interval for interval in coverage]
            else:
                runs.append(stratum + coverage[0])
        scans = self.tree.scan_bands_rows(runs)
        # The sweep scans a run only when its result is pulled.  A
        # scan is counted as it is issued, a stratum's entries once its
        # last run has landed: a disk fault mid-sweep leaves the earlier
        # runs resident and counted, which is what the supervisor's
        # retry of the job starts from.  A stratum no earlier scan
        # proved is born holding its first run's proof.
        residencies = self._residency
        tally = self._tally
        for stratum, coverage in grouped.items():
            resident = residencies.get(stratum)
            prefetched = 0
            for z_lo, z_hi in coverage:
                self.physical_scans += 1
                rows = next(scans)
                if resident is None:
                    resident = residencies[stratum] = StratumResidency(
                        tally, stratum[0], stratum[1], z_lo, z_hi, rows
                    )
                else:
                    resident._add(z_lo, z_hi, rows)
                prefetched += len(rows.records)
            self.entries_prefetched += prefetched
            if clock is not None:
                resident.landed = clock.cursor()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def dead_entries(self) -> int:
        """Prefetched entries no replayed request asked for."""
        return sum(
            resident.dead_entries()
            for resident in self._residency.values()
            if resident.rows.zvs  # most strata hold no row, so none is dead
        )

    # ------------------------------------------------------------------
    # Physical scans
    # ------------------------------------------------------------------

    def _scan_memoized(self, band: BandRequest) -> BandRows:
        """Exact-identity memo for the bands residency cannot serve:
        multi-SV spans, and every band of a ZV-first layout."""
        self._tally.requests += 1
        cached = self._memo.get(band)
        if cached is not None:
            self.memo_hits += 1
            self._memo.move_to_end(band)
            return cached
        rows = self._physical_scan(*band)
        self._memo_put(band, rows)
        return rows

    def _memo_put(self, key: tuple, rows: BandRows) -> None:
        """Insert into the memo, evicting LRU bands past the entry bound.

        The newest band is always kept, even when it alone exceeds the
        bound — evicting it would make the memo useless for the very
        request that populated it.
        """
        self._memo[key] = rows
        self._memo_size += len(rows)
        while self._memo_size > self.memo_entries and len(self._memo) > 1:
            _, evicted = self._memo.popitem(last=False)
            self._memo_size -= len(evicted)
            self.memo_evictions += 1

    def _physical_scan(
        self, tid: int, sv_lo_q: int, sv_hi_q: int, z_lo: int, z_hi: int
    ) -> BandRows:
        self.physical_scans += 1
        return self.tree.scan_band_rows(tid, sv_lo_q, sv_hi_q, z_lo, z_hi)


__all__ = [
    "BandScanner",
    "DEFAULT_MEMO_ENTRIES",
    "NO_ROWS",
    "NOT_QUIET",
    "StratumResidency",
]
