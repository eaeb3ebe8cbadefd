"""Key fetches and band scans (engine layer 2).

The scanner is the only component that touches the index during query
execution.  It reads it two ways:

1. **Keys** — a served plan is its ``(live key, friend)`` pairs, so
   every served read is one key's rows, by one method,
   :meth:`BandScanner.fetch`: a lookup in the ``key -> rows`` map
   (:attr:`BandScanner.fetched`), or else a one-key multi-get.  A
   batch fills the map up front: :meth:`BandScanner.prefetch` fetches
   the batch's distinct keys in one call into the tree
   (``get_many``), one descent each in key order, so two issuers
   naming one friend share a descent.
2. **Bands** — :class:`repro.engine.plan.BandRequest` objects, scanned
   on demand by the Section 5.4 walk, the registration sweep and the
   span ablation (:meth:`BandScanner.scan`).  Per ``(tid, sv_q)``
   stratum the scanner keeps the Z-intervals it has *proven* and every
   row inside them (:class:`StratumResidency`): a single-SV band scan
   sees, in the leaves it touched, the entries just below and above
   the band, so it proves more than it was asked
   (:attr:`BandRows.proven`), and a later band inside a proof is
   answered by bisection, an empty one without allocating.  Anything
   else goes to the tree: a multi-SV span (the Figure 7 ablation) and
   every band of the ZV-first ablation layout, where a stratum is not
   key-contiguous and no proof may be recorded (nor a fetched key
   stamped with its stratum's landing).

A tree hands out its scanner (``PEBTree.new_scanner``); a sharded
deployment hands out a scatter/gather one that keeps a
:class:`BandScanner` per shard (:mod:`repro.shard.engine`).  The
scanner assumes the tree is not mutated while it is alive (queries and
updates are phase-separated in all the harnesses), so neither the
fetched keys nor the residency need invalidation.

Rows are :class:`repro.motion.rows.BandRows` — parallel (zv, record)
columns whose ``MovingObject`` states materialize lazily — in key
order, exactly the sequence a direct ``PEBTree.scan_band`` of the
key's point band would yield, so replaying a plan against the scanner
is observationally identical to scanning the tree.  The
object-at-a-time, per-band reference the pins compare against is test
equipment (``tests/reference_scan.py``, a subclass that decodes entry
by entry and keeps no proof, installed through
``QueryEngine.new_scanner``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Sequence

from repro.engine.plan import BandRequest
from repro.motion.rows import BandRows

if TYPE_CHECKING:
    from repro.core.peb_tree import PEBTree

#: What :meth:`StratumResidency.serve` returns for a provably empty
#: interval: shared, so an empty answer allocates nothing.
NO_ROWS = BandRows.empty()


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
    holds inside them.  Each on-demand physical scan of the stratum
    adds the interval it proved
    (:attr:`BandRows.proven`: the band widened to the keys the touched
    leaves showed around it) with its rows; any later request that
    falls inside one proven interval is answered by bisection, an
    empty one without allocating.  A residency starts with no proof
    (:meth:`BandScanner.residency`); the residency lives and dies with
    its scanner, which assumes an unmutated tree, so there is nothing
    to invalidate.

    Searches that revisit a stratum many times (the PkNN matrix walk)
    hold the residency itself and call :meth:`serve` directly; a hit
    is accounted exactly as a :meth:`BandScanner.scan` hit would be.

    Attributes:
        tid, sv_q: the stratum.
        rows: the resident rows in key order.  Never mutated: a new
            proof builds a new container, or adopts its own rows when
            they hold every resident one.
    """

    __slots__ = ("tid", "sv_q", "rows", "_tally", "_edges")

    def __init__(self, tally: _Tally, tid: int, sv_q: int):
        self.tid = tid
        self.sv_q = sv_q
        self.rows = NO_ROWS
        self._tally = tally
        # The proven intervals as one ascending list of half-open edges
        # [lo0, hi0 + 1, lo1, hi1 + 1, ...]: z is proven iff an odd
        # number of edges lie at or below it.
        self._edges: list[int] = []

    def serve(self, z_lo: int, z_hi: int) -> "BandRows | None":
        """Rows of ``[z_lo, z_hi]`` if a proof covers it, else None.

        A hit is a served request, counted on the scanner.  A miss
        counts nothing — the caller falls back to
        :meth:`BandScanner.scan`, which does.
        """
        edges = self._edges
        i = bisect_right(edges, z_lo)
        if not i & 1 or edges[i] <= z_hi:
            return None
        tally = self._tally
        tally.requests += 1
        tally.residency_hits += 1
        rows = self.rows
        zvs = rows.zvs
        lo = bisect_left(zvs, z_lo)
        hi = bisect_right(zvs, z_hi, lo)
        return rows.slice(lo, hi) if lo < hi else NO_ROWS

    def _add(self, z_lo: int, z_hi: int, rows: BandRows) -> None:
        """Merge what a scan of ``[z_lo, z_hi]`` that returned ``rows`` proved.

        The interval the rows report (:attr:`BandRows.proven`) when a
        fence was read, else just the interval asked.  Rows already
        resident inside the interval are a subset of ``rows`` (same
        tree, unmutated), so they are replaced — and when that is every
        resident row (a first proof among them), ``rows`` is adopted as
        it is.  Touching or overlapping proven intervals
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
    """Fetches keys and scans bands, from what it holds or the tree.

    One scanner instance defines one deduplication scope: the single
    query adapters create a fresh scanner per query, the batch executor
    shares one scanner across every query of the batch.

    Args:
        tree: the index to scan.

    Attributes:
        fetched: ``key -> rows`` of every key this scanner fetched.
        requests: requests answered — :meth:`fetch` and :meth:`scan`
            calls plus requests a residency handle served directly.
        scan_calls: the requests that arrived through :meth:`fetch` or
            :meth:`scan`.
        physical_scans: key fetches and band scans that reached the
            tree, a prefetch's included.
        residency_hits: requests answered from what the scanner held —
            a fetched key, or a stratum's proven intervals — without
            touching the tree.
        entries_prefetched: entries the prefetch's keys returned.
        timeline: None: a timed scatter scanner's verify CPU
            (:class:`repro.shard.engine.VerifyTimeline`) has no twin here.
    """

    def __init__(self, tree: "PEBTree"):
        self.tree = tree
        self.fetched: dict[int, BandRows] = {}
        self.physical_scans = 0
        self.scan_calls = 0
        self.entries_prefetched = 0
        self.timeline = None
        # Residency needs a key-contiguous, ZV-ordered stratum.
        self._sv_major = tree.codec.sv_major
        self._tally = _Tally()
        self._residency: dict[tuple[int, int], StratumResidency] = {}

    @property
    def requests(self) -> int:
        return self._tally.requests

    @property
    def residency_hits(self) -> int:
        return self._tally.residency_hits

    @property
    def direct_hits(self) -> int:
        """Requests a residency handle answered without a :meth:`scan`
        call (:meth:`StratumResidency.serve` by a search holding it)."""
        return self.requests - self.scan_calls

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def residency(self, tid: int, sv_q: int) -> "StratumResidency | None":
        """The live residency of one stratum, or None where none can exist.

        Created, holding no proof, the first time it is asked for.  The
        handle stays current for the scanner's lifetime: later
        on-demand scans of the stratum extend it.
        """
        if not self._sv_major:
            return None
        resident = self._residency.get((tid, sv_q))
        if resident is None:
            resident = self._residency[(tid, sv_q)] = StratumResidency(
                self._tally, tid, sv_q
            )
        return resident

    def fetch(self, key: int) -> BandRows:
        """The entries at one key, in key order: a lookup in
        :attr:`fetched`, or else a one-key multi-get, kept there."""
        self.scan_calls += 1
        tally = self._tally
        tally.requests += 1
        rows = self.fetched.get(key)
        if rows is not None:
            tally.residency_hits += 1
            return rows
        self.physical_scans += 1
        rows = self.fetched[key] = next(self.tree.get_many((key,)))
        return rows

    def scan(self, band: BandRequest) -> BandRows:
        """All entries of one band, in key order, scanned on demand.

        A single-SV band is served by its stratum's residency when a
        proof covers it; any other band is scanned.
        """
        self.scan_calls += 1
        tid, sv_q, sv_hi_q, z_lo, z_hi = band
        tally = self._tally
        if sv_q != sv_hi_q or not self._sv_major:
            tally.requests += 1
            return self._physical_scan(*band)
        resident = self.residency(tid, sv_q)
        rows = resident.serve(z_lo, z_hi)
        if rows is not None:
            return rows
        tally.requests += 1
        rows = self._physical_scan(tid, sv_q, sv_q, z_lo, z_hi)
        resident._add(z_lo, z_hi, rows)
        return rows

    def prefetch(self, keys: Sequence[int], clock=None) -> None:
        """Fetch many keys' rows once, up front: a key multi-get.

        ``keys`` — the distinct keys of a batch's plans, or one shard
        job's share of them — go to the tree in one call
        (``get_many``), one descent each in the order given, and each
        key's rows land in :attr:`fetched`.  The multi-get is lazy, so
        a fetch is counted as it is issued and its rows are kept as
        they arrive: a disk fault at key *k* leaves exactly keys ``< k``
        fetched, which is what the supervisor's retry of the job (the
        whole key list again) starts from.

        Args:
            keys: distinct keys, ascending.
            clock: the virtual clock the fetches are charged on, when
                the caller wants each key's rows stamped
                (:attr:`BandRows.landed`) with the instant the last
                fetched key of its ``(tid, sv_q)`` stratum landed — a
                stratum's keys are adjacent in key order, and a stratum
                a fault cut short stays unstamped.  On a ZV-first
                layout a stratum's keys are not adjacent, so no row is
                stamped there and its verification is charged serially.
        """
        fetched = self.fetched
        fetches = self.tree.get_many(keys)
        if not self._sv_major:
            clock = None
        sv_shift = self.tree.codec.layout[1]
        last = len(keys) - 1
        pending: list[BandRows] = []
        for i, key in enumerate(keys):
            self.physical_scans += 1
            rows = fetched[key] = next(fetches)
            self.entries_prefetched += len(rows.records)
            if clock is not None:
                pending.append(rows)
                landed = clock.cursor()
                if i == last or keys[i + 1] >> sv_shift != key >> sv_shift:
                    for done in pending:
                        done.landed = landed
                    pending = []

    # ------------------------------------------------------------------
    # Physical scans
    # ------------------------------------------------------------------

    def _physical_scan(
        self, tid: int, sv_lo_q: int, sv_hi_q: int, z_lo: int, z_hi: int
    ) -> BandRows:
        self.physical_scans += 1
        return self.tree.scan_band_rows(tid, sv_lo_q, sv_hi_q, z_lo, z_hi)


__all__ = [
    "BandScanner",
    "NO_ROWS",
    "StratumResidency",
]
