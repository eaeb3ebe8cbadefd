"""Adaptive prefetch policy: merge vs exact band scanning (engine layer).

:meth:`BandScanner.prefetch` merges every overlapping band request per
``(tid, sv_q)`` stratum and scans the union once.  That is the right
call on range-dominant batches, where many issuers share the merged
coverage — but the service bench showed it flips sign on kNN-heavy
streams: the speculative probe bands widen the coverage with pages the
adaptive search never asks for, and the merged scan transfers dead
pages a per-band scan would have skipped.

:class:`PrefetchPolicy` closes that loop online.  It decides

* **per batch** whether the speculative kNN probe bands may widen the
  prefetch coverage of strata that firm requests already pay a seek
  for (a deterministic two-armed explore/exploit choice scored by
  observed cost per request) — a stratum only the probes name is never
  prefetched: one on-demand scan proves as much of it as the prefetch
  scan would (stratum residency), and costs nothing if the search
  never gets there — and
* **per stratum** whether the firm requests of one ``(tid, sv_q)``
  group are served by a merged prefetch, by exact on-demand band scans,
  or by a hybrid coverage whose runs are coalesced only while the gap's
  transfer cost undercuts a fresh seek —

seeded from :class:`repro.core.cost_model.BandScanCostModel` (the
Section 6 pricing, per scan) under the deployment's active
:class:`~repro.simio.model.DeviceProfile`, then corrected by feedback:
the executor reports per-stratum outcomes (entries prefetched vs dead,
coverage runs, requested widths, the on-demand scans that actually
reached the tree) plus batch-level physical reads and
``virtual_time_us`` after every batch, and the service worker adds the
per-class signal the SLO bench actually measures (service time and
reads per request).

Every decision is *observationally safe by construction*: the policy
only chooses which coverage (if any) the scanner prefetches into its
stratum residency, which serves requests by exact bisection of rows
the tree returned.  Results, ``candidates_examined``, and post-run tree state are
bit-identical under any policy — only I/O and virtual-time counters
move.  Decisions are also deterministic: the explore/exploit arm is a
pure function of observed counters (no randomness, no wall clock), and
it is fixed before a batch forks any shard jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost_model import BandScanCostModel
from repro.spatial.decompose import ZInterval, merge_intervals

#: Policy modes accepted everywhere a policy is configured.
PREFETCH_MODES = ("auto", "merge", "exact")

#: Strata flip between merge and exact only after this many observed
#: batches; colder strata behave exactly like the static merge policy.
MIN_STRATUM_SAMPLES = 2

#: Every Nth kNN-bearing batch re-runs the currently losing arm, so a
#: workload shift (kNN probes becoming profitable again) is noticed.
REEXPLORE_EVERY = 16

#: EWMA smoothing for all feedback signals.
EWMA_ALPHA = 0.5


@dataclass
class StratumOutcome:
    """One scanner's accounting for one ``(tid, sv_q)`` prefetch stratum.

    Derived from the raw tallies a
    :class:`~repro.engine.scanner.StratumResidency` keeps over its
    scanner's lifetime (one batch in the executor), when policy
    feedback asks (:meth:`BandScanner.stratum_outcomes`), and fed back
    verbatim through :meth:`PrefetchPolicy.observe_batch`.

    Attributes:
        tid: partition id of the stratum.
        sv_q: quantized sequence value of the stratum.
        requests: requests put to this stratum — ``scan()`` calls and
            direct residency hits, not the pieces a PkNN search skipped
            inside a quiet interval.
        unique_bands: distinct requested Z-intervals among them.
        requested_zv: ZV width of the union of requested intervals.
        coverage_runs: contiguous coverage intervals the prefetch
            scanned (0 when the stratum was served exactly).
        coverage_zv: total ZV width of the prefetched coverage.
        prefetched_entries: entries transferred by the prefetch scans.
        dead_entries: prefetched entries outside every requested
            interval — the merge waste, measurable even untimed.
        demand_scans: on-demand band scans of this stratum that reached
            the tree — what serving it exact actually cost.  Requests a
            proven interval already answered never get here.
        observed_entries: entries returned by those on-demand scans
            (the density signal when nothing was prefetched).
        observed_zv: ZV width those on-demand scans asked for.
    """

    tid: int
    sv_q: int
    requests: int = 0
    unique_bands: int = 0
    requested_zv: int = 0
    coverage_runs: int = 0
    coverage_zv: int = 0
    prefetched_entries: int = 0
    dead_entries: int = 0
    demand_scans: int = 0
    observed_entries: int = 0
    observed_zv: int = 0
    #: Raw requested intervals the summary fields above were derived
    #: from; not part of the feedback API.
    requested: list[ZInterval] = field(default_factory=list, repr=False)


class _Ewma:
    """Exponentially weighted mean with a sample counter."""

    __slots__ = ("value", "samples")

    def __init__(self):
        self.value = 0.0
        self.samples = 0

    def update(self, x: float) -> None:
        if self.samples == 0:
            self.value = float(x)
        else:
            self.value += EWMA_ALPHA * (float(x) - self.value)
        self.samples += 1


class _StratumState:
    """Smoothed per-stratum observations driving the merge/exact flip."""

    __slots__ = ("density", "exact_scans", "requested_zv", "samples")

    def __init__(self):
        self.density = _Ewma()  # entries per unit of ZV width
        self.exact_scans = _Ewma()  # tree scans serving the stratum exact costs
        self.requested_zv = _Ewma()
        self.samples = 0


class PrefetchPolicy:
    """Online merge-vs-exact decision maker for batch band prefetching.

    Args:
        cost: the per-scan pricing model; defaults to SSD-like pricing.
        mode: ``"auto"`` (adaptive), ``"merge"`` (always merge — the
            legacy behavior, bit-identical coverage), or ``"exact"``
            (never prefetch; every band is scanned on demand).

    One policy instance serves one engine — including a sharded engine,
    whose per-shard scanners call :meth:`decide` from their prefetch
    jobs with disjoint ``scope`` values.  Those jobs run inline, one at
    a time, so the shared state is plain attributes; the per-batch arm
    is fixed in :meth:`begin_batch` before any job forks.
    """

    def __init__(
        self, cost: BandScanCostModel | None = None, mode: str = "auto"
    ):
        if mode not in PREFETCH_MODES:
            raise ValueError(
                f"mode must be one of {PREFETCH_MODES}, got {mode!r}"
            )
        self.cost = cost if cost is not None else BandScanCostModel()
        self.mode = mode
        self._strata: dict[tuple[int, int, int], _StratumState] = {}
        # Two-armed explore/exploit over "do kNN probe bands join the
        # prefetch?": True = speculative prefetch on, False = off.
        self._arm_scores: dict[bool, _Ewma] = {True: _Ewma(), False: _Ewma()}
        self._service_scores: dict[bool, _Ewma] = {True: _Ewma(), False: _Ewma()}
        self._arm_speculative = True
        self._batch_arm: bool | None = None
        self._knn_batches = 0
        self.knn_share = _Ewma()
        # Decision counters, for introspection and tests.
        self.merged_strata = 0
        self.exact_strata = 0
        self.coalesced_runs = 0
        self.seeks_observed = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_tree(cls, tree, mode: str = "auto") -> "PrefetchPolicy":
        """Build a policy priced for ``tree``'s device and page geometry.

        Seek/transfer costs come from the tree's ``latency_model`` (the
        active :class:`DeviceProfile`); untimed trees fall back to the
        default SSD-like pricing, where only the ratios matter.  Entry
        density per page comes from the B+-tree leaf capacity.
        """
        model = getattr(tree, "latency_model", None)
        profile = getattr(model, "profile", None)
        inner = tree
        trees = getattr(tree, "trees", None)
        if trees:
            inner = trees[0]
        btree = getattr(inner, "btree", None)
        capacity = None
        if btree is not None:
            capacity = getattr(getattr(btree, "config", None), "leaf_capacity", None)
        entries_per_page = float(capacity) if capacity else 16.0
        if profile is not None:
            cost = BandScanCostModel.from_device(
                profile, entries_per_page=entries_per_page
            )
        else:
            cost = BandScanCostModel(entries_per_page=entries_per_page)
        return cls(cost=cost, mode=mode)

    @classmethod
    def coerce(cls, policy, tree) -> "PrefetchPolicy | None":
        """Accept a policy, a mode string, or None (legacy behavior)."""
        if policy is None or isinstance(policy, cls):
            return policy
        if isinstance(policy, str):
            return cls.for_tree(tree, mode=policy)
        raise TypeError(
            f"prefetch policy must be a PrefetchPolicy, a mode string "
            f"{PREFETCH_MODES}, or None; got {policy!r}"
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def begin_batch(self, n_range: int, n_knn: int) -> None:
        """Fix this batch's speculative-prefetch arm (called pre-fork).

        Static modes pin the arm.  In auto mode, batches without kNN
        specs have no speculative bands, so no arm is scored; kNN-
        bearing batches explore each arm once, then exploit the arm
        with the lower observed cost per request, re-running the loser
        every :data:`REEXPLORE_EVERY` kNN batches to track drift.
        """
        total = n_range + n_knn
        if total > 0:
            self.knn_share.update(n_knn / total)
        self._batch_arm = None
        if self.mode == "merge":
            self._arm_speculative = True
            return
        if self.mode == "exact":
            self._arm_speculative = False
            return
        if n_knn == 0:
            self._arm_speculative = True
            return
        self._knn_batches += 1
        if self._arm_scores[True].samples == 0:
            arm = True
        elif self._arm_scores[False].samples == 0:
            arm = False
        elif self._knn_batches % REEXPLORE_EVERY == 0:
            arm = not self._best_arm()
        else:
            arm = self._best_arm()
        self._arm_speculative = arm
        self._batch_arm = arm

    def _best_arm(self) -> bool:
        """The arm with the lower smoothed cost per request.

        Batch-level scores (virtual time when timed, physical reads
        otherwise) decide; the service worker's per-request signal
        breaks ties, and a dead heat keeps speculative prefetch on
        (the legacy behavior).
        """
        on, off = self._arm_scores[True].value, self._arm_scores[False].value
        if on != off:
            return on < off
        s_on, s_off = self._service_scores[True], self._service_scores[False]
        if s_on.samples and s_off.samples and s_on.value != s_off.value:
            return s_on.value < s_off.value
        return True

    def decide(
        self,
        scope: int,
        tid: int,
        sv_q: int,
        firm: list[ZInterval],
        speculative: list[ZInterval],
    ) -> list[ZInterval] | None:
        """Coverage to prefetch for one stratum, or None to scan exact.

        ``firm`` intervals come from static range plans (the skip rule
        can only remove requests, so they are an upper bound on what
        will be asked); ``speculative`` intervals are kNN probe hints
        that the adaptive search may never touch.  The returned
        coverage only feeds the scanner's stratum residency — requests
        are always served by exact bisection — so any return value is
        safe.
        """
        if self.mode == "merge":
            intervals = firm + speculative
            return merge_intervals(sorted(intervals)) if intervals else None
        if self.mode == "exact":
            return None
        if not firm:
            # Probe hints alone never earn a prefetch: one on-demand scan
            # proves as much of the stratum as the prefetch scan would
            # (stratum residency), so exact costs the same seek if the
            # search gets there and nothing if it does not.
            return None
        intervals = list(firm)
        if self._arm_speculative:
            # Here the probe only widens a scan whose seek the firm
            # requests already pay.
            intervals += speculative
        coverage = merge_intervals(sorted(intervals))
        state = self._strata.get((scope, tid, sv_q))
        if state is None or state.samples < MIN_STRATUM_SAMPLES:
            # Cold stratum: behave like the static merge policy.
            self.merged_strata += 1
            return coverage
        density = max(state.density.value, 1e-9)
        merged_entries = density * sum(hi - lo + 1 for lo, hi in coverage)
        # Fractional expected scans: a stratum requested in half its
        # observed batches prices half a seek per batch, which is what
        # lets rarely-requested strata flip to exact.
        exact_scans = state.exact_scans.value
        exact_entries = density * state.requested_zv.value
        if not self.cost.prefer_merge(
            merged_entries, len(coverage), exact_entries, exact_scans
        ):
            self.exact_strata += 1
            return None
        self.merged_strata += 1
        coalesced = self._coalesce(coverage, density)
        self.coalesced_runs += len(coverage) - len(coalesced)
        return coalesced

    def _coalesce(
        self, coverage: list[ZInterval], density: float
    ) -> list[ZInterval]:
        """Fuse coverage runs whose gap transfers cheaper than a seek."""
        budget = self.cost.gap_entry_budget()
        out = [coverage[0]]
        for lo, hi in coverage[1:]:
            gap_entries = (lo - out[-1][1] - 1) * density
            if gap_entries <= budget:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------

    def observe_batch(
        self,
        outcomes: "dict[tuple[int, int, int], StratumOutcome]",
        *,
        physical_reads: int,
        virtual_time_us: float,
        n_requests: int,
        seeks: int = 0,
    ) -> None:
        """Fold one finished batch's measurements into the policy.

        Args:
            outcomes: per-``(scope, tid, sv_q)`` stratum accounting from
                the batch's scanner(s).
            physical_reads: page reads the buffer pool could not serve.
            virtual_time_us: simulated elapsed time (0.0 untimed).
            n_requests: query specs the batch served.
            seeks: non-sequential device positionings charged (0
                untimed); tracked for introspection — the time signal
                already prices them through the device profile.
        """
        self.seeks_observed += seeks
        for (scope, tid, sv_q), out in outcomes.items():
            state = self._strata.setdefault((scope, tid, sv_q), _StratumState())
            if out.coverage_zv > 0:
                state.density.update(out.prefetched_entries / out.coverage_zv)
            elif out.observed_zv > 0:
                state.density.update(out.observed_entries / out.observed_zv)
            if out.requests > 0 or out.coverage_zv > 0:
                # A prefetched-but-unrequested batch is an observation
                # too — of zero demand.  Those strata (skip-rule
                # casualties, unused probe superset) are precisely the
                # ones that must flip to exact.  Served exact, the
                # stratum shows what exact costs: the on-demand scans
                # that reached the tree (a scan proves more than it was
                # asked, so later bands are often free).  Served from a
                # prefetch it shows nothing of the kind; the distinct
                # requested bands remain the upper bound.
                state.exact_scans.update(
                    out.unique_bands if out.coverage_runs else out.demand_scans
                )
                state.requested_zv.update(out.requested_zv)
                state.samples += 1
        if self._batch_arm is not None:
            per_request = max(1, n_requests)
            if virtual_time_us > 0.0:
                score = virtual_time_us / per_request
            else:
                score = physical_reads / per_request
            self._arm_scores[self._batch_arm].update(score)
            self._batch_arm = None

    def observe_service(
        self,
        *,
        n_range: int,
        n_knn: int,
        n_updates: int,
        service_us: float,
        physical_reads: int,
    ) -> None:
        """Fold one served request batch's class mix and cost per request.

        Called by the service worker after each admitted batch, so the
        policy tunes against the quantity the SLO bench gates — time
        (and reads) per request at the service level, update work
        included.
        """
        requests = n_range + n_knn
        if requests == 0:
            return
        self.knn_share.update(n_knn / requests)
        arm = self._arm_speculative
        if service_us > 0.0:
            self._service_scores[arm].update(service_us / requests)
        else:
            self._service_scores[arm].update(physical_reads / requests)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current decision state, for benches and debugging."""
        return {
            "mode": self.mode,
            "knn_share": self.knn_share.value,
            "arm_speculative": self._arm_speculative,
            "arm_scores": {
                "on": self._arm_scores[True].value,
                "off": self._arm_scores[False].value,
            },
            "strata_tracked": len(self._strata),
            "merged_strata": self.merged_strata,
            "exact_strata": self.exact_strata,
            "coalesced_runs": self.coalesced_runs,
        }


__all__ = [
    "EWMA_ALPHA",
    "MIN_STRATUM_SAMPLES",
    "PREFETCH_MODES",
    "PrefetchPolicy",
    "REEXPLORE_EVERY",
    "StratumOutcome",
]
