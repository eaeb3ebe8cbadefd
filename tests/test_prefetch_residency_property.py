"""A prefetch makes its runs resident as on-demand scans do: a property test.

:meth:`repro.engine.scanner.BandScanner.prefetch` groups the single-SV
bands by stratum in one pass and puts every coverage run into its
stratum's residency through :meth:`StratumResidency._add`, exactly as an
on-demand scan does; ``_add`` merges every proof the same way — rows
resident inside the proven interval are replaced, and when that is all
of them the new rows are adopted as they are.  The reference,
:class:`FormerScanner`, keeps the prefetch and the ``_add`` these
replaced: a stratum list built in a second pass, every residency taken
as an empty handle before its first run is pulled, and every run put in
through an ``_add`` that adopts a first proof and concatenates every
later one.

Histories over a few random strata mix prefetches (one run per
stratum, overlapping runs that merge, disjoint runs, a stratum a kNN
probe names again after other strata's runs, span bands a prefetch
passes over), on-demand scans, residency handles taken before any scan
and hits served through them.  After every step both scanners must
have answered alike and hold the same strata with the same ``_edges``,
rows and ``landed``, and agree on ``entries_prefetched``,
``physical_scans``, ``requests`` and ``residency_hits``.
"""

from bisect import bisect_left, bisect_right
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan import BandRequest
from repro.engine.scanner import BandScanner, StratumResidency
from repro.motion.rows import BandRows
from repro.spatial.decompose import merge_intervals

MAX_Z = 63
STRATA = [(tid, sv_q) for tid in (0, 1) for sv_q in (0, 1, 2)]


class StrataTree:
    """Rows of a few ``(tid, sv_q)`` strata, scanned the way the PEB-tree's
    sweep reports them: the rows inside each run, and — unless the run
    starts on a leaf edge, here every third — the widest interval of its
    stratum that holds exactly them."""

    codec = SimpleNamespace(sv_major=True)

    def __init__(self, strata):
        self.strata = strata  # (tid, sv_q) -> ascending ZVs

    def scan_bands_rows(self, runs):
        for tid, sv_q, z_lo, z_hi in runs:
            zvs = self.strata.get((tid, sv_q), [])
            lo = bisect_left(zvs, z_lo)
            hi = bisect_right(zvs, z_hi)
            rows = BandRows(
                zvs[lo:hi], [(sv_q * 100 + zv, 0.0, 0.0, 0.0, 0.0, 0.0, tid) for zv in zvs[lo:hi]]
            )
            if z_lo % 3:
                rows.proven = (
                    zvs[lo - 1] + 1 if lo else 0,
                    zvs[hi] - 1 if hi < len(zvs) else MAX_Z,
                )
            yield rows

    def scan_band_rows(self, tid, sv_lo_q, sv_hi_q, z_lo, z_hi):
        assert sv_lo_q == sv_hi_q
        return next(self.scan_bands_rows([(tid, sv_lo_q, z_lo, z_hi)]))


class FormerResidency(StratumResidency):
    """A residency with the ``_add`` the one-way merge replaced."""

    __slots__ = ()

    def _add(self, z_lo, z_hi, rows):
        if rows.proven is not None:
            z_lo, z_hi = rows.proven
        edges = self._edges
        if edges:
            old = self.rows
            zvs = old.zvs
            lo = bisect_left(zvs, z_lo)
            hi = bisect_right(zvs, z_hi, lo)
            rows = BandRows.concat((old.slice(0, lo), rows, old.slice(hi, len(zvs))))
            i = bisect_left(edges, z_lo)
            j = bisect_right(edges, z_hi + 1)
            edges[i:j] = ([] if i & 1 else [z_lo]) + ([] if j & 1 else [z_hi + 1])
        else:
            edges += (z_lo, z_hi + 1)
        self.rows = rows


class FormerScanner(BandScanner):
    """The scanner with the prefetch and residencies the one-pass
    grouping and the one-way merge replaced."""

    def residency(self, tid, sv_q):
        resident = self._residency.get((tid, sv_q))
        if resident is None:
            resident = self._residency[(tid, sv_q)] = FormerResidency(self._tally, tid, sv_q)
        return resident

    def prefetch(self, bands, clock=None):
        grouped = {}
        for tid, sv_q, sv_hi_q, z_lo, z_hi in bands:
            if sv_q == sv_hi_q:
                intervals = grouped.get((tid, sv_q))
                if intervals is None:
                    intervals = grouped[(tid, sv_q)] = []
                intervals.append((z_lo, z_hi))
        strata = []
        for (tid, sv_q), coverage in grouped.items():
            if len(coverage) > 1:
                coverage = merge_intervals(sorted(coverage))
            strata.append((tid, sv_q, coverage))
        scans = self.tree.scan_bands_rows(
            [(tid, sv_q, z_lo, z_hi) for tid, sv_q, coverage in strata for z_lo, z_hi in coverage]
        )
        for tid, sv_q, coverage in strata:
            resident = self.residency(tid, sv_q)
            prefetched = 0
            for z_lo, z_hi in coverage:
                self.physical_scans += 1
                rows = next(scans)
                resident._add(z_lo, z_hi, rows)
                prefetched += len(rows)
            self.entries_prefetched += prefetched
            if clock is not None:
                resident.landed = clock.cursor()


class Cursor:
    """A clock whose cursor is the number of times it was read."""

    def __init__(self):
        self.reads = 0

    def cursor(self):
        self.reads += 1
        return float(self.reads)


def state(scanner):
    return (
        {
            key: (
                resident._edges,
                resident.rows.zvs,
                resident.rows.records,
                resident.landed,
            )
            for key, resident in scanner._residency.items()
        },
        scanner.entries_prefetched,
        scanner.physical_scans,
        scanner.requests,
        scanner.residency_hits,
    )


Z = st.integers(0, MAX_Z)


@st.composite
def band(draw, single=True):
    tid, sv_q = draw(st.sampled_from(STRATA))
    z_lo, z_hi = sorted((draw(Z), draw(Z)))
    sv_hi_q = sv_q if single else sv_q + draw(st.integers(1, 2))
    return BandRequest(tid, sv_q, sv_hi_q, z_lo, z_hi)


STEP = st.one_of(
    st.tuples(
        st.just("prefetch"),
        st.lists(st.one_of(band(), band(), band(), band(single=False)), max_size=10),
        st.booleans(),
    ),
    st.tuples(st.just("scan"), band()),
    st.tuples(st.just("handle"), st.sampled_from(STRATA)),
    st.tuples(st.just("serve"), band()),
)


def run(scanner, step):
    kind = step[0]
    if kind == "prefetch":
        return scanner.prefetch(step[1], Cursor() if step[2] else None)
    if kind == "scan":
        return scanner.scan(step[1])
    if kind == "handle":
        return scanner.residency(*step[1]).tid
    tid, sv_q, _, z_lo, z_hi = step[1]
    return scanner.residency(tid, sv_q).serve(z_lo, z_hi)


@settings(max_examples=300, deadline=None)
@given(
    strata=st.fixed_dictionaries(
        {key: st.lists(Z, max_size=6, unique=True).map(sorted) for key in STRATA}
    ),
    steps=st.lists(STEP, min_size=1, max_size=8),
)
def test_prefetch_residency_is_the_former_residency(strata, steps):
    tree = StrataTree(strata)
    shipped, reference = BandScanner(tree), FormerScanner(tree)
    for step in steps:
        assert run(shipped, step) == run(reference, step), step
        assert state(shipped) == state(reference), step


def test_a_probe_naming_a_stratum_again_joins_its_runs():
    tree = StrataTree({(0, 0): [5, 20, 40], (0, 1): [7], (1, 0): [30]})
    bands = [
        BandRequest(0, 0, 0, 1, 10),  # range run of stratum (0, 0)
        BandRequest(0, 1, 1, 4, 9),
        BandRequest(1, 0, 0, 28, 33),
        BandRequest(0, 0, 0, 8, 22),  # overlaps the first: one merged run
        BandRequest(0, 0, 0, 38, 50),  # the probe's disjoint run of it
    ]
    shipped, reference = BandScanner(tree), FormerScanner(tree)
    shipped.prefetch(bands)
    reference.prefetch(bands)
    assert state(shipped) == state(reference)
    assert list(shipped._residency) == [(0, 0), (0, 1), (1, 0)]
    assert shipped.physical_scans == 4
    resident = shipped._residency[(0, 0)]
    assert isinstance(resident, StratumResidency)
    assert resident.rows.zvs == [5, 20, 40]
    assert shipped.entries_prefetched == 5
