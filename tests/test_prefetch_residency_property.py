"""Key fetches beside the residency: a property test.

:meth:`repro.engine.scanner.BandScanner.prefetch` fetches the keys it is
handed (a batch's distinct planned keys) in one ``get_many`` call, keeps
each key's rows in ``fetched`` and — given a clock — stamps them with
the instant the last key of their stratum landed;
:meth:`BandScanner.fetch` answers a fetched key with one lookup and
any other key with a one-key multi-get, kept in ``fetched``.  On-demand
band scans put what they prove into their stratum's residency through
:meth:`StratumResidency._add`, whose one merge replaces the rows
resident inside the proven interval and adopts the new rows as they are
when that is all of them.  The reference, :class:`FormerScanner`, keeps
a prefetch and a fetch written as single-band tree scans of each key's
point band, the prefetch's stamps laid on after its loop, stratum by
stratum, and the ``_add`` the one-way merge replaced, which adopts a
first proof and concatenates every later one.

Histories over a few random strata mix prefetches (keys at occupied and
empty points, a key named twice, with and without a clock), key
fetches, on-demand scans, residency handles taken before any scan and
hits served through them.
After every step both scanners must have answered alike and hold the
same fetched keys with the same rows and stamps, the same strata with
the same ``_edges`` and rows, and agree on ``entries_prefetched``,
``physical_scans``, ``requests`` and ``residency_hits``.
"""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peb_key import PEBKeyCodec
from repro.engine.plan import BandRequest
from repro.engine.scanner import BandScanner, StratumResidency
from repro.motion.rows import BandRows

MAX_Z = 63
STRATA = [(tid, sv_q) for tid in (0, 1) for sv_q in (0, 1, 2)]
CODEC = PEBKeyCodec(tid_count=2, sv_bits=2, zv_bits=6, sv_scale=1)


class StrataTree:
    """Rows of a few ``(tid, sv_q)`` strata, scanned the way the PEB-tree
    reports them: the rows inside each band, and — unless the band
    starts on a leaf edge, here every third — the widest interval of its
    stratum that holds exactly them; a key's rows, without a proof."""

    codec = CODEC

    def __init__(self, strata):
        self.strata = strata  # (tid, sv_q) -> ascending ZVs

    def _rows(self, tid, sv_q, z_lo, z_hi):
        zvs = self.strata.get((tid, sv_q), [])
        lo = bisect_left(zvs, z_lo)
        hi = bisect_right(zvs, z_hi)
        rows = BandRows(
            zvs[lo:hi], [(sv_q * 100 + zv, 0.0, 0.0, 0.0, 0.0, 0.0, tid) for zv in zvs[lo:hi]]
        )
        return rows, lo, hi, zvs

    def scan_band_rows(self, tid, sv_lo_q, sv_hi_q, z_lo, z_hi):
        assert sv_lo_q == sv_hi_q
        rows, lo, hi, zvs = self._rows(tid, sv_lo_q, z_lo, z_hi)
        if z_lo % 3:
            rows.proven = (
                zvs[lo - 1] + 1 if lo else 0,
                zvs[hi] - 1 if hi < len(zvs) else MAX_Z,
            )
        return rows

    def get_many(self, keys):
        for key in keys:
            tid, sv_q, zv = CODEC.decompose(key)
            yield self._rows(tid, sv_q, zv, zv)[0]


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
    """The scanner with a per-key prefetch loop, a fetch by point-band
    scan, and the two-branch ``_add``."""

    def residency(self, tid, sv_q):
        resident = self._residency.get((tid, sv_q))
        if resident is None:
            resident = self._residency[(tid, sv_q)] = FormerResidency(self._tally, tid, sv_q)
        return resident

    def fetch(self, key):
        self.scan_calls += 1
        self._tally.requests += 1
        if key in self.fetched:
            self._tally.residency_hits += 1
            return self.fetched[key]
        self.physical_scans += 1
        tid, sv_q, zv = CODEC.decompose(key)
        rows = self.tree.scan_band_rows(tid, sv_q, sv_q, zv, zv)
        self.fetched[key] = BandRows(rows.zvs, rows.records)
        return self.fetched[key]

    def prefetch(self, keys, clock=None):
        landed = {}  # stratum -> the cursor read after its last key
        for key in keys:
            self.physical_scans += 1
            tid, sv_q, zv = CODEC.decompose(key)
            rows = self.tree.scan_band_rows(tid, sv_q, sv_q, zv, zv)
            self.fetched[key] = BandRows(rows.zvs, rows.records)
            self.entries_prefetched += len(rows)
            if clock is not None:
                landed[(tid, sv_q)] = clock.cursor()
        for key in keys:
            if clock is not None:
                self.fetched[key].landed = landed[CODEC.decompose(key)[:2]]


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
            key: (rows.zvs, rows.records, rows.landed)
            for key, rows in scanner.fetched.items()
        },
        {
            key: (resident._edges, resident.rows.zvs, resident.rows.records)
            for key, resident in scanner._residency.items()
        },
        scanner.entries_prefetched,
        scanner.physical_scans,
        scanner.requests,
        scanner.residency_hits,
    )


Z = st.integers(0, MAX_Z)


@st.composite
def band(draw, point=False):
    tid, sv_q = draw(st.sampled_from(STRATA))
    z_lo, z_hi = sorted((draw(Z), draw(Z)))
    if point:
        z_hi = z_lo
    return BandRequest(tid, sv_q, sv_q, z_lo, z_hi)


def occupied_point(strata):
    """A point band at an occupied key of ``strata``, when there is one."""
    occupied = [(stratum, zv) for stratum, zvs in strata.items() for zv in zvs]
    return st.sampled_from(occupied).map(
        lambda pick: BandRequest(pick[0][0], pick[0][1], pick[0][1], pick[1], pick[1])
    ) if occupied else band(point=True)


def key_of(point):
    return CODEC.compose_quantized(point.tid, point.sv_lo_q, point.z_lo)


def steps(strata):
    points = st.one_of(occupied_point(strata), band(point=True))
    keys = points.map(key_of)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("prefetch"),
                st.lists(keys, max_size=10).map(lambda drawn: sorted(set(drawn))),
                st.booleans(),
            ),
            st.tuples(st.just("fetch"), keys),
            st.tuples(st.just("scan"), st.one_of(points, band())),
            st.tuples(st.just("handle"), st.sampled_from(STRATA)),
            st.tuples(st.just("serve"), band()),
        ),
        min_size=1,
        max_size=8,
    )


def run(scanner, step):
    kind = step[0]
    if kind == "prefetch":
        return scanner.prefetch(step[1], Cursor() if step[2] else None)
    if kind == "fetch":
        return scanner.fetch(step[1])
    if kind == "scan":
        return scanner.scan(step[1])
    if kind == "handle":
        return scanner.residency(*step[1]).tid
    tid, sv_q, _, z_lo, z_hi = step[1]
    return scanner.residency(tid, sv_q).serve(z_lo, z_hi)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_prefetch_and_residency_equal_the_reference(data):
    strata = data.draw(
        st.fixed_dictionaries(
            {key: st.lists(Z, max_size=6, unique=True).map(sorted) for key in STRATA}
        )
    )
    tree = StrataTree(strata)
    shipped, reference = BandScanner(tree), FormerScanner(tree)
    for step in data.draw(steps(strata)):
        assert run(shipped, step) == run(reference, step), step
        assert state(shipped) == state(reference), step


def test_a_key_two_bands_name_is_fetched_once():
    tree = StrataTree({(0, 0): [5, 20, 40], (0, 1): [7], (1, 0): [30]})
    named = [
        CODEC.compose_quantized(1, 0, 30),
        CODEC.compose_quantized(0, 0, 20),  # two issuers name one friend ...
        CODEC.compose_quantized(0, 0, 20),  # ... the same key again
        CODEC.compose_quantized(0, 0, 21),  # an empty key
    ]
    keys = sorted(set(named))
    assert [CODEC.decompose(key) for key in keys] == [(0, 0, 20), (0, 0, 21), (1, 0, 30)]
    shipped, reference = BandScanner(tree), FormerScanner(tree)
    shipped.prefetch(keys, Cursor())
    reference.prefetch(keys, Cursor())
    assert state(shipped) == state(reference)
    assert shipped.physical_scans == 3 and shipped.entries_prefetched == 2
    # Both keys of stratum (0, 0) land when its second key does.
    assert [rows.landed for rows in shipped.fetched.values()] == [2.0, 2.0, 3.0]
    for key in named:
        assert shipped.fetch(key) is shipped.fetched[key]
    assert shipped.residency_hits == shipped.requests == 4
    assert shipped.physical_scans == 3
    band = BandRequest(0, 1, 1, 4, 9)  # a band is left to scan()
    assert shipped.scan(band).zvs == [7]  # on demand
    assert shipped.physical_scans == 4
