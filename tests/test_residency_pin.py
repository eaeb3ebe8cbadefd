"""Observational pin for PkNN through stratum residency.

The Section 5.4 matrix walk (:func:`repro.core.pknn.pknn_walk`; here its
``_MatrixSearch`` on a scanner shared by several searches) holds each
friend stratum's residency and answers every annulus piece a fence
proof covers without going back to the scanner (:mod:`repro.core.pknn`,
:mod:`repro.engine.scanner`).  The per-band reference is the test-local
scanner of :mod:`tests.reference_scan`, which decodes entry by entry,
records only the interval it asked for as proven and therefore keeps
scanning band by band.  Against it, on a single tree and on 1/2/4
shards, in both traversal orders: neighbours, ``candidates_examined``
and ``rounds`` are identical and physical reads are never higher.  The
same holds for ``execute_batch`` with mixed range+kNN specs, whose kNN
specs are served by the point-band fetch.

The search also keeps, per (friend, partition), the stratum's *quiet
interval* — proven, and holding nobody it has not located — and skips
the cells that fall inside it, counting their pieces in bulk.  The
reference never reports a quiet interval, so it is also the per-piece
walk the skipping one is pinned to: same requests counted, on a Z-curve
and a Hilbert grid (coarsened windows; the quiet test never assumes that
rounds nest), with users in one live partition or two, with ``k`` above
the friend-list length, and with a friend whose only entry sits in a
partition no query scans (the row that walks to ``max_rounds``).

With a shard supervisor attached a search gets no residency handle at
all — a quarantined shard's strata must be dropped and counted request
by request — so a degraded batch drops and counts exactly what the
reference does.
"""

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peb_tree import PEBTree
from repro.core.pknn import _MatrixSearch
from repro.engine import BandScanner, QueryEngine
from repro.engine.scanner import NOT_QUIET, StratumResidency, _Tally
from repro.fault import BreakerPolicy, RetryPolicy
from repro.motion.rows import BandRows
from repro.shard.engine import ShardScatterScanner
from repro.spatial.curves import HILBERT
from repro.spatial.decompose import merge_intervals
from repro.storage import BufferPool, SimulatedDisk
from repro.storage.faults import FaultyDisk
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import World, build_world
from tests.reference_scan import (
    ReferenceEngine,
    ReferenceScanner,
    ShardedReferenceEngine,
    reference_scatter,
)
from tests.test_shard_property import build_sharded

ORDERS = ("triangular", "column")
SHARD_COUNTS = (1, 2, 4)
T_QUERY = 5.0  # live labels 60 and 120: partitions 0 and 1; 2 is not scanned


@dataclass
class PinWorld(World):
    """One pin input: a 260-user world and the ``k`` its searches ask."""

    k: int = 4


def pin_world(seed, k=4, curve="z", reported_at=None):
    """``build_world``'s population on ``curve``'s grid, optionally with
    each user's state re-stamped as reported at ``reported_at(uid)``
    (which moves it to that instant's partition)."""
    world = build_world(n_users=260, n_policies=8, seed=seed, curve=curve)
    world = PinWorld(**vars(world), k=k)
    if reported_at is None:
        return world
    world.states = {
        uid: replace(obj, t_update=reported_at(uid))
        for uid, obj in world.states.items()
    }
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    world.peb = PEBTree(pool, world.grid, world.partitioner, world.store)
    for uid in world.uids:
        world.peb.insert(world.states[uid])
    return world


PIN_WORLDS = {
    "5": dict(seed=5),
    "31": dict(seed=31),
    "hilbert": dict(seed=5, curve="hilbert"),
    "two-partitions": dict(seed=31, reported_at=lambda uid: 30.0 * (uid % 2)),
    "k-above-friends": dict(seed=5, k=20),
    # Reported at t = 100: label 180, partition 2 — not live at T_QUERY.
    "expired-entry": dict(
        seed=31, k=20, reported_at=lambda uid: 0.0 if uid % 7 else 100.0
    ),
}


@pytest.fixture(scope="module", params=list(PIN_WORLDS))
def world(request):
    return pin_world(**PIN_WORLDS[request.param])


def knn_specs(world, n=8, k=None):
    return world.query_generator().knn_queries(
        world.states, n, world.k if k is None else k, T_QUERY
    )


def pools_of(tree):
    return getattr(tree, "pools", None) or [tree.btree.pool]


def cold_reads(tree, run):
    """``(result, physical reads)`` of ``run()`` from cold buffers."""
    for pool in pools_of(tree):
        pool.clear()
    before = tree.stats.physical_reads
    result = run()
    return result, tree.stats.physical_reads - before


def knn_signature(result):
    return (
        [(round(d, 9), obj.uid) for d, obj in result.neighbors],
        result.candidates_examined,
        result.rounds,
    )


def search_all(tree, specs, scanner, order):
    return [
        knn_signature(
            _MatrixSearch(
                tree, s.q_uid, s.qx, s.qy, s.k, s.t_query, scanner=scanner
            ).run(order)
        )
        for s in specs
    ]


@pytest.mark.parametrize("order", ORDERS)
def test_single_tree_search_matches_the_per_band_reference(world, order):
    specs = knn_specs(world)
    tree = world.peb
    resident = BandScanner(tree)
    got, got_reads = cold_reads(
        tree, lambda: search_all(tree, specs, resident, order)
    )
    reference = ReferenceScanner(tree)
    expected, expected_reads = cold_reads(
        tree, lambda: search_all(tree, specs, reference, order)
    )
    assert got == expected
    assert got_reads <= expected_reads
    # Same requests, truthfully counted; far fewer of them reach the tree.
    assert resident.requests == reference.requests
    assert resident.physical_scans < reference.physical_scans
    assert resident.direct_hits > 0 and not resident._memo


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("order", ORDERS)
def test_sharded_search_matches_the_per_band_reference(world, n_shards, order):
    specs = knn_specs(world)
    sharded = build_sharded(world, n_shards)
    resident = ShardScatterScanner(sharded)
    got, got_reads = cold_reads(
        sharded, lambda: search_all(sharded, specs, resident, order)
    )
    reference = reference_scatter(sharded)
    expected, expected_reads = cold_reads(
        sharded, lambda: search_all(sharded, specs, reference, order)
    )
    assert got == expected
    assert got_reads <= expected_reads
    assert resident.requests == reference.requests
    assert resident.physical_scans < reference.physical_scans
    # ... and identical to the single tree's search.
    assert got == search_all(world.peb, specs, BandScanner(world.peb), order)


@pytest.mark.parametrize("n_shards", (0,) + SHARD_COUNTS)
def test_mixed_batch_matches_the_per_band_reference(world, n_shards):
    specs = world.query_generator().mixed_queries(
        world.states, 24, 260.0, world.k, T_QUERY
    )
    assert any(isinstance(s, KnnQuerySpec) for s in specs)
    assert any(isinstance(s, RangeQuerySpec) for s in specs)
    if n_shards:
        tree = build_sharded(world, n_shards)
        engine, reference = QueryEngine, ShardedReferenceEngine
    else:
        tree = world.peb
        engine, reference = QueryEngine, ReferenceEngine
    got, got_reads = cold_reads(tree, lambda: engine(tree).execute_batch(specs))
    expected, expected_reads = cold_reads(
        tree, lambda: reference(tree).execute_batch(specs)
    )
    assert got_reads <= expected_reads
    assert got.stats.bands_requested == expected.stats.bands_requested
    assert got.stats.residency_hits >= expected.stats.residency_hits
    for spec, mine, theirs in zip(specs, got.results, expected.results):
        assert mine.candidates_examined == theirs.candidates_examined, spec
        if isinstance(spec, RangeQuerySpec):
            assert mine.uids == theirs.uids, spec
        else:
            assert knn_signature(mine) == knn_signature(theirs), spec


def test_quiet_cells_are_counted_without_being_served(world, monkeypatch):
    """Almost every request of a batch of walks is a piece inside a
    quiet interval: counted, but never put to the residency."""
    served = []
    serve = StratumResidency.serve

    def counted_serve(self, z_lo, z_hi):
        served.append((z_lo, z_hi))
        return serve(self, z_lo, z_hi)

    monkeypatch.setattr(StratumResidency, "serve", counted_serve)
    # As a batch of walks shares one scanner: every search's round-one
    # bands prefetched first, friend-major, then the searches in order.
    scanner = BandScanner(world.peb)
    searches = [
        _MatrixSearch(world.peb, s.q_uid, s.qx, s.qy, s.k, s.t_query, scanner=scanner)
        for s in knn_specs(world, n=12)
    ]
    scanner.prefetch(
        search.planner.band(tid, sv, *pieces[0])
        for search in searches
        for sv, _ in search.friends
        for _, tid, pieces, _, _ in search._round_pieces(1)
    )
    for search in searches:
        search.run()
    # A coarsened Hilbert window often repeats the previous round's, and
    # such a round asks nothing: the same few served cells weigh more.
    # Measured in this file's order: 253 served of 855 requests (0.296)
    # on the Hilbert grid; 280 of 782 (0.358) when rows without a
    # policy that holds at T_QUERY had just left the matrix.
    share = 0.37 if world.grid.curve is HILBERT else 0.25
    assert 0 < len(served) <= share * scanner.requests


# ----------------------------------------------------------------------
# The interval set itself, against a model
# ----------------------------------------------------------------------

Z = st.integers(min_value=0, max_value=63)
INTERVALS = st.lists(st.tuples(Z, Z), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    zvs=st.lists(Z, max_size=30),
    proofs=INTERVALS,
    probes=INTERVALS,
)
def test_residency_serves_exactly_what_its_proofs_cover(zvs, proofs, probes):
    stratum = sorted(zvs)  # the tree's rows of one stratum, by ZV

    def rows_of(lo, hi):
        inside = [zv for zv in stratum if lo <= zv <= hi]
        return BandRows(inside, [(zv, 0.0, 0.0, 0.0, 0.0, 0.0, 0) for zv in inside])

    tally = _Tally()
    resident = StratumResidency(tally, tid=0, sv_q=0)
    proven = []
    for a, b in proofs:
        lo, hi = min(a, b), max(a, b)
        resident._add(lo, hi, rows_of(lo, hi))
        proven = merge_intervals(sorted(proven + [(lo, hi)]))
        assert resident._edges == [edge for p, q in proven for edge in (p, q + 1)]
    hits = 0
    for a, b in probes:
        lo, hi = min(a, b), max(a, b)
        served = resident.serve(lo, hi)
        if any(p <= lo and hi <= q for p, q in proven):
            hits += 1
            assert [zv for zv, _ in served] == [z for z in stratum if lo <= z <= hi]
        else:
            assert served is None
    assert tally.requests == tally.residency_hits == hits
    assert len(resident.requested) == hits


@settings(max_examples=200, deadline=None)
@given(
    zvs=st.lists(Z, max_size=30),
    proofs=INTERVALS,
    located=st.sets(st.integers(min_value=0, max_value=29)),
    probes=st.lists(Z, min_size=1, max_size=12),
)
def test_quiet_interval_is_the_widest_with_nobody_left_to_find(
    zvs, proofs, located, probes
):
    stratum = sorted(zvs)  # row i belongs to user i

    def rows_of(lo, hi):
        inside = [(uid, zv) for uid, zv in enumerate(stratum) if lo <= zv <= hi]
        return BandRows(
            [zv for _, zv in inside],
            [(uid, 0.0, 0.0, 0.0, 0.0, 0.0, 0) for uid, _ in inside],
        )

    tally = _Tally()
    resident = StratumResidency(tally, tid=0, sv_q=0)
    proven = set()
    for a, b in proofs:
        lo, hi = min(a, b), max(a, b)
        resident._add(lo, hi, rows_of(lo, hi))
        proven.update(range(lo, hi + 1))
    # Where a search that has located ``located`` can still learn something.
    loud = {zv for uid, zv in enumerate(stratum) if uid not in located}
    for z in probes:
        lo, hi = resident.quiet_around(z, located)
        if z not in proven or z in loud:
            assert (lo, hi) == NOT_QUIET
            continue
        assert lo <= z <= hi
        inside = set(range(lo, hi + 1))
        assert inside <= proven and not inside & loud
        # Maximal: one more Z on either side is unproven or loud.
        assert all(edge not in proven or edge in loud for edge in (lo - 1, hi + 1))
    assert tally.requests == tally.residency_hits == 0
    assert not resident.requested


# ----------------------------------------------------------------------
# Under a supervisor: no residency handle, drops counted per request
# ----------------------------------------------------------------------

N_SHARDS = 3
PAGE_SIZE = 1024


def deploy_supervised(world):
    sharded = world.deploy(
        N_SHARDS,
        buffer_pages=8,
        disk_factory=lambda shard: FaultyDisk(page_size=PAGE_SIZE),
        fault_policy=RetryPolicy(max_attempts=3, base_backoff_us=0.0),
        breaker_policy=BreakerPolicy(),
    )
    for pool in sharded.pools:
        pool.clear()
    return sharded


def kill_shard(sharded, dead):
    disk = sharded.trees[dead].btree.pool.disk
    while hasattr(disk, "inner"):
        disk = disk.inner
    disk.heal()
    disk.fail_every_nth_read = 1  # every read fails, forever


@pytest.mark.parametrize("dead", range(N_SHARDS))
def test_quarantined_strata_are_never_served_from_residency(world, dead):
    specs = knn_specs(world, n=4, k=3)
    reports = []
    for engine, scatter in (
        (QueryEngine, ShardScatterScanner),
        (ShardedReferenceEngine, reference_scatter),
    ):
        sharded = deploy_supervised(world)
        kill_shard(sharded, dead)
        reports.append(engine(sharded).execute_batch(specs))
        assert sharded.supervisor.is_quarantined(dead)
        # The search is handed no residency under a supervisor.
        scanner = scatter(sharded)
        assert all(
            scanner.residency(tid, sv_q) is None
            for tid in range(world.partitioner.num_partitions)
            for sv_q in (0, 1 << 10)
        )
    got, expected = reports
    assert got.degraded == expected.degraded and any(got.degraded)
    assert got.stats.fault_stats.bands_dropped > 0
    assert (
        got.stats.fault_stats.bands_dropped
        == expected.stats.fault_stats.bands_dropped
    )
    router = sharded.router
    live_keys = world.peb._live_keys
    for mine, theirs in zip(got.results, expected.results):
        assert knn_signature(mine) == knn_signature(theirs)
        for _, obj in mine.neighbors:  # never a row of the dead shard
            assert router.shard_of_key(live_keys[obj.uid]) != dead
