"""Observational pin for PkNN through stratum residency.

The matrix search holds each friend stratum's residency and answers
every annulus piece a fence proof covers without going back to the
scanner (:mod:`repro.core.pknn`, :mod:`repro.engine.scanner`).  The
per-band reference is the unpacked scanner (``packed_scan=False``),
which records only the interval it asked for as proven and therefore
keeps scanning band by band.  Against it, on a single tree and on
1/2/4 shards, in both traversal orders and inside ``execute_batch``
with mixed range+kNN specs: neighbours, ``candidates_examined`` and
``rounds`` are identical and physical reads are never higher.

With a shard supervisor attached the search gets no residency handle at
all — a quarantined shard's strata must be dropped and counted request
by request — so degraded runs stay exactly what they were.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pknn import _MatrixSearch
from repro.engine import BandScanner, QueryEngine
from repro.engine.scanner import StratumResidency, _Tally
from repro.fault import BreakerPolicy, RetryPolicy
from repro.motion.rows import BandRows
from repro.shard import ShardedPEBTree, ShardedQueryEngine
from repro.shard.engine import ShardScatterScanner
from repro.spatial.decompose import merge_intervals
from repro.storage.faults import FaultyDisk
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world
from tests.test_shard_property import build_sharded

ORDERS = ("triangular", "column")
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module", params=(5, 31))
def world(request):
    return build_world(n_users=260, n_policies=8, seed=request.param)


def knn_specs(world, n=8, k=4):
    return world.query_generator().knn_queries(world.states, n, k, 5.0)


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
    reference = BandScanner(tree, packed=False)
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
    reference = ShardScatterScanner(sharded, packed=False)
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
    specs = world.query_generator().mixed_queries(world.states, 24, 260.0, 4, 5.0)
    assert any(isinstance(s, KnnQuerySpec) for s in specs)
    assert any(isinstance(s, RangeQuerySpec) for s in specs)
    if n_shards:
        tree = build_sharded(world, n_shards)
        engine = ShardedQueryEngine
    else:
        tree = world.peb
        engine = QueryEngine
    got, got_reads = cold_reads(tree, lambda: engine(tree).execute_batch(specs))
    expected, expected_reads = cold_reads(
        tree, lambda: engine(tree, packed_scan=False).execute_batch(specs)
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
    packed=st.booleans(),
)
def test_residency_serves_exactly_what_its_proofs_cover(zvs, proofs, probes, packed):
    stratum = sorted(zvs)  # the tree's rows of one stratum, by ZV

    def rows_of(lo, hi):
        inside = [zv for zv in stratum if lo <= zv <= hi]
        if packed:
            return BandRows(inside, [(zv, 0.0, 0.0, 0.0, 0.0, 0.0, 0) for zv in inside])
        return [(zv, None) for zv in inside]

    tally = _Tally()
    resident = StratumResidency(tally, packed, tid=0, sv_q=0)
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
    assert len(resident.outcome.requested) == hits


# ----------------------------------------------------------------------
# Under a supervisor: no residency handle, drops counted per request
# ----------------------------------------------------------------------

N_SHARDS = 3
PAGE_SIZE = 1024


def deploy_supervised(world):
    sharded = ShardedPEBTree.build(
        N_SHARDS,
        world.grid,
        world.partitioner,
        world.store,
        uids=world.uids,
        page_size=PAGE_SIZE,
        buffer_pages=8,
        disk_factory=lambda shard: FaultyDisk(page_size=PAGE_SIZE),
        fault_policy=RetryPolicy(max_attempts=3, base_backoff_us=0.0),
        breaker_policy=BreakerPolicy(),
    )
    for uid in world.uids:
        sharded.insert(world.states[uid])
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
    for packed in (True, False):
        sharded = deploy_supervised(world)
        kill_shard(sharded, dead)
        engine = ShardedQueryEngine(sharded, packed_scan=packed)
        reports.append(engine.execute_batch(specs))
        assert sharded.supervisor.is_quarantined(dead)
        # The search is handed no residency under a supervisor.
        scanner = ShardScatterScanner(sharded, packed=packed)
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
