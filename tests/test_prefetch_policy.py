"""Tests for the adaptive prefetch policy layer.

The contract under test is *observational safety*: a
:class:`repro.engine.PrefetchPolicy` (any mode), a bounded scan memo,
and the over-scan accounting may only move I/O counters — query
results, ``candidates_examined``, and the index itself must be
bit-identical to the policy-free engine.  The property test drives
randomized mixed range+kNN batch streams through all four engine
configurations (no policy, ``merge``, ``exact``, ``auto``) and pins
them against each other; the unit tests exercise the decision
machinery (cold-start merging, zero-demand flips to exact, gap
coalescing, the deterministic explore/exploit arm) directly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import PrefetchPolicy, QueryEngine, StratumOutcome
from repro.engine.plan import BandRequest, QueryPlanner
from repro.engine.policy import MIN_STRATUM_SAMPLES, REEXPLORE_EVERY
from repro.engine.scanner import BandScanner
from repro.shard import ShardedPEBTree, ShardedQueryEngine
from repro.workloads import QueryGenerator

from tests.conftest import build_world

MODES = (None, "merge", "exact", "auto")


@pytest.fixture(scope="module")
def world():
    return build_world(n_users=220, n_policies=8, seed=29)


# ----------------------------------------------------------------------
# The safety property: any policy == no policy, observationally
# ----------------------------------------------------------------------


def _result_signature(result):
    if hasattr(result, "uids"):
        return ("range", frozenset(result.uids), result.candidates_examined)
    return (
        "knn",
        tuple((round(d, 9), uid) for d, uid in result.neighbors),
        result.candidates_examined,
    )


@given(
    seed=st.integers(0, 2**16),
    n_batches=st.integers(1, 3),
    batch_size=st.integers(4, 14),
)
@settings(max_examples=8, deadline=None)
def test_any_policy_mode_is_observationally_identical(
    world, seed, n_batches, batch_size
):
    """Results and candidates match the policy-free engine, per spec,
    across a multi-batch stream (so warmed-up EWMAs and arm switches
    are exercised, not just the cold path)."""
    streams = {}
    for mode in MODES:
        generator = QueryGenerator(world.space_side, random.Random(seed))
        engine = QueryEngine(world.peb, prefetch_policy=mode)
        reports = []
        for _ in range(n_batches):
            specs = generator.mixed_queries(
                world.states, batch_size, 300.0, 3, 5.0
            )
            reports.append(engine.execute_batch(specs))
        streams[mode] = reports
    reference = streams[None]
    for mode in MODES[1:]:
        for ref_report, got_report in zip(reference, streams[mode]):
            assert len(got_report.results) == len(ref_report.results)
            for ref, got in zip(ref_report.results, got_report.results):
                assert _result_signature(got) == _result_signature(ref), mode


def test_merge_mode_matches_legacy_io_exactly(world):
    """mode="merge" is the legacy unconditional merge — not just the
    same answers but the same physical scan count as no policy."""
    specs = world.query_generator().range_queries(world.uids, 20, 280.0, 5.0)
    legacy = QueryEngine(world.peb).execute_batch(specs)
    merged = QueryEngine(world.peb, prefetch_policy="merge").execute_batch(specs)
    assert merged.stats.bands_scanned == legacy.stats.bands_scanned
    assert merged.stats.bands_deduped == legacy.stats.bands_deduped
    assert merged.stats.entries_prefetched == legacy.stats.entries_prefetched


# ----------------------------------------------------------------------
# Satellite: bounded memo — eviction costs I/O, never answers
# ----------------------------------------------------------------------


def _stratum_bands(world, n_queries=12):
    """Single-SV bands from real range plans, in plan order."""
    planner = QueryPlanner(world.peb)
    bands = []
    for spec in world.query_generator().range_queries(
        world.uids, n_queries, 320.0, 5.0
    ):
        plan = planner.plan_range(spec.q_uid, spec.window, spec.t_query)
        bands.extend(p.band for p in plan.bands if p.band.is_single_sv)
    return bands


def _span_bands(world, n_queries=12):
    """Multi-SV span bands — what the memo is kept for: stratum
    residency answers every single-SV band of this SV-major tree, so
    only spans (Figure 7's coarse friend-range scans) still enter it."""
    planner = QueryPlanner(world.peb)
    bands = []
    for spec in world.query_generator().range_queries(
        world.uids, n_queries, 320.0, 5.0
    ):
        plan = planner.plan_span_scan(spec.q_uid, spec.window, spec.t_query)
        bands.extend(p.band for p in plan.bands if not p.band.is_single_sv)
    return bands


def _rows_signature(rows):
    return [(zv, obj.uid) for zv, obj in rows]


def test_memo_eviction_never_changes_scan_results(world):
    bands = _span_bands(world)
    assert bands
    unbounded = BandScanner(world.peb)
    tiny = BandScanner(world.peb, memo_entries=4)
    # Two passes: the second pass hits the big scanner's memo but
    # re-scans whatever the tiny scanner evicted.
    for _ in range(2):
        for band in bands:
            assert _rows_signature(tiny.scan(band)) == _rows_signature(
                unbounded.scan(band)
            )
    assert unbounded.memo_evictions == 0
    assert tiny.memo_evictions > 0
    assert tiny.physical_scans > unbounded.physical_scans


def test_single_sv_bands_never_enter_the_memo(world):
    scanner = BandScanner(world.peb, memo_entries=0)
    bands = _stratum_bands(world)
    for _ in range(2):
        for band in bands:
            scanner.scan(band)
    assert not scanner._memo
    assert scanner.memo_evictions == 0 and scanner.memo_hits == 0
    # The second pass was answered entirely from residency.
    assert scanner.residency_hits >= len(bands)


def test_memo_always_keeps_the_newest_band(world):
    scanner = BandScanner(world.peb, memo_entries=0)
    for band in _span_bands(world):
        rows = scanner.scan(band)
        # The band that just populated the memo survives even a zero
        # bound; eviction only reaches colder entries.
        assert band.key in scanner._memo
        if len(rows) > 0:
            assert list(scanner._memo) == [band.key]


# ----------------------------------------------------------------------
# Satellite: over-scan accounting
# ----------------------------------------------------------------------


def _populated_stratum(world):
    """A (band, full-width band, rows) triple with >= 2 distinct ZVs."""
    probe = BandScanner(world.peb)
    for band in _stratum_bands(world, n_queries=20):
        full = BandRequest(
            band.tid, band.sv_lo_q, band.sv_hi_q, 0, world.peb.grid.max_z
        )
        rows = probe.scan(full)
        if len({zv for zv, _ in rows}) >= 2:
            return band, full, _rows_signature(rows)
    pytest.skip("no stratum with two distinct ZVs in this world")


def test_dead_entries_count_unrequested_prefetched_rows(world):
    band, full, rows = _populated_stratum(world)
    first_zv = rows[0][0]
    scanner = BandScanner(world.peb)
    scanner.prefetch([full])
    narrow = BandRequest(
        band.tid, band.sv_lo_q, band.sv_hi_q, first_zv, first_zv
    )
    served = scanner.scan(narrow)
    assert _rows_signature(served) == [r for r in rows if r[0] == first_zv]
    assert scanner.residency_hits == 1
    used = sum(1 for zv, _ in rows if zv == first_zv)
    assert scanner.dead_entries == len(rows) - used
    assert scanner.dead_entries > 0
    outcome = scanner.stratum_outcomes()[(band.tid, band.sv_lo_q)]
    assert outcome.prefetched_entries == len(rows)
    assert outcome.requested_zv == 1
    assert outcome.unique_bands == 1


def test_execution_stats_surface_prefetch_accounting(world):
    generator = world.query_generator()
    specs = generator.mixed_queries(world.states, 16, 300.0, 3, 5.0)
    report = QueryEngine(world.peb, prefetch_policy="merge").execute_batch(specs)
    stats = report.stats
    assert stats.entries_prefetched > 0
    assert 0 <= stats.dead_entries <= stats.entries_prefetched
    assert stats.overscan_ratio == pytest.approx(
        stats.dead_entries / stats.entries_prefetched
    )
    assert stats.memo_evictions == 0  # default bound never evicts here
    assert stats.seeks == 0 and stats.sequential_hits == 0  # untimed tree


@pytest.mark.parametrize("n_shards", (1, 4))
def test_lean_dead_entry_total_equals_the_finalized_outcomes(world, n_shards):
    """The executor reports the scanner's lean total and finalizes
    ``stratum_outcomes()`` only for a policy; the two must agree."""
    specs = world.query_generator().mixed_queries(world.states, 16, 300.0, 3, 5.0)
    if n_shards == 1:
        engine = QueryEngine(world.peb)
    else:
        sharded = ShardedPEBTree.build(
            n_shards, world.grid, world.partitioner, world.store, uids=world.uids,
            page_size=1024,
        )
        for uid in world.uids:
            sharded.insert(world.states[uid])
        engine = ShardedQueryEngine(sharded)
    # Whole-stratum prefetches ahead of the batch: guaranteed over-scan,
    # so the totals compared below are not all zero.
    full_strata = [
        BandRequest(band.tid, band.sv_lo_q, band.sv_hi_q, 0, world.peb.grid.max_z)
        for band in _stratum_bands(world, n_queries=20)
    ]
    captured = []
    make_scanner = engine._batch_scanner

    def capturing_scanner():
        captured.append(make_scanner())
        captured[-1].prefetch(full_strata)
        return captured[-1]

    engine._batch_scanner = capturing_scanner
    report = engine.execute_batch(specs)
    (scanner,) = captured
    finalized = sum(
        outcome.dead_entries
        for shard_scanner in getattr(scanner, "scanners", [scanner])
        for outcome in shard_scanner.stratum_outcomes().values()
    )
    assert report.stats.dead_entries == scanner.dead_entries == finalized
    assert finalized > 0
    # "merge" is the same coverage under a policy, so the same count.
    engine.prefetch_policy = PrefetchPolicy("merge")
    assert engine.execute_batch(specs).stats.dead_entries == finalized


# ----------------------------------------------------------------------
# Decision machinery units
# ----------------------------------------------------------------------


def _observe(policy, outcome, times=MIN_STRATUM_SAMPLES, scope=0):
    for _ in range(times):
        policy.observe_batch(
            {(scope, outcome.tid, outcome.sv_q): outcome},
            physical_reads=0,
            virtual_time_us=0.0,
            n_requests=1,
        )


def test_mode_strings_validated():
    with pytest.raises(ValueError):
        PrefetchPolicy(mode="bogus")
    with pytest.raises(TypeError):
        PrefetchPolicy.coerce(42, tree=None)
    assert PrefetchPolicy.coerce(None, tree=None) is None


def test_static_modes_ignore_observations():
    merge = PrefetchPolicy(mode="merge")
    exact = PrefetchPolicy(mode="exact")
    firm, spec = [(0, 10)], [(5, 30)]
    assert merge.decide(0, 0, 1, firm, spec) == [(0, 30)]
    assert merge.decide(0, 0, 1, [], []) is None
    assert exact.decide(0, 0, 1, firm, spec) is None


def test_cold_stratum_merges_like_legacy():
    policy = PrefetchPolicy(mode="auto")
    coverage = policy.decide(0, 0, 1, [(0, 10), (200, 210)], [])
    assert coverage == [(0, 10), (200, 210)]  # merged, not coalesced


def test_zero_demand_stratum_flips_to_exact():
    """Prefetched-but-never-requested strata (skip-rule casualties,
    unused probe supersets) are the waste — they must flip."""
    policy = PrefetchPolicy(mode="auto")
    wasted = StratumOutcome(
        tid=0, sv_q=1, coverage_runs=1, coverage_zv=11, prefetched_entries=110
    )
    _observe(policy, wasted)
    assert policy.decide(0, 0, 1, [(0, 10)], []) is None
    assert policy.exact_strata == 1


def test_fully_consumed_stratum_keeps_merging():
    policy = PrefetchPolicy(mode="auto")
    consumed = StratumOutcome(
        tid=0,
        sv_q=1,
        requests=5,
        unique_bands=5,
        requested_zv=11,
        coverage_runs=1,
        coverage_zv=11,
        prefetched_entries=110,
    )
    _observe(policy, consumed)
    # 1 seek for the merged run vs 5 seeks for exact scans of the same
    # entries: merging wins outright.
    assert policy.decide(0, 0, 1, [(0, 10)], []) == [(0, 10)]
    assert policy.merged_strata == 1


def test_gap_coalescing_follows_the_seek_budget():
    # budget = (seek/read) * entries_per_page = 96 dead entries per
    # saved seek under the default pricing.
    sparse = PrefetchPolicy(mode="auto")
    outcome = StratumOutcome(
        tid=0,
        sv_q=1,
        requests=8,
        unique_bands=8,
        requested_zv=22,
        coverage_runs=2,
        coverage_zv=22,
        prefetched_entries=22,  # density 1: the 4-wide gap costs 4 entries
    )
    _observe(sparse, outcome)
    assert sparse.decide(0, 0, 1, [(0, 10), (15, 25)], []) == [(0, 25)]
    assert sparse.coalesced_runs == 1

    dense = PrefetchPolicy(mode="auto")
    outcome = StratumOutcome(
        tid=0,
        sv_q=1,
        requests=8,
        unique_bands=8,
        requested_zv=22,
        coverage_runs=2,
        coverage_zv=22,
        prefetched_entries=2200,  # density 100: the gap costs 400 > 96
    )
    _observe(dense, outcome)
    assert dense.decide(0, 0, 1, [(0, 10), (15, 25)], []) == [
        (0, 10),
        (15, 25),
    ]
    assert dense.coalesced_runs == 0


def test_arm_explores_both_then_exploits_the_cheaper():
    policy = PrefetchPolicy(mode="auto")

    def run_knn_batch(reads):
        policy.begin_batch(0, 4)
        arm = policy._arm_speculative
        policy.observe_batch(
            {}, physical_reads=reads, virtual_time_us=0.0, n_requests=4
        )
        return arm

    assert run_knn_batch(reads=100) is True  # explore on
    assert run_knn_batch(reads=40) is False  # explore off
    assert run_knn_batch(reads=40) is False  # exploit the cheaper arm
    # Range-only batches carry no speculative bands: arm pinned on,
    # nothing scored.
    policy.begin_batch(4, 0)
    assert policy._arm_speculative is True
    snapshot = policy.snapshot()
    assert snapshot["arm_scores"]["off"] < snapshot["arm_scores"]["on"]


def test_losing_arm_is_reexplored_periodically():
    policy = PrefetchPolicy(mode="auto")
    arms = []
    for _ in range(REEXPLORE_EVERY):
        policy.begin_batch(0, 2)
        arms.append(policy._arm_speculative)
        reads = 100 if policy._arm_speculative else 40
        policy.observe_batch(
            {}, physical_reads=reads, virtual_time_us=0.0, n_requests=2
        )
    assert arms[0] is True and arms[1] is False
    assert all(arm is False for arm in arms[2:-1])  # exploitation
    assert arms[-1] is True  # the REEXPLORE_EVERY-th batch retries on


def test_service_signal_breaks_batch_score_ties():
    policy = PrefetchPolicy(mode="auto")
    for arm, service_us in ((True, 900.0), (False, 300.0)):
        policy.begin_batch(0, 2)
        assert policy._arm_speculative is arm
        policy.observe_batch(
            {}, physical_reads=50, virtual_time_us=0.0, n_requests=2
        )
        policy.observe_service(
            n_range=0,
            n_knn=2,
            n_updates=1,
            service_us=service_us,
            physical_reads=50,
        )
    # Batch scores are a dead heat (same reads/request); the service
    # per-request signal picks the off arm.
    assert policy._best_arm() is False


def test_for_tree_prices_from_the_device_profile(world):
    policy = PrefetchPolicy.for_tree(world.peb)
    # Untimed tree: default pricing, real leaf capacity.
    assert policy.cost.entries_per_page == float(
        world.peb.btree.config.leaf_capacity
    )

    class FakeProfile:
        seek_us = 8000.0
        read_us = 30.0

    class FakeModel:
        profile = FakeProfile()

    class FakeTree:
        latency_model = FakeModel()

    hdd = PrefetchPolicy.for_tree(FakeTree())
    assert hdd.cost.seek_us == 8000.0
    assert hdd.cost.read_us == 30.0


def test_snapshot_reports_decision_state():
    policy = PrefetchPolicy(mode="auto")
    snapshot = policy.snapshot()
    assert snapshot["mode"] == "auto"
    for key in (
        "knn_share",
        "arm_speculative",
        "arm_scores",
        "strata_tracked",
        "merged_strata",
        "exact_strata",
        "coalesced_runs",
    ):
        assert key in snapshot
