"""Tests for the unified query engine: planner, scanner, batch executor."""

import random

import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.aggregate import pcount, pdensity_grid
from repro.core.pknn import plan_pknn, pknn
from repro.core.prq import prq
from repro.engine import BandScanner, ExecutionStats, QueryEngine
from repro.engine.plan import BandRequest, QueryPlanner
from repro.policy.timeset import fold
from repro.spatial.decompose import merge_intervals
from repro.spatial.geometry import Rect
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world
from tests.test_engine_property import admissible_friends
from tests.test_shard_property import build_sharded


class OnDemandScanner(BandScanner):
    """The shipped scanner with nothing prefetched: every band on demand."""

    def prefetch(self, bands, clock=None):
        pass


class OnDemandEngine(QueryEngine):
    def new_scanner(self):
        return OnDemandScanner(self.tree)


def knn_bands(engine, spec):
    """The point bands a batch plans for one kNN spec."""
    plan = plan_pknn(engine.planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)
    return [planned.band for planned in plan.bands]


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


def test_plan_range_orders_bands_partition_major(small_world):
    world = small_world
    tree = world.peb
    engine = QueryEngine(tree)
    issuer = world.uids[5]
    window = Rect(100, 400, 100, 400)
    plan = engine.planner.plan_range(issuer, window, 5.0)

    # The friends a policy can admit in the window at t = 5 ...
    admissible = admissible_friends(world.store, issuer, window, 5.0)
    assert 0 < len(admissible) < len(world.store.friend_list(issuer))
    assert len(plan.contexts) == len(world.partitioner.live_labels(5.0))
    # ... of whom the plan keeps those whose live key lies in a live
    # partition, on a cell inside that partition's enlarged window, and
    # gives each one point band at its live key (and no band to anyone
    # else), partition-major, SV-ascending.
    boxes = {
        context.tid: world.grid.cell_box(context.enlarged(window))
        for context in plan.contexts
    }
    friends, expected = [], []
    for sv, uid in admissible:
        tid, sv_q, zv = tree.codec.decompose(tree.live_key(uid))
        ix, iy = world.grid.curve.decode(zv, world.grid.bits)
        box = boxes.get(tid)
        if box and box[0] <= ix <= box[1] and box[2] <= iy <= box[3]:
            friends.append((sv, uid))
            expected.append((uid, BandRequest(tid, sv_q, sv_q, zv, zv)))
    assert 0 < len(friends) < len(admissible)
    assert plan.friends == friends
    # The map holds only those friends, with the regions that meet the
    # window of their time-admitting policies.
    instant = fold(5.0, world.store.time_domain)
    assert plan.visible == {
        uid: tuple(
            (p.locr.x_lo, p.locr.x_hi, p.locr.y_lo, p.locr.y_hi)
            for p in world.store.policies_for(uid, issuer)
            if p.tint.contains(instant) and p.locr.intersects(window)
        )
        for _, uid in friends
    }
    assert [tuple(planned) for planned in plan.bands] == sorted(
        expected, key=lambda banded: banded[1]
    )
    keys = [(b.band.tid, b.band.sv_lo_q) for b in plan.bands]
    assert keys == sorted(keys)


def test_plan_range_without_friends_is_empty(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    stranger = max(world.uids) + 1000
    plan = engine.planner.plan_range(stranger, Rect(0, 1000, 0, 1000), 5.0)
    assert plan.bands == []
    assert plan.friends == []


def test_contexts_are_kept_per_query_time_and_speed_maxima(small_world):
    """The planner keeps its last contexts, keyed on the query time and
    both speed maxima (an update raises them), and every call and plan
    gets a list of its own."""
    tree = small_world.peb
    planner = QueryPlanner(tree)

    def expected(t_query):
        return [
            (
                tree.partitioner.partition_of_label(label),
                label,
                tree.max_speed_x * abs(label - t_query),
                tree.max_speed_y * abs(label - t_query),
            )
            for label in tree.partitioner.live_labels(t_query)
        ]

    def fields(contexts):
        return [(c.tid, c.label, c.dx, c.dy) for c in contexts]

    first = planner.contexts(5.0)
    again = planner.contexts(5.0)
    assert fields(first) == fields(again) == expected(5.0)
    assert first is not again
    first.clear()
    assert fields(planner.contexts(5.0)) == expected(5.0)
    window = Rect(100, 400, 100, 400)
    plans = [planner.plan_range(small_world.uids[5], window, 5.0) for _ in range(2)]
    assert plans[0].contexts is not plans[1].contexts
    assert fields(planner.contexts(65.0)) == expected(65.0)
    speeds = tree.max_speed_x, tree.max_speed_y
    try:
        for raised in ((speeds[0] + 1.0, speeds[1]), (speeds[0] + 1.0, speeds[1] + 2.0)):
            tree.max_speed_x, tree.max_speed_y = raised
            assert fields(planner.contexts(65.0)) == expected(65.0)
    finally:
        tree.max_speed_x, tree.max_speed_y = speeds
    assert fields(planner.contexts(65.0)) == expected(65.0)


def test_plan_seed_covers_all_partitions(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[0]
    plan = engine.planner.plan_seed(issuer)
    friends = world.store.friend_list(issuer)
    assert len(plan.bands) == world.partitioner.num_partitions * len(friends)
    for planned in plan.bands:
        assert planned.band.z_lo == 0
        assert planned.band.z_hi == world.grid.max_z


# ----------------------------------------------------------------------
# Band scanner
# ----------------------------------------------------------------------


def test_scanner_serves_identical_bands_from_residency(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[2]
    sv, _ = world.store.friend_list(issuer)[0]
    band = engine.planner.band(0, sv, 0, world.grid.max_z)

    scanner = BandScanner(world.peb)
    first = scanner.scan(band)
    second = scanner.scan(band)
    assert first == second
    assert scanner.physical_scans == 1
    # A single-SV band is answered from its stratum's residency ...
    assert scanner.residency_hits == 1
    assert scanner.requests == 2

    # ... a multi-SV span, which no residency can serve, from the tree.
    span = BandRequest(0, band.sv_lo_q, band.sv_lo_q + 1, 0, world.grid.max_z)
    assert scanner.scan(span) == scanner.scan(span)
    assert scanner.physical_scans == 3
    assert scanner.residency_hits == 1 and scanner.requests == 4


def test_scanner_entries_match_direct_tree_scan(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[7]
    scanner = BandScanner(world.peb)
    for sv, _ in world.store.friend_list(issuer)[:5]:
        band = engine.planner.band(1, sv, 0, world.grid.max_z)
        scanned = [obj.uid for _, obj in scanner.scan(band)]
        direct = [
            obj.uid
            for obj in world.peb.scan_sv_zrange(1, sv, 0, world.grid.max_z)
        ]
        assert scanned == direct


def test_prefetch_serves_contained_requests_without_new_scans(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[4]
    window_a = Rect(100, 400, 100, 400)
    window_b = Rect(200, 500, 200, 500)  # overlaps window_a
    plan_a = engine.planner.plan_range(issuer, window_a, 5.0)
    plan_b = engine.planner.plan_range(issuer, window_b, 5.0)

    scanner = BandScanner(world.peb)
    scanner.prefetch(
        planned.band for plan in (plan_a, plan_b) for planned in plan.bands
    )
    after_prefetch = scanner.physical_scans
    assert after_prefetch > 0
    for plan in (plan_a, plan_b):
        for planned in plan.bands:
            scanner.scan(planned.band)
    assert scanner.physical_scans == after_prefetch
    assert scanner.residency_hits > 0


def test_prefetch_store_returns_exact_band_contents(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[9]
    window = Rect(50, 650, 50, 650)
    plan = engine.planner.plan_range(issuer, window, 5.0)

    prefetched = BandScanner(world.peb)
    prefetched.prefetch(planned.band for planned in plan.bands)
    fresh = BandScanner(world.peb)
    for planned in plan.bands:
        served = prefetched.scan(planned.band)
        scanned = fresh.scan(planned.band)
        assert [(zv, obj.uid) for zv, obj in served] == [
            (zv, obj.uid) for zv, obj in scanned
        ]


# ----------------------------------------------------------------------
# Single-query execution
# ----------------------------------------------------------------------


def test_execute_range_matches_brute_force(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    for query in world.query_generator().range_queries(world.uids, 15, 300.0, 5.0):
        found = []
        engine.execute_range(
            query.q_uid,
            query.window,
            query.t_query,
            lambda obj, x, y: found.append(obj.uid) or False,
        )
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, query.t_query
        )
        assert set(found) == expected


def test_execute_range_stops_early_on_match_request(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    window = Rect(0, 1000, 0, 1000)
    issuer = next(
        uid
        for uid in world.uids
        if brute_force_prq(world.states, world.store, uid, window, 5.0)
    )
    execution = engine.execute_range(issuer, window, 5.0, lambda o, x, y: True)
    assert execution.stopped_early
    full = engine.execute_range(issuer, window, 5.0)
    assert not full.stopped_early
    assert execution.candidates_examined <= full.candidates_examined


def test_execution_stats_account_bands(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[11]
    scanner = engine.new_scanner()
    execution = engine.execute_range(
        issuer, Rect(0, 1000, 0, 1000), 5.0, scanner=scanner
    )
    stats = ExecutionStats(
        bands_requested=scanner.requests,
        bands_scanned=scanner.physical_scans,
        bands_deduped=scanner.residency_hits,
        candidates_examined=execution.candidates_examined,
    )
    # Requests are the planned bands minus those the skip rule dropped.
    assert 0 < stats.bands_requested <= len(
        engine.planner.plan_range(issuer, Rect(0, 1000, 0, 1000), 5.0).bands
    )
    # With a fresh scanner every request is either physical or deduped.
    assert stats.bands_scanned + stats.bands_deduped == stats.bands_requested
    assert stats.candidates_examined == execution.candidates_examined
    assert 0.0 <= stats.dedup_ratio <= 1.0


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------


def test_batch_results_identical_to_individual_runs(small_world):
    world = small_world
    specs = world.query_generator().range_queries(world.uids, 24, 250.0, 5.0)
    engine = QueryEngine(world.peb)
    report = engine.execute_batch(specs)
    assert len(report.results) == len(specs)
    for spec, batched in zip(specs, report.results):
        single = prq(world.peb, spec.q_uid, spec.window, spec.t_query)
        assert batched.uids == single.uids
        assert batched.candidates_examined == single.candidates_examined


def test_batch_mixed_specs_match_individual_runs(small_world):
    world = small_world
    generator = world.query_generator()
    specs = generator.mixed_queries(world.states, 16, 300.0, 3, 5.0)
    assert any(isinstance(spec, RangeQuerySpec) for spec in specs)
    assert any(isinstance(spec, KnnQuerySpec) for spec in specs)

    report = QueryEngine(world.peb).execute_batch(specs)
    for spec, batched in zip(specs, report.results):
        if isinstance(spec, RangeQuerySpec):
            single = prq(world.peb, spec.q_uid, spec.window, spec.t_query)
            assert batched.uids == single.uids
        else:
            single = pknn(
                world.peb, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
            )
            assert [round(d, 9) for d, _ in batched.neighbors] == [
                round(d, 9) for d, _ in single.neighbors
            ]


def test_batch_knn_matches_brute_force(small_world):
    world = small_world
    specs = world.query_generator().knn_queries(world.states, 8, 4, 5.0)
    report = QueryEngine(world.peb).execute_batch(specs)
    for spec, batched in zip(specs, report.results):
        expected = brute_force_pknn(
            world.states, world.store, spec.q_uid, spec.qx, spec.qy, spec.k,
            spec.t_query,
        )
        assert [round(d, 9) for d, _ in batched.neighbors] == [
            round(d, 9) for d, _ in expected
        ]


def test_batch_knn_bands_join_the_prefetch_set(small_world):
    """A kNN spec's point bands are prefetched with the batch, so its
    replay reads no page: every request is a residency hit, with the
    results, candidates and requests of on-demand scanning."""
    world = small_world
    specs = world.query_generator().knn_queries(world.states, 12, 4, 5.0)
    engine = QueryEngine(world.peb)
    plain = OnDemandEngine(world.peb).execute_batch(specs)
    prefetched = engine.execute_batch(specs)
    for expected, got in zip(plain.results, prefetched.results):
        assert [(d, obj.uid) for d, obj in got.neighbors] == [
            (d, obj.uid) for d, obj in expected.neighbors
        ]
        assert got.candidates_examined == expected.candidates_examined
    assert prefetched.stats.bands_requested == plain.stats.bands_requested > 0
    assert plain.stats.entries_prefetched == 0
    assert (
        plain.stats.bands_scanned + plain.stats.bands_deduped
        == plain.stats.bands_requested
    )
    assert prefetched.stats.entries_prefetched > 0
    assert prefetched.stats.bands_deduped == prefetched.stats.bands_requested


def test_knn_plan_names_each_visible_friend_at_its_live_key(small_world):
    """At most one point band per friend with a policy that holds at
    t_query, at the key the update memo holds for it, in key order; the
    oracle's k nearest are all banded, some visible friend is not, and
    every band returns its friend's row."""
    world = small_world
    engine = QueryEngine(world.peb)
    codec = world.peb.codec
    pruned = 0
    for spec in world.query_generator().knn_queries(world.states, 6, 3, 5.0):
        plan = plan_pknn(
            engine.planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
        )
        bands = [planned.band for planned in plan.bands]
        friends = admissible_friends(world.store, spec.q_uid, None, 5.0)
        at_live_key = {}
        for _, uid in friends:
            tid, sv_q, zv = codec.decompose(world.peb._live_keys[uid])
            at_live_key[uid] = BandRequest(tid, sv_q, sv_q, zv, zv)
        assert all(at_live_key[p.friend_uid] == p.band for p in plan.bands)
        assert bands == sorted(bands)
        nearest = brute_force_pknn(
            world.states, world.store, spec.q_uid, spec.qx, spec.qy, spec.k, 5.0
        )
        assert {uid for _, uid in nearest} <= {p.friend_uid for p in plan.bands}
        pruned += len(friends) - len(bands)
        scanner = BandScanner(world.peb)
        for band in bands:
            assert any(
                codec.compose_quantized(band.tid, band.sv_lo_q, band.z_lo)
                == world.peb._live_keys[rec[0]]
                for rec in scanner.scan(band).records
            )
    assert pruned > 0
    # k = 0 plans nothing.
    zero = KnnQuerySpec(q_uid=world.uids[0], qx=500.0, qy=500.0, k=0, t_query=5.0)
    assert knn_bands(engine, zero) == []


def test_batch_rejects_unknown_spec_types(small_world):
    engine = QueryEngine(small_world.peb)
    with pytest.raises(TypeError):
        engine.execute_batch(["not a query spec"])


def test_batch_rejects_a_negative_k_before_any_read(small_world):
    """The bad spec sits behind a good one: nothing of the batch may
    have been scanned or counted when it is refused."""
    world = small_world
    engine = QueryEngine(world.peb)
    good = world.query_generator().range_queries(world.uids, 1, 300.0, 5.0)[0]
    bad = KnnQuerySpec(q_uid=world.uids[0], qx=500.0, qy=500.0, k=-1, t_query=5.0)
    stats = world.peb.stats
    before = (stats.logical_reads, stats.physical_reads)
    with pytest.raises(ValueError, match="k must be >= 0"):
        engine.execute_batch([good, bad])
    assert (stats.logical_reads, stats.physical_reads) == before
    # k = 0 stays the empty answer, not an error.
    zero = KnnQuerySpec(q_uid=world.uids[0], qx=500.0, qy=500.0, k=0, t_query=5.0)
    (result,) = engine.execute_batch([zero]).results
    assert result.neighbors == []


@pytest.mark.parametrize(
    "field, value",
    [("qx", float("nan")), ("qy", float("inf")), ("t_query", float("nan"))],
)
def test_batch_rejects_a_non_finite_knn_spec_before_any_read(
    small_world, field, value
):
    world = small_world
    engine = QueryEngine(world.peb)
    good = RangeQuerySpec(world.uids[0], Rect(100, 400, 100, 400), 5.0)
    arguments = dict(q_uid=world.uids[0], qx=500.0, qy=500.0, k=3, t_query=5.0)
    arguments[field] = value
    stats = world.peb.stats
    before = (stats.logical_reads, stats.physical_reads)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        engine.execute_batch([good, KnnQuerySpec(**arguments)])
    assert (stats.logical_reads, stats.physical_reads) == before


RANGE_ENTRY_POINTS = {
    "prq": lambda tree, uid, window, t: prq(tree, uid, window, t),
    "pcount": lambda tree, uid, window, t: pcount(tree, uid, window, t),
    "at_least": lambda tree, uid, window, t: pcount(tree, uid, window, t, 1),
    "pdensity_grid": lambda tree, uid, window, t: pdensity_grid(tree, uid, window, t),
    "execute_batch": lambda tree, uid, window, t: QueryEngine(tree).execute_batch(
        [
            RangeQuerySpec(uid, window, 5.0),
            RangeQuerySpec(uid, window, t),
        ]
    ),
}


@pytest.mark.parametrize("t_query", (float("nan"), float("inf"), float("-inf")))
@pytest.mark.parametrize("entry", sorted(RANGE_ENTRY_POINTS))
def test_a_non_finite_range_t_query_is_refused_before_any_read(
    small_world, entry, t_query
):
    """A NaN instant satisfies no policy, so a policy-aware plan would
    drop every friend and answer empty: every range entry point names
    the field instead, before anything is planned or read."""
    world = small_world
    stats = world.peb.stats
    before = (stats.logical_reads, stats.physical_reads)
    with pytest.raises(ValueError, match="t_query must be finite"):
        RANGE_ENTRY_POINTS[entry](
            world.peb, world.uids[0], Rect(100, 400, 100, 400), t_query
        )
    assert (stats.logical_reads, stats.physical_reads) == before


def test_batch_without_prefetch_still_deduplicates(small_world):
    world = small_world
    engine = OnDemandEngine(world.peb)
    # The world's one query stream is shared by the session, so which
    # spec comes next depends on the tests run before; a plan banding
    # nobody (no friend's cell can reach its window) has nothing to
    # share, so take the first that bands someone.
    spec = next(
        spec
        for spec in world.query_generator().range_queries(world.uids, 50, 300.0, 5.0)
        if engine.planner.plan_range(spec.q_uid, spec.window, spec.t_query).bands
    )
    report = engine.execute_batch([spec, spec, spec])
    assert report.stats.bands_deduped > 0
    uids = {frozenset(result.uids) for result in report.results}
    assert len(uids) == 1


def test_batch_on_zv_first_tree_matches_individual_runs():
    """Prefetch must no-op on non-SV-major layouts: subdividing a
    ZV-first scan by ZV would return entries a direct scan excludes.
    Batch results (and candidate counts) must match sequential runs on
    the ablation codec too."""
    from repro.core.ablation import make_zv_first_tree
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk

    world = build_world(n_users=200, n_policies=8, seed=47)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    swapped = make_zv_first_tree(pool, world.grid, world.partitioner, world.store)
    for obj in world.states.values():
        swapped.insert(obj)

    specs = world.query_generator().range_queries(world.uids, 12, 300.0, 5.0)
    report = QueryEngine(swapped).execute_batch(specs)
    for spec, batched in zip(specs, report.results):
        single = prq(swapped, spec.q_uid, spec.window, spec.t_query)
        assert batched.uids == single.uids
        assert batched.candidates_examined == single.candidates_examined


def test_batch_of_32_reduces_physical_reads_per_query():
    """The acceptance headline: >= 32 concurrent PRQs batched read at
    most 1.6 pages a query (2.78 while a range plan banded every friend
    over the window's span), no more than one-at-a-time, and exactly
    the distinct pages the batch touches — each page once — with
    identical result sets (checked inside run_batched_prq).  A range
    plan fetches each friend whose cell can reach the window at its
    live key, so one-at-a-time may already read that floor; the
    key-ordered prefetch sweep is what keeps a batch on it."""
    harness = ExperimentHarness(
        ExperimentConfig(
            n_users=1500,
            n_policies=12,
            n_queries=32,
            page_size=1024,
            window_side=250.0,
            seed=13,
        )
    )
    costs = harness.run_batched_prq()
    assert costs.n_queries == 32
    assert costs.batched_io <= 1.6
    assert costs.batched_io <= costs.sequential_io
    assert costs.batched_io == costs.distinct_io


# ----------------------------------------------------------------------
# Seeding (continuous registration) through the engine
# ----------------------------------------------------------------------


def test_collect_friend_states_tracks_exactly_the_indexed_friends(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    for issuer in world.uids[:10]:
        tracked = engine.collect_friend_states(issuer)
        friends = {uid for _, uid in world.store.friend_list(issuer)}
        indexed_friends = {uid for uid in friends if world.peb.contains(uid)}
        assert set(tracked) == indexed_friends
        for uid, obj in tracked.items():
            assert obj.uid == uid


# ----------------------------------------------------------------------
# The prefetch rule: the merged union of the batch's single-SV bands
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_world():
    return build_world(n_users=220, n_policies=8, seed=29)


def _batch_engine(world, n_shards):
    """``(engine, shard trees)`` over the world's users, 1 or N shards."""
    if n_shards == 1:
        return QueryEngine(world.peb), [world.peb]
    sharded = build_sharded(world, n_shards)
    return QueryEngine(sharded), sharded.trees


def _record_sweeps(trees):
    """Log, per tree, the runs of every ``scan_bands_rows`` call that is
    not the inside of a one-band on-demand ``scan_band_rows``."""
    sweeps = [[] for _ in trees]
    for tree, log in zip(trees, sweeps):
        on_demand = []

        def sweep(runs, inner=tree.scan_bands_rows, log=log, on_demand=on_demand):
            runs = list(runs)
            if not on_demand:
                log.append(runs)
            return inner(runs)

        def one_band(*band, inner=tree.scan_band_rows, on_demand=on_demand):
            on_demand.append(band)
            try:
                return inner(*band)
            finally:
                on_demand.pop()

        tree.scan_bands_rows = sweep
        tree.scan_band_rows = one_band
    return sweeps


@pytest.mark.parametrize("n_shards", (1, 4))
def test_a_batch_prefetches_the_merged_union_of_its_single_sv_bands(
    batch_world, n_shards
):
    """The one prefetch rule: per stratum, ``merge_intervals`` over every
    single-SV range-plan band and kNN point band of the batch; strata
    ascending by key; each run handed to the tree once, in one sweep
    per tree."""
    world = batch_world
    engine, trees = _batch_engine(world, n_shards)
    specs = world.query_generator().mixed_queries(world.states, 16, 300.0, 3, 5.0)
    planner = engine.planner
    range_bands = [
        planned.band
        for spec in specs
        if isinstance(spec, RangeQuerySpec)
        for planned in planner.plan_range(spec.q_uid, spec.window, spec.t_query).bands
    ]
    point_bands = [
        band
        for spec in specs
        if isinstance(spec, KnnQuerySpec)
        for band in knn_bands(engine, spec)
    ]
    assert range_bands and point_bands  # both kinds contribute
    bands = sorted(range_bands + point_bands)
    router = getattr(engine.tree, "router", None)  # a single tree has none
    expected = [{} for _ in trees]  # per tree: stratum -> intervals, insertion-ordered
    for band in bands:
        if band.is_single_sv:
            shard = router.shard_of(band.sv_lo_q) if router else 0
            expected[shard].setdefault((band.tid, band.sv_lo_q), []).append(
                (band.z_lo, band.z_hi)
            )
    expected_runs = [
        [
            (tid, sv_q, z_lo, z_hi)
            for (tid, sv_q), intervals in strata.items()
            for z_lo, z_hi in merge_intervals(sorted(intervals))
        ]
        for strata in expected
    ]
    assert any(
        len(intervals) > len(merge_intervals(sorted(intervals)))
        for strata in expected
        for intervals in strata.values()
    )  # something really merged

    sweeps = _record_sweeps(trees)
    engine.execute_batch(specs)
    assert sweeps == [[runs] if runs else [] for runs in expected_runs]
    for runs in expected_runs:
        assert len(set(runs)) == len(runs)

    # Range plans are static: replay finds every band resident, so the
    # prefetch runs are all the physical scans a range-only batch makes.
    ranges = [spec for spec in specs if isinstance(spec, RangeQuerySpec)]
    for log in sweeps:
        log.clear()
    report = engine.execute_batch(ranges)
    assert all(len(log) <= 1 for log in sweeps)
    assert report.stats.bands_scanned == sum(
        len(runs) for log in sweeps for runs in log
    )
    assert report.stats.bands_deduped == report.stats.bands_requested > 0


# ----------------------------------------------------------------------
# Residency serves single-SV bands; every other band is a plain scan
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
    """Multi-SV span bands (Figure 7's coarse friend-range scans), which
    no stratum residency can serve."""
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


def test_span_bands_are_plain_scans_that_match_the_tree(batch_world):
    world = batch_world
    bands = _span_bands(world)
    assert bands
    scanner = BandScanner(world.peb)
    # Two passes: a repeated span reaches the tree again, and answers
    # exactly what the tree's own band scan answers.
    for _ in range(2):
        for band in bands:
            assert _rows_signature(scanner.scan(band)) == [
                (zv, obj.uid) for zv, obj in world.peb.scan_band(*band)
            ]
    assert scanner.physical_scans == scanner.requests == 2 * len(bands)
    assert scanner.residency_hits == 0


def test_repeated_single_sv_bands_are_served_from_residency(batch_world):
    world = batch_world
    bands = _stratum_bands(world)
    assert bands
    scanner = BandScanner(world.peb)
    first = [_rows_signature(scanner.scan(band)) for band in bands]
    scans_after_first = scanner.physical_scans
    hits_after_first = scanner.residency_hits
    second = [_rows_signature(scanner.scan(band)) for band in bands]
    assert second == first
    # The second pass was answered entirely from residency.
    assert scanner.physical_scans == scans_after_first
    assert scanner.residency_hits == hits_after_first + len(bands)
    assert scanner.requests == 2 * len(bands)


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


def test_a_narrow_band_over_a_prefetched_stratum_serves_only_its_rows(
    batch_world,
):
    world = batch_world
    band, full, rows = _populated_stratum(world)
    first_zv = rows[0][0]
    scanner = BandScanner(world.peb)
    scanner.prefetch([full])
    assert scanner.physical_scans == 1
    assert scanner.entries_prefetched == len(rows)
    narrow = BandRequest(
        band.tid, band.sv_lo_q, band.sv_hi_q, first_zv, first_zv
    )
    served = scanner.scan(narrow)
    assert _rows_signature(served) == [r for r in rows if r[0] == first_zv]
    assert scanner.residency_hits == 1
    assert scanner.physical_scans == 1  # the prefetch run proved it


def _answers(specs, report):
    """Each result's answer and candidate count, in spec order."""
    answers = []
    for spec, result in zip(specs, report.results):
        if isinstance(spec, RangeQuerySpec):
            answer = sorted(result.uids)
        else:
            answer = [(round(d, 9), obj.uid) for d, obj in result.neighbors]
        answers.append((answer, result.candidates_examined))
    return answers


@pytest.mark.parametrize("n_shards", (1, 4))
def test_whole_stratum_prefetch_never_changes_a_batch(batch_world, n_shards):
    """Strata prefetched whole ahead of a batch hold rows no band asks
    for; residency serves each band only the rows inside its interval,
    so every answer and candidate count is the cold scanner's."""
    world = batch_world
    specs = world.query_generator().mixed_queries(world.states, 16, 300.0, 3, 5.0)
    cold_engine, _ = _batch_engine(world, n_shards)
    cold = cold_engine.execute_batch(specs)

    engine, _ = _batch_engine(world, n_shards)
    full_strata = [
        BandRequest(band.tid, band.sv_lo_q, band.sv_hi_q, 0, world.peb.grid.max_z)
        for band in _stratum_bands(world, n_queries=20)
    ]
    make_scanner = engine.new_scanner

    def warmed_scanner():
        scanner = make_scanner()
        scanner.prefetch(full_strata)
        return scanner

    engine.new_scanner = warmed_scanner
    warmed = engine.execute_batch(specs)
    assert _answers(specs, warmed) == _answers(specs, cold)
    assert warmed.stats.entries_prefetched > cold.stats.entries_prefetched


# ----------------------------------------------------------------------
# Prefetch accounting
# ----------------------------------------------------------------------


def test_execution_stats_surface_prefetch_accounting(batch_world):
    world = batch_world
    generator = world.query_generator()
    specs = generator.mixed_queries(world.states, 16, 300.0, 3, 5.0)
    report = QueryEngine(world.peb).execute_batch(specs)
    stats = report.stats
    assert stats.entries_prefetched > 0
    # Declared for the perf ledger only: no scanner counts either.
    assert stats.dead_entries == stats.memo_evictions == 0
    assert stats.seeks == 0 and stats.sequential_hits == 0  # untimed tree
