"""Tests for the unified query engine: planner, scanner, batch executor."""

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.aggregate import pcount, pdensity_grid
from repro.core.peb_key import PEBKeyCodec
from repro.core.pknn import plan_pknn, pknn
from repro.core.prq import prq
from repro.engine import BandScanner, ExecutionStats, QueryEngine
from repro.engine.plan import BandRequest, QueryPlanner
from repro.policy.timeset import fold
from repro.spatial.geometry import Rect
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world
from tests.test_engine_property import admissible_friends
from tests.test_shard_property import build_sharded


class OnDemandScanner(BandScanner):
    """The shipped scanner with nothing prefetched: every key on demand."""

    def prefetch(self, keys, clock=None):
        pass


class OnDemandEngine(QueryEngine):
    def new_scanner(self):
        return OnDemandScanner(self.tree)


def knn_bands(engine, spec):
    """The ``(live key, uid)`` pairs a batch plans for one kNN spec."""
    return plan_pknn(
        engine.planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
    ).bands


def plan_keys(plans):
    """The distinct keys of ``plans``, ascending: a batch's multi-get."""
    return sorted({key for plan in plans for key, _ in plan.bands})


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
    contexts = engine.planner.contexts(5.0)
    assert len(contexts) == len(world.partitioner.live_labels(5.0))
    # ... of whom the plan keeps those whose live key lies in a live
    # partition, on a cell inside that partition's enlarged window, and
    # plans each at its live key (and no one else), in key order:
    # partition-major, SV-ascending.
    boxes = {
        context.tid: world.grid.cell_box(context.enlarged(window))
        for context in contexts
    }
    friends, expected = [], []
    for sv, uid in admissible:
        key = tree.live_key(uid)
        tid, sv_q, zv = tree.codec.decompose(key)
        ix, iy = world.grid.curve.decode(zv, world.grid.bits)
        box = boxes.get(tid)
        if box and box[0] <= ix <= box[1] and box[2] <= iy <= box[3]:
            friends.append((sv, uid))
            expected.append(((tid, sv_q, zv), key, uid))
    assert 0 < len(friends) < len(admissible)
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
    assert plan.bands == [(key, uid) for _, key, uid in sorted(expected)]


def test_plan_range_without_friends_is_empty(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    stranger = max(world.uids) + 1000
    plan = engine.planner.plan_range(stranger, Rect(0, 1000, 0, 1000), 5.0)
    assert plan.bands == []
    assert plan.visible == {}


def test_contexts_are_kept_per_query_time_and_speed_maxima(small_world):
    """The planner keeps its last contexts, keyed on the query time and
    both speed maxima (an update raises them), and every call gets a
    list of its own."""
    tree = small_world.peb
    planner = QueryPlanner(tree)

    def expected(t_query):
        return [
            (
                tree.partitioner.partition_of_label(label),
                label,
                tree.live.max_speed_x * abs(label - t_query),
                tree.live.max_speed_y * abs(label - t_query),
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
    assert fields(planner.contexts(65.0)) == expected(65.0)
    speeds = tree.live.max_speed_x, tree.live.max_speed_y
    try:
        for raised in ((speeds[0] + 1.0, speeds[1]), (speeds[0] + 1.0, speeds[1] + 2.0)):
            tree.live.max_speed_x, tree.live.max_speed_y = raised
            assert fields(planner.contexts(65.0)) == expected(65.0)
    finally:
        tree.live.max_speed_x, tree.live.max_speed_y = speeds
    assert fields(planner.contexts(65.0)) == expected(65.0)


def test_plan_seed_covers_all_partitions(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[0]
    plan = engine.planner.plan_seed(issuer)
    friends = world.store.friend_list(issuer)
    assert len(plan) == world.partitioner.num_partitions * len(friends)
    assert [uid for uid, _ in plan] == [
        uid for _ in range(world.partitioner.num_partitions) for _, uid in friends
    ]
    for _, band in plan:
        assert band.is_single_sv
        assert band.z_lo == 0
        assert band.z_hi == world.grid.max_z


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
    scanner.prefetch(plan_keys((plan_a, plan_b)))
    after_prefetch = scanner.physical_scans
    assert after_prefetch > 0
    fetches = 0
    for plan in (plan_a, plan_b):
        for key, _ in plan.bands:
            scanner.fetch(key)
            fetches += 1
    assert scanner.physical_scans == after_prefetch
    assert scanner.residency_hits == scanner.requests == fetches > 0


def test_an_unfetched_key_is_fetched_once_then_held(small_world):
    """A key no prefetch fetched costs one physical fetch, with the rows
    of its point band; asked again, it is answered from what was held."""
    world = small_world
    plan = QueryPlanner(world.peb).plan_range(world.uids[9], Rect(50, 650, 50, 650), 5.0)
    assert plan.bands
    scanner = BandScanner(world.peb)
    for key, _ in plan.bands:
        tid, sv_q, zv = world.peb.codec.decompose(key)
        rows = scanner.fetch(key)
        assert rows == world.peb.scan_band_rows(tid, sv_q, sv_q, zv, zv)
        assert scanner.fetch(key) is rows
    distinct = len({key for key, _ in plan.bands})
    assert scanner.physical_scans == distinct
    assert scanner.requests == 2 * len(plan.bands)
    assert scanner.residency_hits == 2 * len(plan.bands) - distinct
    assert scanner.entries_prefetched == 0


def test_prefetch_store_returns_exact_band_contents(small_world):
    world = small_world
    engine = QueryEngine(world.peb)
    issuer = world.uids[9]
    window = Rect(50, 650, 50, 650)
    plan = engine.planner.plan_range(issuer, window, 5.0)

    prefetched = BandScanner(world.peb)
    prefetched.prefetch(plan_keys((plan,)))
    fresh = BandScanner(world.peb)
    for key, _ in plan.bands:
        tid, sv_q, zv = world.peb.codec.decompose(key)
        served = prefetched.fetch(key)
        scanned = fresh.scan(BandRequest(tid, sv_q, sv_q, zv, zv))
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
    # Requests are the planned keys minus those the skip rule dropped.
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
    """A kNN spec's keys are prefetched with the batch, so its replay
    reads no page: every request is answered from what was fetched,
    with the results, candidates and requests of on-demand fetching."""
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
    """At most one key per friend with a policy that holds at t_query,
    the key the update memo holds for it, in key order; the oracle's k
    nearest are all planned, some visible friend is not, and every key
    returns its friend's row."""
    world = small_world
    engine = QueryEngine(world.peb)
    pruned = 0
    for spec in world.query_generator().knn_queries(world.states, 6, 3, 5.0):
        plan = plan_pknn(
            engine.planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
        )
        friends = admissible_friends(world.store, spec.q_uid, None, 5.0)
        at_live_key = {uid: world.peb.live.keys[uid] for _, uid in friends}
        assert all(at_live_key[uid] == key for key, uid in plan.bands)
        assert plan.bands == sorted(plan.bands)
        assert len({uid for _, uid in plan.bands}) == len(plan.bands)
        nearest = brute_force_pknn(
            world.states, world.store, spec.q_uid, spec.qx, spec.qy, spec.k, 5.0
        )
        assert {uid for _, uid in nearest} <= {uid for _, uid in plan.bands}
        pruned += len(friends) - len(plan.bands)
        scanner = BandScanner(world.peb)
        for key, uid in plan.bands:
            assert uid in [rec[0] for rec in scanner.fetch(key).records]
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
    """A live key is one key on any layout, so the ZV-first ablation
    codec batches as the served layout does: batch results (and
    candidate counts) must match sequential runs there too."""
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
# The prefetch rule: the distinct keys of the batch's plans
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


def _record_fetches(trees):
    """Log, per tree, the keys of every ``get_many`` call, and count the
    on-demand ``scan_band_rows`` calls."""
    fetches = [[] for _ in trees]
    on_demand = []
    for tree, log in zip(trees, fetches):

        def get_many(keys, inner=tree.get_many, log=log):
            keys = list(keys)
            log.append(keys)
            return inner(keys)

        def one_band(*band, inner=tree.scan_band_rows):
            on_demand.append(band)
            return inner(*band)

        tree.get_many = get_many
        tree.scan_band_rows = one_band
    return fetches, on_demand


@contextmanager
def _no_band_spy():
    """Record every :class:`BandRequest` built and every
    ``compose_quantized`` call while the block runs."""
    made = []
    new_band, compose = BandRequest.__new__, PEBKeyCodec.compose_quantized

    def counted_band(cls, *args, **kwargs):
        made.append(("BandRequest", args))
        return new_band(cls, *args, **kwargs)

    def counted_compose(self, *args):
        made.append(("compose_quantized", args))
        return compose(self, *args)

    with mock.patch.object(BandRequest, "__new__", counted_band), mock.patch.object(
        PEBKeyCodec, "compose_quantized", counted_compose
    ):
        yield made


@pytest.mark.parametrize("n_shards", (1, 4))
def test_a_batch_fetches_each_distinct_point_key_once_in_key_order(
    batch_world, n_shards
):
    """The one prefetch rule: the distinct keys of every range plan and
    kNN plan of the batch, ascending, one ``get_many`` call per tree
    (its shard's share on a deployment), and replay reads each key's
    rows from what was fetched.  No band is on the served path: the
    batch, and ``prq``, ``pcount`` and ``pknn`` served alone, build no
    :class:`BandRequest` and compose no key."""
    world = batch_world
    engine, trees = _batch_engine(world, n_shards)
    specs = world.query_generator().mixed_queries(world.states, 16, 300.0, 3, 5.0)
    planner = engine.planner
    range_pairs = [
        pair
        for spec in specs
        if isinstance(spec, RangeQuerySpec)
        for pair in planner.plan_range(spec.q_uid, spec.window, spec.t_query).bands
    ]
    knn_pairs = [
        pair
        for spec in specs
        if isinstance(spec, KnnQuerySpec)
        for pair in knn_bands(engine, spec)
    ]
    assert range_pairs and knn_pairs  # both kinds contribute
    pairs = range_pairs + knn_pairs
    live = world.peb.live.keys
    assert all(live[uid] == key for key, uid in pairs)
    keys = [key for key, _ in pairs]
    assert len(set(keys)) < len(keys)  # two specs really name one key
    router = getattr(engine.tree, "router", None)  # a single tree has none
    expected = [[] for _ in trees]  # per tree: its keys, ascending
    for key in sorted(set(keys)):
        expected[router.shard_of_key(key) if router else 0].append(key)

    fetches, on_demand = _record_fetches(trees)
    with _no_band_spy() as made:
        report = engine.execute_batch(specs)
    assert made == []
    assert fetches == [[share] if share else [] for share in expected]
    assert on_demand == []  # replay reads no band from the tree
    assert report.stats.bands_scanned == len(set(keys))
    assert report.stats.bands_requested == len(pairs)
    assert report.stats.bands_deduped == report.stats.bands_requested
    decompose = world.peb.codec.decompose
    assert report.stats.entries_prefetched == sum(
        len(world.peb.scan_band_rows(tid, sv_q, sv_q, zv, zv))
        for tid, sv_q, zv in map(decompose, set(keys))
    )

    for log in fetches:
        log.clear()
    on_demand.clear()
    with _no_band_spy() as made:
        for spec in specs:
            if isinstance(spec, RangeQuerySpec):
                prq(engine.tree, spec.q_uid, spec.window, spec.t_query)
                pcount(engine.tree, spec.q_uid, spec.window, spec.t_query)
            else:
                pknn(engine.tree, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)
    assert made == []
    assert on_demand == []  # a single query fetches keys, one at a time
    assert all(len(call) == 1 for log in fetches for call in log)


# ----------------------------------------------------------------------
# Residency serves single-SV bands; every other band is a plain scan
# ----------------------------------------------------------------------


def _stratum_bands(world, n_queries=12):
    """The point bands at real range plans' keys, in plan order."""
    planner = QueryPlanner(world.peb)
    decompose = world.peb.codec.decompose
    bands = []
    for spec in world.query_generator().range_queries(
        world.uids, n_queries, 320.0, 5.0
    ):
        plan = planner.plan_range(spec.q_uid, spec.window, spec.t_query)
        for key, _ in plan.bands:
            tid, sv_q, zv = decompose(key)
            bands.append(BandRequest(tid, sv_q, sv_q, zv, zv))
    return bands


def _span_bands(world, n_queries=12):
    """Multi-SV span bands (Figure 7's coarse friend-range scans), which
    no stratum residency can serve."""
    planner = QueryPlanner(world.peb)
    bands = []
    for spec in world.query_generator().range_queries(
        world.uids, n_queries, 320.0, 5.0
    ):
        bands.extend(
            band
            for band in planner.plan_span_scan(spec.q_uid, spec.window, spec.t_query)
            if not band.is_single_sv
        )
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


def test_a_fetched_key_serves_only_its_own_point_band(batch_world):
    """Fetched rows answer ``fetch`` at their key and nothing else: a
    band is not a key, so even the point band at the fetched key goes
    to the tree, and a band over the rest of the stratum, or at a key
    nobody fetched, returns exactly its own rows."""
    world = batch_world
    band, full, rows = _populated_stratum(world)
    first_zv, last_zv = rows[0][0], rows[-1][0]
    assert first_zv != last_zv
    key = world.peb.codec.compose_quantized(band.tid, band.sv_lo_q, first_zv)
    scanner = BandScanner(world.peb)
    scanner.prefetch([key])
    assert scanner.physical_scans == 1
    first = [r for r in rows if r[0] == first_zv]
    assert scanner.entries_prefetched == len(first)
    assert _rows_signature(scanner.fetch(key)) == first
    assert scanner.residency_hits == 1 and scanner.physical_scans == 1
    point = BandRequest(band.tid, band.sv_lo_q, band.sv_hi_q, first_zv, first_zv)
    assert _rows_signature(scanner.scan(point)) == first
    assert scanner.residency_hits == 1 and scanner.physical_scans == 2
    last = BandRequest(band.tid, band.sv_lo_q, band.sv_hi_q, last_zv, last_zv)
    assert _rows_signature(scanner.scan(last)) == [r for r in rows if r[0] == last_zv]
    assert scanner.residency_hits == 1 and scanner.physical_scans == 3
    assert _rows_signature(scanner.scan(full)) == rows


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
def test_a_warm_residency_never_changes_a_batch(batch_world, n_shards):
    """Strata scanned whole ahead of a batch hold rows no key asks for;
    the batch's keys are answered from its own fetched keys, so
    every answer, candidate count and fetched entry is the cold
    scanner's."""
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
        for band in full_strata:
            scanner.scan(band)
        return scanner

    engine.new_scanner = warmed_scanner
    warmed = engine.execute_batch(specs)
    assert _answers(specs, warmed) == _answers(specs, cold)
    assert warmed.stats.entries_prefetched == cold.stats.entries_prefetched > 0


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
