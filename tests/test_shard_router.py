"""Unit tests for the shard routing layer and its stats plumbing."""

import pytest

from repro.core.peb_key import PEBKeyCodec
from repro.engine import QueryEngine, UpdatePipeline
from repro.engine.plan import BandRequest
from repro.motion.objects import MovingObject
from repro.shard import ShardRouter, ShardStats, ShardedPEBTree
from repro.shard.engine import ShardScatterScanner
from repro.storage import BufferPool, IOStats, SimulatedDisk, StatsView, merge_stats

from tests.conftest import build_world

CODEC = PEBKeyCodec(tid_count=3, sv_bits=8, zv_bits=6, sv_scale=1)
MAX_Z = (1 << CODEC.zv_bits) - 1


def make_router(boundaries=(64, 128, 192)):
    return ShardRouter(CODEC, boundaries)


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_shard_of_respects_boundaries():
    router = make_router()
    assert router.n_shards == 4
    assert router.shard_of(0) == 0
    assert router.shard_of(63) == 0
    assert router.shard_of(64) == 1
    assert router.shard_of(191) == 2
    assert router.shard_of(255) == 3


def test_shard_of_key_roundtrips_compose():
    router = make_router()
    for tid in range(CODEC.tid_count):
        for sv_q in (0, 63, 64, 129, 255):
            key = CODEC.compose_quantized(tid, sv_q, 17)
            assert router.shard_of_key(key) == router.shard_of(sv_q)


def test_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        make_router(boundaries=(10, 5))
    with pytest.raises(ValueError):
        make_router(boundaries=(-1,))


def test_shard_field_range_covers_the_space():
    router = make_router()
    spans = [router.shard_field_range(shard) for shard in range(router.n_shards)]
    assert spans[0][0] == 0
    assert spans[-1][1] == (1 << CODEC.sv_bits) - 1
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert lo == hi + 1


# ----------------------------------------------------------------------
# Band splitting
# ----------------------------------------------------------------------


def test_single_sv_band_routes_whole():
    router = make_router()
    band = BandRequest(1, 70, 70, 3, 9)
    assert router.split_band(band) == [(1, band)]


def test_straddling_band_splits_at_boundary_keys():
    router = make_router()
    band = BandRequest(1, 50, 200, 5, 40)
    parts = router.split_band(band)
    assert [shard for shard, _ in parts] == [0, 1, 2, 3]
    sub0, sub1, sub2, sub3 = [sub for _, sub in parts]
    # Low fragment keeps z_lo and runs to the end of its SV range.
    assert (sub0.sv_lo_q, sub0.sv_hi_q, sub0.z_lo, sub0.z_hi) == (50, 63, 5, MAX_Z)
    # Interior fragments span their SV ranges fully.
    assert (sub1.sv_lo_q, sub1.sv_hi_q, sub1.z_lo, sub1.z_hi) == (64, 127, 0, MAX_Z)
    assert (sub2.sv_lo_q, sub2.sv_hi_q, sub2.z_lo, sub2.z_hi) == (128, 191, 0, MAX_Z)
    # High fragment ends at the original z_hi.
    assert (sub3.sv_lo_q, sub3.sv_hi_q, sub3.z_lo, sub3.z_hi) == (192, 200, 0, 40)
    # Exact key-interval cover: contiguous, no overlap, no gap.
    lo_key = CODEC.compose_quantized(band.tid, band.sv_lo_q, band.z_lo)
    hi_key = CODEC.compose_quantized(band.tid, band.sv_hi_q, band.z_hi)
    edges = []
    for _, sub in parts:
        edges.append(
            (
                CODEC.compose_quantized(sub.tid, sub.sv_lo_q, sub.z_lo),
                CODEC.compose_quantized(sub.tid, sub.sv_hi_q, sub.z_hi),
            )
        )
    assert edges[0][0] == lo_key
    assert edges[-1][1] == hi_key
    for (_, prev_hi), (next_lo, _) in zip(edges, edges[1:]):
        assert next_lo == prev_hi + 1


def test_duplicate_boundary_leaves_shard_empty_but_cover_exact():
    router = make_router(boundaries=(64, 64, 192))
    band = BandRequest(0, 0, 255, 0, MAX_Z)
    parts = router.split_band(band)
    assert [shard for shard, _ in parts] == [0, 2, 3]  # shard 1 squeezed empty
    covered = sum(
        sub.sv_hi_q - sub.sv_lo_q + 1 for _, sub in parts
    )
    assert covered == 256


def test_split_sorted_run_preserves_order_per_shard():
    router = make_router()
    ops = []
    for sv_q in (10, 60, 64, 70, 130, 250):
        for zv in (1, 5):
            ops.append(("insert", CODEC.compose_quantized(1, sv_q, zv), sv_q + zv, b""))
    ops.sort(key=lambda op: (op[1], op[2]))
    runs = router.split_sorted_run(ops)
    assert [shard for shard, _ in runs] == [0, 1, 2, 3]
    rebuilt = []
    for _, run in runs:
        assert run == sorted(run, key=lambda op: (op[1], op[2]))
        assert len({router.shard_of_key(op[1]) for op in run}) == 1
        rebuilt.extend(run)
    assert sorted(rebuilt, key=lambda op: (op[1], op[2])) == ops


def test_for_store_balances_population():
    world = build_world(n_users=120, n_policies=6, seed=4)
    codec = world.peb.codec
    router = ShardRouter.for_store(4, codec, world.store, world.uids)
    counts = [0, 0, 0, 0]
    for uid in world.uids:
        sv_q = codec.quantize_sv(world.store.sequence_value(uid))
        counts[router.shard_of(sv_q)] += 1
    assert sum(counts) == 120
    assert max(counts) <= 2 * (120 / 4)  # roughly balanced quantile cuts


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------


def test_stats_view_is_live_and_resets():
    parts = [IOStats(), IOStats()]
    view = StatsView(parts)
    assert view.physical_reads == 0
    parts[0].physical_reads += 3
    parts[1].physical_reads += 4
    parts[1].physical_writes += 2
    assert view.physical_reads == 7
    assert view.physical_writes == 2
    assert view.total_io == 9
    before = view.physical_reads
    parts[0].physical_reads += 5
    assert view.physical_reads - before == 5  # delta reading works
    view.reset()
    assert parts[0].physical_reads == 0 and parts[1].physical_reads == 0
    assert view.snapshot()["physical_reads"] == 0


def test_stats_view_hit_ratio_and_validation():
    with pytest.raises(ValueError):
        StatsView([])
    part = IOStats()
    view = merge_stats([part])
    assert view.hit_ratio == 1.0
    part.logical_reads = 10
    part.physical_reads = 2
    assert view.hit_ratio == pytest.approx(0.8)


def test_buffer_pool_merged_stats():
    pools = [
        BufferPool(SimulatedDisk(page_size=256), capacity=2) for _ in range(3)
    ]
    view = BufferPool.merged_stats(pools)
    pools[1].disk.stats.physical_writes += 4
    assert view.physical_writes == 4
    assert set(view.snapshot()) == {
        "physical_reads",
        "physical_writes",
        "logical_reads",
        "logical_writes",
    }


def test_shard_stats_skew_and_snapshot():
    stats = ShardStats(
        entries=(30, 10, 0, 0), physical_reads=(5, 1, 0, 0), physical_writes=(2, 0, 0, 0)
    )
    assert stats.n_shards == 4
    assert stats.total_entries == 40
    assert stats.balance_skew == pytest.approx(3.0)
    assert stats.snapshot()["entries"] == [30, 10, 0, 0]
    assert ShardStats((0,), (0,), (0,)).balance_skew == 1.0
    with pytest.raises(ValueError):
        ShardStats((), (), ())
    with pytest.raises(ValueError):
        ShardStats((1,), (0, 0), (0,))


# ----------------------------------------------------------------------
# Facade behaviour
# ----------------------------------------------------------------------


def test_facade_insert_delete_contains():
    world = build_world(n_users=80, n_policies=6, seed=8)
    sharded = world.deploy(3)
    assert len(sharded) == 80
    assert sharded.contains(world.uids[0])
    with pytest.raises(KeyError):
        sharded.insert(world.states[world.uids[0]])
    assert sharded.delete(world.uids[0])
    assert not sharded.contains(world.uids[0])
    assert not sharded.delete(world.uids[0])
    assert len(sharded) == 79
    # Facade update() == single-state update_batch: reinsert via update.
    sharded.update(world.states[world.uids[0]])
    assert sharded.contains(world.uids[0])
    assert sharded.check_consistency() == []


def test_facade_rejects_mismatched_router():
    world = build_world(n_users=40, n_policies=4, seed=8)
    sharded = ShardedPEBTree.build(
        2, world.grid, world.partitioner, world.store, uids=world.uids
    )
    other = ShardRouter.for_store(3, sharded.codec, world.store, world.uids)
    with pytest.raises(ValueError):
        ShardedPEBTree(sharded.trees, other)


def test_timed_prefetch_fork_join_matches_untimed_exactly():
    """The scatter prefetch's fork/join on a timed deployment against
    the plain loop on an untimed clone: same results, candidates,
    per-shard physical counters, and post-update state."""
    world = build_world(n_users=220, n_policies=8, seed=13)

    def deployment(latency):
        sharded = world.deploy(4, buffer_pages=64, latency=latency)
        for pool in sharded.pools:
            pool.clear()
        return sharded

    generator = world.query_generator()
    stream = generator.update_stream(world.states, 200, 3.0, 0.0, 5.0)
    specs = generator.range_queries(world.uids, 24, 240.0, 5.0)
    untimed_tree, timed_tree = deployment(None), deployment("hdd")
    reports = []
    for tree in (untimed_tree, timed_tree):
        with UpdatePipeline(tree, capacity=64) as pipeline:
            pipeline.extend(stream)
        reports.append(QueryEngine(tree).execute_batch(specs))
    untimed_report, timed_report = reports

    for expected, got in zip(untimed_report.results, timed_report.results):
        assert got.uids == expected.uids
        assert got.candidates_examined == expected.candidates_examined
    assert timed_report.stats.physical_reads == untimed_report.stats.physical_reads
    assert timed_report.stats.bands_scanned == untimed_report.stats.bands_scanned
    assert timed_tree.shard_stats() == untimed_tree.shard_stats()
    assert list(timed_tree.items()) == list(untimed_tree.items())
    assert timed_report.stats.virtual_time_us > 0
    assert untimed_report.stats.virtual_time_us == 0


def test_scatter_scanner_span_scan_is_a_plain_scan_of_every_shard():
    world = build_world(n_users=100, n_policies=6, seed=2)
    sharded = world.deploy(2)
    scanner = ShardScatterScanner(sharded)
    band = BandRequest(0, 0, (1 << sharded.codec.sv_bits) - 1, 0, world.grid.max_z)
    expected = [(zv, obj.uid) for zv, obj in world.peb.scan_band(*band)]
    assert expected
    first = scanner.scan(band)
    scans_after_first = scanner.physical_scans
    assert scans_after_first == len(sharded.router.split_band(band))
    second = scanner.scan(band)
    for rows in (first, second):
        assert [(zv, obj.uid) for zv, obj in rows] == expected
    # No residency serves a span: the repeat reads every shard again.
    assert scanner.physical_scans == 2 * scans_after_first
    assert scanner.residency_hits == 0
    assert scanner.requests == 2


def test_scatter_scanner_serves_a_repeated_point_band_from_residency():
    world = build_world(n_users=100, n_policies=6, seed=2)
    sharded = world.deploy(2)
    scanner = ShardScatterScanner(sharded)
    key = world.peb.live_key(world.uids[3])
    tid, sv_q, zv = world.peb.codec.decompose(key)
    band = BandRequest(tid, sv_q, sv_q, zv, zv)
    first = scanner.scan(band)
    assert world.uids[3] in {obj.uid for _, obj in first}
    assert scanner.physical_scans == 1
    assert scanner.scan(band) == first
    assert scanner.physical_scans == 1
    assert scanner.residency_hits == 1
    assert scanner.requests == 2
