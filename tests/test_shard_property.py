"""Property tests pinning the sharded deployment to the single tree.

The sharding layer is a *deployment* change, never a different index:
over randomized populations and workloads, an N-shard
:class:`repro.shard.ShardedPEBTree`, read through its scatter/gather
scanner by the one :class:`repro.engine.QueryEngine` and written by the
shared :class:`repro.engine.UpdatePipeline`, must be observationally
identical to one PEB-tree driven by the same engine —

* per-query results *and* ``candidates_examined`` for mixed
  range/kNN batches, for shards ∈ {1, 2, 4};
* scans of bands that straddle shard boundaries (the multi-SV
  span-scan bands), entry for entry, in key order;
* post-update ``fetch_all`` state, live-key memos, speed maxima, and
  per-shard structural/consistency audits after identical update
  streams flow through identical pipelines.
"""

import pytest

from repro.engine import QueryEngine, UpdatePipeline
from repro.engine.plan import BandRequest
from repro.shard import ShardedPEBTree
from repro.shard.engine import ShardScatterScanner
from repro.workloads.queries import RangeQuerySpec

from tests.conftest import build_world

SEEDS = (5, 31)
SHARD_COUNTS = (1, 2, 4)


def build_sharded(world, n_shards, buffer_pages=512, **kwargs):
    return world.deploy(n_shards, buffer_pages=buffer_pages, **kwargs)


def single_entries(world):
    return list(world.peb.btree.items())


@pytest.fixture(params=SEEDS)
def world(request):
    return build_world(n_users=260, n_policies=8, seed=request.param)


# ----------------------------------------------------------------------
# Read path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_batch_identical_to_single_tree(world, n_shards):
    sharded = build_sharded(world, n_shards)
    assert sharded.check_consistency() == []
    assert len(sharded) == len(world.peb)
    specs = world.query_generator().mixed_queries(world.states, 30, 260.0, 4, 5.0)

    single = QueryEngine(world.peb).execute_batch(specs)
    shard = QueryEngine(sharded).execute_batch(specs)

    assert len(shard.results) == len(specs)
    for spec, expected, got in zip(specs, single.results, shard.results):
        if isinstance(spec, RangeQuerySpec):
            assert got.uids == expected.uids, spec
        else:
            assert [round(d, 9) for d, _ in got.neighbors] == [
                round(d, 9) for d, _ in expected.neighbors
            ], spec
        assert got.candidates_examined == expected.candidates_examined, spec
    assert shard.stats.candidates_examined == single.stats.candidates_examined
    assert shard.stats.shard_stats is not None
    assert shard.stats.shard_stats.n_shards == n_shards
    assert shard.stats.shard_stats.total_entries == len(world.peb)
    # The breakdown covers exactly this batch: it sums to the delta
    # counter it rides with.
    assert shard.stats.shard_stats.total_reads == shard.stats.physical_reads


@pytest.mark.parametrize("n_shards", (2, 4))
def test_boundary_straddling_band_scans_identically(world, n_shards):
    """A multi-SV band crossing every shard boundary, entry for entry."""
    sharded = build_sharded(world, n_shards)
    codec = world.peb.codec
    sv_lo, sv_hi = 0, (1 << codec.sv_bits) - 1
    band_checked = 0
    for tid in range(world.partitioner.num_partitions):
        # The widest possible span band: straddles every SV boundary.
        single = [
            (zv, obj.uid)
            for zv, obj in world.peb.scan_band(tid, sv_lo, sv_hi, 0, world.grid.max_z)
        ]
        band = BandRequest(tid, sv_lo, sv_hi, 0, world.grid.max_z)
        sharded_rows = [
            (zv, obj.uid) for zv, obj in ShardScatterScanner(sharded).scan(band)
        ]
        assert sharded_rows == single
        band_checked += len(single)
    assert band_checked == len(world.peb)  # every entry seen exactly once

    # And through the engine: the Figure 7 span-scan ablation plans
    # multi-SV bands over the friend list's [SV_min, SV_max] range.
    single_engine = QueryEngine(world.peb)
    shard_engine = QueryEngine(sharded)
    for spec in world.query_generator().range_queries(world.uids, 10, 320.0, 5.0):
        expected = single_engine.execute_span_scan(spec.q_uid, spec.window, spec.t_query)
        got = shard_engine.execute_span_scan(spec.q_uid, spec.window, spec.t_query)
        assert got.candidates_examined == expected.candidates_examined, spec


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_updates_identical_to_single_tree(world, n_shards):
    """Same stream, same pipeline, byte-identical end state."""
    sharded = build_sharded(world, n_shards)
    generator = world.query_generator()
    # Duration crosses a partition rollover, exercising the pipeline's
    # rollover flush on both sides (and, with repeats, last-write-wins).
    stream = generator.update_stream(world.states, 500, 3.0, 0.0, 130.0)

    with UpdatePipeline(sharded, capacity=64) as sharded_pipeline:
        sharded_pipeline.extend(stream)
    with UpdatePipeline(world.peb, capacity=64) as single_pipeline:
        single_pipeline.extend(stream)

    assert sharded.live_keys() == world.peb.live.keys
    assert list(sharded.items()) == single_entries(world)
    assert sharded.fetch_all() == [
        world.peb.records.unpack(uid, payload)[0]
        for _, uid, payload in single_entries(world)
    ]
    assert sharded.live.max_speed_x == world.peb.live.max_speed_x
    assert sharded.live.max_speed_y == world.peb.live.max_speed_y
    assert sharded.check_consistency() == []
    sharded.check_invariants()

    single_stats = single_pipeline.stats
    sharded_stats = sharded_pipeline.stats
    assert sharded_stats.ops == single_stats.ops
    assert sharded_stats.in_place_hits == single_stats.in_place_hits
    assert sharded_stats.moved == single_stats.moved
    assert sharded_stats.inserted == single_stats.inserted
    assert sharded_stats.flushes == single_stats.flushes
    assert sharded_stats.shard_stats is not None
    assert sharded_stats.shard_stats.n_shards == n_shards
    # The breakdown covers the pipeline's own flushes (no other actor
    # touched the pools here), so it sums to the accumulated counters.
    assert sharded_stats.shard_stats.total_reads == sharded_stats.physical_reads
    assert sharded_stats.shard_stats.total_writes == sharded_stats.physical_writes
    assert single_stats.shard_stats is None

    # Queries after the churn still agree.
    specs = generator.range_queries(world.uids, 12, 240.0, 130.0)
    single_report = QueryEngine(world.peb).execute_batch(specs)
    shard_report = QueryEngine(sharded).execute_batch(specs)
    for spec, expected, got in zip(specs, single_report.results, shard_report.results):
        assert got.uids == expected.uids, spec
        assert got.candidates_examined == expected.candidates_examined, spec


def test_pipeline_breakdown_excludes_io_between_flushes(world):
    """A query batch served between two flushes is not the updater's
    I/O: the per-shard breakdown still sums to the sibling counters."""
    sharded = build_sharded(world, 2, buffer_pages=4)
    for pool in sharded.pools:
        pool.clear()
    generator = world.query_generator()
    stream = generator.update_stream(world.states, 200, 3.0, 0.0, 50.0)
    pipeline = UpdatePipeline(sharded, capacity=1000)

    pipeline.extend(stream[:100])
    pipeline.flush()
    specs = generator.range_queries(world.uids, 20, 240.0, 50.0)
    report = QueryEngine(sharded).execute_batch(specs)
    assert report.stats.physical_reads > 0  # the interloper did real I/O
    pipeline.extend(stream[100:])
    pipeline.flush()

    stats = pipeline.stats
    assert stats.flushes == 2
    assert stats.shard_stats.total_reads == stats.physical_reads
    assert stats.shard_stats.total_writes == stats.physical_writes
    assert stats.shard_stats.entries == sharded.shard_stats().entries


@pytest.mark.parametrize("n_shards", (2, 4))
def test_parallel_io_timed_identical_to_sequential(world, n_shards):
    """Timing a deployment is a schedule change, never a different index.

    A timed deployment (virtual fork/join over per-shard devices,
    pipelined verification) must produce the same query results,
    ``candidates_examined``, physical I/O counters, and post-update
    tree state as the plain untimed deployment and the single tree —
    only the virtual clock may differ.
    """
    # Small per-shard buffers so the workload does real physical I/O —
    # a fully resident tree would make virtual time trivially zero.
    sequential = build_sharded(world, n_shards, buffer_pages=8)
    overlapped = build_sharded(world, n_shards, buffer_pages=8, latency="ssd")
    generator = world.query_generator()
    stream = generator.update_stream(world.states, 450, 3.0, 0.0, 130.0)

    with UpdatePipeline(world.peb, capacity=64) as single_pipeline:
        single_pipeline.extend(stream)
    with UpdatePipeline(sequential, capacity=64) as sequential_pipeline:
        sequential_pipeline.extend(stream)
    with UpdatePipeline(overlapped, capacity=64) as overlapped_pipeline:
        overlapped_pipeline.extend(stream)

    # Post-update state: identical across all three deployments.
    assert overlapped.live_keys() == world.peb.live.keys
    assert list(overlapped.items()) == single_entries(world)
    assert list(overlapped.items()) == list(sequential.items())
    assert overlapped.live.max_speed_x == world.peb.live.max_speed_x
    assert overlapped.live.max_speed_y == world.peb.live.max_speed_y
    assert overlapped.check_consistency() == []
    overlapped.check_invariants()
    assert overlapped_pipeline.stats.ops == sequential_pipeline.stats.ops
    assert (
        overlapped_pipeline.stats.leaves_visited
        == sequential_pipeline.stats.leaves_visited
    )
    # Physical I/O is schedule-independent; only virtual time is new.
    assert (
        overlapped_pipeline.stats.physical_reads
        == sequential_pipeline.stats.physical_reads
    )
    assert (
        overlapped_pipeline.stats.physical_writes
        == sequential_pipeline.stats.physical_writes
    )
    # Virtual time moves exactly when devices were touched (at high
    # shard counts a shard can fit its buffer and do no physical I/O).
    pipeline_io = (
        overlapped_pipeline.stats.physical_reads
        + overlapped_pipeline.stats.physical_writes
    )
    assert (overlapped_pipeline.stats.virtual_time_us > 0) == (pipeline_io > 0)
    assert sequential_pipeline.stats.virtual_time_us == 0

    specs = generator.mixed_queries(world.states, 24, 260.0, 4, 130.0)
    single_report = QueryEngine(world.peb).execute_batch(specs)
    sequential_report = QueryEngine(sequential).execute_batch(specs)
    overlapped_report = QueryEngine(overlapped).execute_batch(specs)

    for spec, expected, seq, par in zip(
        specs,
        single_report.results,
        sequential_report.results,
        overlapped_report.results,
    ):
        if isinstance(spec, RangeQuerySpec):
            assert par.uids == expected.uids == seq.uids, spec
        else:
            assert [round(d, 9) for d, _ in par.neighbors] == [
                round(d, 9) for d, _ in expected.neighbors
            ], spec
        assert (
            par.candidates_examined
            == expected.candidates_examined
            == seq.candidates_examined
        ), spec
    assert (
        overlapped_report.stats.physical_reads
        == sequential_report.stats.physical_reads
    )
    assert (
        overlapped_report.stats.bands_scanned
        == sequential_report.stats.bands_scanned
    )
    assert overlapped_report.stats.virtual_time_us > 0
    assert overlapped.latency_stats is not None
    # Every counted access was priced, and only counted accesses were.
    assert overlapped.latency_stats.reads == overlapped.stats.physical_reads
    assert overlapped.latency_stats.writes == overlapped.stats.physical_writes
    assert sequential.latency_stats is None


def test_sharded_update_batch_matches_single_update_batch(world):
    """The facade's run splitting vs the single tree's one sorted run."""
    sharded = build_sharded(world, 4)
    generator = world.query_generator()
    stream = generator.update_stream(world.states, 300, 3.0, 0.0, 90.0)
    batch = [(obj, obj.uid % 3) for obj in stream]

    single_result = world.peb.update_batch(batch)
    sharded_result = sharded.update_batch(batch)

    assert sharded_result.ops == single_result.ops
    assert sharded_result.in_place == single_result.in_place
    assert sharded_result.moved == single_result.moved
    assert sharded_result.inserted == single_result.inserted
    assert sharded.live_keys() == world.peb.live.keys
    assert list(sharded.items()) == single_entries(world)
    assert sharded.live.max_speed_x == world.peb.live.max_speed_x
    assert sharded.live.max_speed_y == world.peb.live.max_speed_y
