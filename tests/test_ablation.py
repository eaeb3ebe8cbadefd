"""Tests for the ablation variants: all of them must stay *correct*;
their I/O differences are measured in benchmarks/bench_ablations.py."""

import pytest

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.ablation import ZVFirstKeyCodec, make_zv_first_tree, prq_span_scan
from repro.core.pknn import pknn, pknn_walk
from repro.core.prq import prq
from repro.storage import BufferPool, SimulatedDisk

from tests.conftest import build_world


def test_zv_first_codec_round_trip():
    codec = ZVFirstKeyCodec(tid_count=3, sv_bits=16, zv_bits=8, sv_scale=128)
    key = codec.compose(tid=2, sv=10.5, zv=200)
    assert codec.decompose(key) == (2, codec.quantize_sv(10.5), 200)


def test_zv_first_codec_prioritizes_location():
    codec = ZVFirstKeyCodec(tid_count=3, sv_bits=16, zv_bits=8, sv_scale=128)
    # A one-cell location difference outweighs any SV difference.
    assert codec.compose(0, 500.0, 10) < codec.compose(0, 0.0, 11)


def test_zv_first_codec_validation():
    codec = ZVFirstKeyCodec(tid_count=2, sv_bits=8, zv_bits=8, sv_scale=1)
    with pytest.raises(ValueError):
        codec.compose_quantized(2, 0, 0)
    with pytest.raises(ValueError):
        codec.compose_quantized(0, 1 << 9, 0)
    with pytest.raises(ValueError):
        codec.compose_quantized(0, 0, 1 << 9)


def test_zv_first_tree_answers_prq_correctly():
    world = build_world(n_users=200, n_policies=8, seed=31)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    swapped = make_zv_first_tree(
        pool, world.grid, world.partitioner, world.store
    )
    for obj in world.states.values():
        swapped.insert(obj)
    for query in world.query_generator().range_queries(world.uids, 8, 250.0, 5.0):
        expected = brute_force_prq(
            world.states, world.store, query.q_uid, query.window, query.t_query
        )
        assert prq(swapped, query.q_uid, query.window, query.t_query).uids == expected


def test_zv_first_tree_answers_pknn_correctly():
    world = build_world(n_users=200, n_policies=8, seed=32)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    swapped = make_zv_first_tree(pool, world.grid, world.partitioner, world.store)
    for obj in world.states.values():
        swapped.insert(obj)
    for query in world.query_generator().knn_queries(world.states, 5, 4, 5.0):
        expected = [
            round(d, 9)
            for d, _ in brute_force_pknn(
                world.states,
                world.store,
                query.q_uid,
                query.qx,
                query.qy,
                query.k,
                query.t_query,
            )
        ]
        result = pknn(swapped, query.q_uid, query.qx, query.qy, query.k, query.t_query)
        assert [round(d, 9) for d, _ in result.neighbors] == expected


def test_span_scan_prq_equivalent_to_per_sv(small_world):
    world = small_world
    for query in world.query_generator().range_queries(world.uids, 10, 250.0, 5.0):
        per_sv = prq(world.peb, query.q_uid, query.window, query.t_query)
        span = prq_span_scan(world.peb, query.q_uid, query.window, query.t_query)
        assert span.uids == per_sv.uids


def test_span_scan_examines_more_candidates(small_world):
    """The whole point of per-SV ranges: the coarse band scan pulls in
    unrelated users between the issuer's friends."""
    world = small_world
    total_per_sv = 0
    total_span = 0
    for query in world.query_generator().range_queries(world.uids, 10, 300.0, 5.0):
        total_per_sv += prq(
            world.peb, query.q_uid, query.window, query.t_query
        ).candidates_examined
        total_span += prq_span_scan(
            world.peb, query.q_uid, query.window, query.t_query
        ).candidates_examined
    assert total_span > total_per_sv


def test_column_order_pknn_equivalent(small_world):
    world = small_world
    for query in world.query_generator().knn_queries(world.states, 8, 5, 5.0):
        triangular = pknn_walk(
            world.peb, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        column = pknn_walk(
            world.peb,
            query.q_uid,
            query.qx,
            query.qy,
            query.k,
            query.t_query,
            order="column",
        )
        assert [round(d, 9) for d, _ in column.neighbors] == [
            round(d, 9) for d, _ in triangular.neighbors
        ]


def test_unknown_order_rejected(small_world):
    world = small_world
    with pytest.raises(ValueError):
        pknn_walk(world.peb, world.uids[0], 500.0, 500.0, 3, 5.0, order="spiral")
