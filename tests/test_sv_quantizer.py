"""The sequence-value quantizer's scale, derived where the index is built.

``PEBTree(...)`` and ``ShardedPEBTree.build(...)`` default ``sv_scale``
to :func:`repro.core.peb_key.derive_sv_scale` of the store's largest SV:
the largest power of two at which that SV still packs into ``sv_bits``.
At that scale distinct raw SVs give distinct quantized SVs, so a stratum
``(TID, sv_q)`` is one raw SV and a friend's band returns no other
user's rows (ties of the raw SV itself aside).  Pinned here:

* the derivation — a power of two, maximal, exact at a power-of-two
  SV, 128 for a store with no SVs;
* distinctness on random hypothesis worlds and on the benchmark
  population under Figure 5 and BFS;
* an SV raised past the ceiling after the build is refused before the
  tree is touched, and one re-assigned across a shard boundary before
  any shard is touched;
* the scale survives checkpoints, clones and in-place restores, and the
  ZV-first ablation tree and every shard of a deployment share it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablation import make_zv_first_tree
from repro.core.checkpoint import (
    clone_peb_tree,
    load_peb_tree,
    restore_peb_tree_state,
    save_peb_tree,
)
from repro.core.encoders import make_encoder
from repro.core.peb_key import DEFAULT_SV_BITS, DEFAULT_SV_SCALE, derive_sv_scale
from repro.core.peb_tree import PEBTree
from repro.core.sequencing import assign_sequence_values
from repro.fault import BreakerPolicy, RetryPolicy
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.shard import ShardedPEBTree
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.workloads.policies import PolicyGenerator
from repro.workloads.uniform import UniformMovement

from tests.test_peb_tree import mover

SPACE = 1000.0
GRID = Grid(SPACE, 10)
PARTITIONER = TimePartitioner(120.0, 2)


def small_store(n_users: int, n_policies: int, seed: int) -> PolicyStore:
    uids = list(range(n_users))
    store = PolicyGenerator(SPACE, 1440.0, random.Random(seed)).generate(
        uids, n_policies, 0.7
    )
    report = assign_sequence_values(uids, store, SPACE**2)
    store.set_sequence_values(report.sequence_values)
    return store


def peb_over(store: PolicyStore, **kwargs) -> PEBTree:
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=64)
    return PEBTree(pool, GRID, PARTITIONER, store, **kwargs)


def assert_one_stratum_per_raw_sv(codec, svs) -> None:
    raw = set(svs)
    quantized = {codec.quantize_sv(sv) for sv in raw}
    assert len(quantized) == len(raw)
    assert max(quantized).bit_length() <= codec.sv_bits


# ----------------------------------------------------------------------
# The derivation
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    max_sv=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    sv_bits=st.integers(min_value=8, max_value=48),
)
def test_the_derived_scale_is_the_largest_power_of_two_that_fits(max_sv, sv_bits):
    scale = derive_sv_scale(max_sv, sv_bits)
    assert scale >= 1 and scale & (scale - 1) == 0
    if round(max_sv) < 1 << sv_bits:
        assert round(max_sv * scale) < 1 << sv_bits
        assert round(max_sv * 2 * scale) >= 1 << sv_bits


def test_derivation_edge_cases():
    # Figure 5 and BFS on the benchmark population.
    assert derive_sv_scale(39.892635689466736) == 1 << 26
    assert derive_sv_scale(2210.6254440113225) == 1 << 20
    # A largest SV that is exactly a power of two: 32 · 2**26 = 2**31 fits
    # 32 bits, 32 · 2**27 = 2**32 does not.
    assert derive_sv_scale(32.0) == 1 << 26
    assert derive_sv_scale(1.0) == 1 << 31
    assert derive_sv_scale(float(1 << 31)) == 1
    # Rounding up to 2**32 costs the last halving: 64 - 2**-27 at 2**26
    # is 2**32 - 0.5, which rounds (to even) to 2**32.
    assert derive_sv_scale(64.0 - 2.0**-27) == 1 << 25
    # Below 1 derives as 1, so the scale stays finite.
    assert derive_sv_scale(0.0) == derive_sv_scale(0.25) == 1 << 31
    # No SVs: nothing to derive from.
    assert derive_sv_scale(None) == DEFAULT_SV_SCALE == 128


def test_a_store_without_sequence_values_keeps_128():
    store = PolicyStore()
    assert store.max_sequence_value() is None
    assert peb_over(store).codec.sv_scale == DEFAULT_SV_SCALE


def test_an_explicit_scale_is_kept():
    store = small_store(40, 4, seed=3)
    assert peb_over(store, sv_scale=128).codec.sv_scale == 128


# ----------------------------------------------------------------------
# Distinct raw SVs, distinct strata
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n_users=st.integers(min_value=20, max_value=150),
    n_policies=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_distinct_raw_svs_get_distinct_strata_on_random_worlds(
    n_users, n_policies, seed
):
    store = small_store(n_users, n_policies, seed)
    tree = peb_over(store)
    assert tree.codec.sv_scale == derive_sv_scale(store.max_sequence_value())
    assert_one_stratum_per_raw_sv(
        tree.codec, [store.sequence_value(uid) for uid in range(n_users)]
    )


def test_distinct_raw_svs_get_distinct_strata_on_the_benchmark_population():
    """Figure 5's 4 312 distinct SVs were 1 996 strata at scale 128 (up
    to 34 users in one); derived, they are 4 312.  BFS's 6 000 distinct
    SVs stay 6 000."""
    from perf.workloads import FULL, SPACE_SIDE, build_population

    population = build_population(FULL)
    store = population.store
    uids = sorted(population.states)
    figure5 = {uid: store.sequence_value(uid) for uid in uids}
    bfs = make_encoder("bfs").encode(uids, store, SPACE_SIDE**2).sequence_values
    tree = PEBTree(
        BufferPool(SimulatedDisk(page_size=1024), capacity=8),
        population.grid,
        population.partitioner,
        store,
    )
    assert tree.codec.sv_scale == 1 << 26
    assert_one_stratum_per_raw_sv(tree.codec, figure5.values())
    assert len(set(figure5.values())) == 4312
    coarse = peb_over(store, sv_scale=128).codec
    assert len({coarse.quantize_sv(sv) for sv in figure5.values()}) == 1996

    store.set_sequence_values(bfs)
    bfs_codec = peb_over(store).codec
    assert bfs_codec.sv_scale == 1 << 20
    assert_one_stratum_per_raw_sv(bfs_codec, bfs.values())
    assert len(set(bfs.values())) == 6000


# ----------------------------------------------------------------------
# The ceiling is enforced before the tree is touched
# ----------------------------------------------------------------------


def _indexed(n_users: int = 30):
    store = small_store(n_users, 4, seed=7)
    states = {
        obj.uid: obj
        for obj in UniformMovement(SPACE, 3.0, random.Random(7)).initial_objects(
            n_users, t=0.0
        )
    }
    return store, states


def _over_the_ceiling(store, states, uid, scale):
    raised = {u: store.sequence_value(u) for u in states}
    raised[uid] = ((1 << DEFAULT_SV_BITS) + 1) / scale
    store.set_sequence_values(raised)


def test_an_sv_raised_past_the_ceiling_after_the_build_is_refused():
    store, states = _indexed()
    tree = peb_over(store)
    for obj in list(states.values())[:-1]:
        tree.insert(obj)
    snapshot = (list(tree.btree.items()), dict(tree.live.keys), len(tree))
    newcomer = list(states.values())[-1]
    indexed = list(states.values())[0]
    _over_the_ceiling(store, states, newcomer.uid, tree.codec.sv_scale)
    with pytest.raises(ValueError, match="does not fit"):
        tree.insert(newcomer)
    _over_the_ceiling(store, states, indexed.uid, tree.codec.sv_scale)
    moved = mover(indexed.uid, x=indexed.x + 50.0, y=indexed.y, t=1.0)
    with pytest.raises(ValueError, match="does not fit"):
        tree.update(moved)
    with pytest.raises(ValueError, match="does not fit"):
        tree.update_batch([moved])
    assert (list(tree.btree.items()), dict(tree.live.keys), len(tree)) == snapshot
    tree.btree.check_invariants()
    assert tree.check_consistency() == []


def test_a_deployment_refuses_an_sv_past_the_ceiling_before_any_shard():
    store, states = _indexed()
    sharded = ShardedPEBTree.build(
        2, GRID, PARTITIONER, store, uids=sorted(states), page_size=1024
    )
    objs = list(states.values())
    for obj in objs[:-1]:
        sharded.insert(obj)
    before = list(sharded.items())
    _over_the_ceiling(store, states, objs[-1].uid, sharded.codec.sv_scale)
    with pytest.raises(ValueError, match="does not fit"):
        sharded.insert(objs[-1])
    assert list(sharded.items()) == before


@pytest.mark.parametrize("supervised", (False, True))
@pytest.mark.parametrize("n_shards", (2, 4))
def test_a_deployment_refuses_an_sv_moved_across_a_shard_boundary(
    n_shards, supervised
):
    """A user's shard is fixed by its SV: re-assigning an indexed user's
    SV into another shard's range is refused, supervised or not, and
    no shard is touched."""
    store, states = _indexed()
    sharded = ShardedPEBTree.build(
        n_shards,
        GRID,
        PARTITIONER,
        store,
        uids=sorted(states),
        page_size=1024,
        fault_policy=RetryPolicy() if supervised else None,
        breaker_policy=BreakerPolicy() if supervised else None,
    )
    for obj in states.values():
        sharded.insert(obj)
    before = (list(sharded.items()), sharded.live_keys())

    def shard_of(uid):
        return sharded.router.shard_of(
            sharded.codec.quantize_sv(store.sequence_value(uid))
        )

    indexed = states[min(states)]
    home = shard_of(indexed.uid)
    stranger = next(uid for uid in sorted(states) if shard_of(uid) != home)
    reassigned = {uid: store.sequence_value(uid) for uid in states}
    reassigned[indexed.uid] = reassigned[stranger]
    store.set_sequence_values(reassigned)
    moved = mover(indexed.uid, x=indexed.x + 50.0, y=indexed.y, t=1.0)
    with pytest.raises(ValueError, match="shard boundary"):
        sharded.update_batch([moved])
    with pytest.raises(ValueError, match="shard boundary"):
        sharded.update(moved)
    assert (list(sharded.items()), sharded.live_keys()) == before
    assert sharded.check_consistency() == []


# ----------------------------------------------------------------------
# One scale per index: shards, ablation twin, checkpoints
# ----------------------------------------------------------------------


def test_a_deployment_derives_once_for_its_router_and_every_shard():
    store = small_store(60, 4, seed=11)
    sharded = ShardedPEBTree.build(
        3, GRID, PARTITIONER, store, uids=range(60), page_size=1024
    )
    scale = derive_sv_scale(store.max_sequence_value())
    assert sharded.router.codec.sv_scale == scale
    assert {tree.codec.sv_scale for tree in sharded.trees} == {scale}


def test_the_zv_first_twin_has_the_scale_of_its_peb_tree():
    store = small_store(60, 4, seed=11)
    peb = peb_over(store)
    twin = make_zv_first_tree(
        BufferPool(SimulatedDisk(page_size=1024), capacity=64),
        GRID,
        PARTITIONER,
        store,
    )
    assert not type(twin.codec).sv_major
    assert twin.codec.sv_scale == peb.codec.sv_scale == derive_sv_scale(
        store.max_sequence_value()
    )


@pytest.mark.parametrize("scale", (128, None))
def test_checkpoints_clones_and_restores_keep_the_scale(tmp_path, scale):
    """A tree saved at 128 reloads at 128 and one at the derived scale
    at the derived scale, whatever the store now derives."""
    store, states = _indexed()
    tree = peb_over(store, sv_scale=scale)
    expected = tree.codec.sv_scale
    assert expected == (scale or derive_sv_scale(store.max_sequence_value()))
    for obj in states.values():
        tree.insert(obj)
    save_peb_tree(tree, str(tmp_path))

    loaded = load_peb_tree(str(tmp_path))
    assert loaded.codec.sv_scale == expected
    assert list(loaded.btree.items()) == list(tree.btree.items())
    assert clone_peb_tree(tree).codec.sv_scale == expected

    restored = peb_over(store, sv_scale=expected)
    restore_peb_tree_state(str(tmp_path), restored)
    assert restored.codec.sv_scale == expected
    assert list(restored.btree.items()) == list(tree.btree.items())
