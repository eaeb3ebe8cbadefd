"""Tests for PEB-tree maintenance and key composition."""

import pytest

from repro.bxtree.tree import BxTree
from repro.core.peb_tree import PEBTree
from repro.core.sequencing import assign_sequence_values
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


def make_store(uids):
    store = PolicyStore()
    everywhere = Rect(0, 1000, 0, 1000)
    always = TimeInterval(0, 1440)
    for index, uid in enumerate(uids):
        target = uids[(index + 1) % len(uids)]
        store.add_policy(
            LocationPrivacyPolicy(owner=uid, role="f", locr=everywhere, tint=always),
            members=[target],
        )
    report = assign_sequence_values(list(uids), store, 1000.0 * 1000.0)
    store.set_sequence_values(report.sequence_values)
    return store


def make_peb(uids=range(10)):
    uids = list(uids)
    grid = Grid(1000.0, 10)
    partitioner = TimePartitioner(120.0, 2)
    store = make_store(uids)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=64)
    return PEBTree(pool, grid, partitioner, store)


def mover(uid, x=100.0, y=100.0, vx=1.0, vy=0.0, t=0.0):
    return MovingObject(uid=uid, x=x, y=y, vx=vx, vy=vy, t_update=t)


@pytest.mark.parametrize(
    "page_size, peb_capacity, bx_capacity", [(1024, 18, 19), (4096, 74, 80)]
)
def test_leaf_geometry_of_the_peb_tree_and_the_bx_tree(
    page_size, peb_capacity, bx_capacity
):
    """A leaf entry stores its UID once, in the B+-tree's uid column; both
    indexes carry the same 44-byte payload, so they differ only by key
    width (7 bytes for TID ⊕ SV ⊕ ZV, 3 for the Bx-tree's TID ⊕ ZV)."""
    grid, partitioner = Grid(1000.0, 10), TimePartitioner(120.0, 2)
    peb = PEBTree(
        BufferPool(SimulatedDisk(page_size=page_size), capacity=8),
        grid,
        partitioner,
        make_store(range(4)),
    )
    bx = BxTree(
        BufferPool(SimulatedDisk(page_size=page_size), capacity=8), grid, partitioner
    )
    assert peb.btree.config.value_bytes == bx.btree.config.value_bytes == 44
    assert (peb.btree.config.key_bytes, bx.btree.config.key_bytes) == (7, 3)
    assert peb.btree.config.leaf_capacity == peb_capacity
    assert bx.btree.config.leaf_capacity == bx_capacity


def test_key_embeds_all_three_components():
    tree = make_peb()
    obj = mover(0, x=100.0, y=200.0, vx=2.0, vy=0.0, t=0.0)
    tid, sv_q, zv = tree.codec.decompose(tree.key_for(obj))
    assert tid == tree.partitioner.partition(0.0)
    assert sv_q == tree.codec.quantize_sv(tree.store.sequence_value(0))
    assert zv == tree.grid.z_value(220.0, 200.0)  # position as of label 60


def test_same_sv_users_cluster_in_key_space():
    """Users with compatible policies (adjacent SVs) have closer keys
    than spatially identical users with distant SVs."""
    tree = make_peb(range(6))
    svs = sorted(
        (tree.store.sequence_value(uid), uid) for uid in range(6)
    )
    near_a, near_b = svs[0][1], svs[1][1]
    far = svs[-1][1]
    at_origin = dict(x=10.0, y=10.0, vx=0.0, vy=0.0, t=0.0)
    key_a = tree.key_for(mover(near_a, **at_origin))
    key_b = tree.key_for(mover(near_b, **at_origin))
    key_far = tree.key_for(mover(far, **at_origin))
    assert abs(key_a - key_b) < abs(key_a - key_far)


def test_insert_delete_update_cycle():
    tree = make_peb()
    tree.insert(mover(0))
    assert tree.contains(0)
    tree.update(mover(0, x=900.0, t=30.0))
    assert len(tree) == 1
    assert tree.fetch_all()[0].x == 900.0
    assert tree.delete(0) is True
    assert tree.delete(0) is False
    assert len(tree) == 0


def test_double_insert_rejected():
    tree = make_peb()
    tree.insert(mover(1))
    with pytest.raises(KeyError):
        tree.insert(mover(1))


def test_missing_sequence_value_fails_loudly():
    tree = make_peb(range(5))
    with pytest.raises(KeyError):
        tree.insert(mover(99))  # uid 99 has no SV


def test_scan_sv_zrange_returns_matching_entries():
    tree = make_peb(range(8))
    for uid in range(8):
        tree.insert(mover(uid, x=uid * 100.0, y=uid * 100.0, vx=0.0, vy=0.0))
    target = 3
    sv = tree.store.sequence_value(target)
    tid = tree.partitioner.partition(0.0)
    found = list(tree.scan_sv_zrange(tid, sv, 0, tree.grid.max_z))
    assert target in {obj.uid for obj in found}
    # Every entry in this scan has the same quantized SV.
    sv_q = tree.codec.quantize_sv(sv)
    for obj in found:
        entry_sv = tree.codec.quantize_sv(tree.store.sequence_value(obj.uid))
        assert entry_sv == sv_q


def test_a_uid_outside_four_bytes_is_refused_with_the_memo_untouched():
    wide = 1 << 32
    tree = make_peb([0, 1, 2, wide])
    tree.insert(mover(0))
    tree.insert(mover(1, x=500.0))
    tree.btree.pool.flush()
    memo = dict(tree.live.keys)
    speeds = (tree.live.max_speed_x, tree.live.max_speed_y)
    entries = list(tree.btree.items())
    with pytest.raises(ValueError, match="does not fit"):
        tree.insert(mover(wide, vx=9.0))
    with pytest.raises(ValueError, match="does not fit"):
        tree.update_batch([mover(0, x=900.0, y=900.0, t=1.0), mover(wide, vx=9.0)])
    assert tree.live.keys == memo
    assert (tree.live.max_speed_x, tree.live.max_speed_y) == speeds
    assert list(tree.btree.items()) == entries
    assert tree.btree.pool.dirty_pages == set()
    tree.btree.check_invariants()


def test_update_with_unchanged_key_rewrites_in_place():
    """A same-key update must not structurally delete and reinsert."""
    tree = make_peb()
    for uid in range(10):
        tree.insert(mover(uid, x=uid * 90.0, y=uid * 90.0, vx=0.0, vy=0.0))
    target = mover(3, x=270.0, y=270.0, vx=0.0, vy=0.0, t=0.0)
    assert tree.key_for(target) == tree.live.keys[3]

    leaves_before = tree.btree.leaf_count
    tree.update(target, pntp=7)
    assert tree.btree.leaf_count == leaves_before
    assert len(tree) == 10
    tree.btree.check_invariants()
    # The payload really was rewritten.
    _, pntp = tree.records.unpack(3, tree.btree.search(tree.live.keys[3], 3))
    assert pntp == 7


def test_update_in_place_saves_io_versus_delete_insert():
    """The in-place path must cost strictly less I/O than delete+insert."""

    def build():
        tree = make_peb()
        for uid in range(10):
            tree.insert(mover(uid, x=uid * 90.0, y=uid * 90.0, vx=0.0, vy=0.0))
        return tree

    same_state = dict(x=270.0, y=270.0, vx=0.0, vy=0.0, t=0.0)

    in_place = build()
    in_place.stats.reset()
    in_place.update(mover(3, **same_state), pntp=1)
    in_place_io = (
        in_place.stats.logical_reads + in_place.stats.logical_writes
    )

    churned = build()
    churned.stats.reset()
    churned.delete(3)
    churned.insert(mover(3, **same_state), pntp=1)
    churn_io = churned.stats.logical_reads + churned.stats.logical_writes

    assert in_place_io < churn_io
    # Both paths leave identical visible state behind.
    assert in_place.fetch_all()[3].x == churned.fetch_all()[3].x
    assert in_place.live.keys == churned.live.keys


def test_update_with_changed_key_still_moves_entry():
    tree = make_peb()
    tree.insert(mover(0, x=100.0, y=100.0, vx=0.0, vy=0.0))
    old_key = tree.live.keys[0]
    tree.update(mover(0, x=900.0, y=900.0, vx=0.0, vy=0.0, t=0.0))
    assert tree.live.keys[0] != old_key
    assert tree.btree.search(old_key, 0) is None
    assert tree.fetch_all()[0].x == 900.0
    tree.btree.check_invariants()


def test_update_of_unindexed_user_inserts():
    tree = make_peb()
    tree.update(mover(2))
    assert tree.contains(2)
    assert len(tree) == 1


def test_structure_sound_under_update_churn():
    tree = make_peb(range(50))
    for uid in range(50):
        tree.insert(mover(uid, x=uid * 17.0 % 1000, y=uid * 31.0 % 1000))
    for round_index in range(1, 5):
        t = round_index * 25.0
        for uid in range(0, 50, 3):
            tree.update(mover(uid, x=(uid * 7 + t) % 1000, y=(uid * 3 + t) % 1000, t=t))
        tree.btree.check_invariants()
    assert len(tree) == 50
