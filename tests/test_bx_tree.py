"""Tests for Bx-tree maintenance (insert / delete / update / key_for)."""

import pytest

from repro.bxtree.tree import BxTree
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.spatial.curves import HILBERT, ZCURVE
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


BOTH_CURVES = pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)


def make_bx(page_size=1024, curve=ZCURVE):
    grid = Grid(1000.0, 10, curve=curve)
    partitioner = TimePartitioner(120.0, 2)
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity=64)
    return BxTree(pool, grid, partitioner)


def mover(uid=1, x=100.0, y=200.0, vx=1.0, vy=-1.0, t=0.0):
    return MovingObject(uid=uid, x=x, y=y, vx=vx, vy=vy, t_update=t)


@BOTH_CURVES
def test_key_for_uses_label_timestamp_position(curve):
    tree = make_bx(curve=curve)
    obj = mover(x=100.0, y=200.0, vx=2.0, vy=0.0, t=0.0)
    # label(0.0) = 60 -> position as of 60 is (220, 200), partition 0.
    key = tree.key_for(obj)
    tid, zv = tree.codec.decompose(key)
    assert tid == 0
    assert zv == tree.grid.z_value(220.0, 200.0)


def test_key_partition_follows_update_time():
    tree = make_bx()
    assert tree.codec.decompose(tree.key_for(mover(t=10.0)))[0] == 1
    assert tree.codec.decompose(tree.key_for(mover(t=70.0)))[0] == 2
    assert tree.codec.decompose(tree.key_for(mover(t=130.0)))[0] == 0


def test_insert_and_contains():
    tree = make_bx()
    tree.insert(mover(uid=5))
    assert tree.contains(5)
    assert len(tree) == 1
    assert not tree.contains(6)


def test_double_insert_rejected():
    tree = make_bx()
    tree.insert(mover(uid=5))
    with pytest.raises(KeyError):
        tree.insert(mover(uid=5))


def test_delete_unknown_is_false():
    tree = make_bx()
    assert tree.delete(42) is False


def test_update_replaces_entry():
    tree = make_bx()
    tree.insert(mover(uid=5, x=100, y=100, t=0.0))
    tree.update(mover(uid=5, x=700, y=700, t=30.0))
    assert len(tree) == 1
    states = tree.fetch_all()
    assert len(states) == 1
    assert states[0].x == 700


def test_max_speed_tracking():
    tree = make_bx()
    tree.insert(mover(uid=1, vx=2.0, vy=-3.0))
    tree.insert(mover(uid=2, vx=-5.0, vy=1.0))
    assert tree.max_speed_x == 5.0
    assert tree.max_speed_y == 3.0


@BOTH_CURVES
def test_many_updates_keep_structure_sound(curve):
    tree = make_bx(curve=curve)
    for uid in range(200):
        tree.insert(mover(uid=uid, x=uid * 4.0, y=uid * 3.0, t=0.0))
    for round_index in range(1, 4):
        t = round_index * 30.0
        for uid in range(0, 200, 2):
            tree.update(mover(uid=uid, x=(uid * 7) % 1000, y=(uid * 13) % 1000, t=t))
        tree.btree.check_invariants()
    assert len(tree) == 200
    assert len(tree.fetch_all()) == 200
