"""Tests for Bx-tree range and kNN queries, including the Figure 2
scenario of objects moving into the query window by query time; the
brute-force checks run on the paper's Z-curve and on Hilbert."""

import random

import pytest

from repro.bxtree.queries import (
    bx_knn,
    bx_range_query,
    enlargement_for_label,
    estimate_knn_distance,
)
from repro.bxtree.tree import BxTree
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.spatial.curves import HILBERT, ZCURVE
from repro.spatial.geometry import Rect, euclidean
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


BOTH_CURVES = pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)


def make_bx(curve=ZCURVE):
    grid = Grid(1000.0, 10, curve=curve)
    partitioner = TimePartitioner(120.0, 2)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=256)
    return BxTree(pool, grid, partitioner)


def test_enlargement_for_label():
    assert enlargement_for_label(60.0, 10.0, 3.0) == 150.0
    assert enlargement_for_label(10.0, 60.0, 2.0) == 100.0
    assert enlargement_for_label(50.0, 50.0, 3.0) == 0.0


def test_knn_distance_estimator():
    # Unit-space formula scaled by the side; grows with k, shrinks with N.
    d_small = estimate_knn_distance(1, 10_000, 1000.0)
    d_large = estimate_knn_distance(10, 10_000, 1000.0)
    assert 0 < d_small < d_large < 1000.0
    assert estimate_knn_distance(5, 5, 1000.0) > 0  # saturated ratio
    with pytest.raises(ValueError):
        estimate_knn_distance(0, 10, 1000.0)
    with pytest.raises(ValueError):
        estimate_knn_distance(1, 0, 1000.0)


@BOTH_CURVES
def test_figure2_moving_objects_found_by_enlargement(curve):
    """Objects outside the window as stored, but inside at query time,
    must be found; objects moving away must be excluded."""
    tree = make_bx(curve)
    # Stored as of label 60; query at t=70 with window [400,600]^2.
    incoming = MovingObject(uid=1, x=390.0, y=500.0, vx=2.0, vy=0.0, t_update=0.0)
    # At t=70: x = 390 + 2*70 = 530 -> inside.
    outgoing = MovingObject(uid=2, x=595.0, y=500.0, vx=3.0, vy=0.0, t_update=0.0)
    # At t=70: x = 595 + 210 = 805 -> outside.
    parked = MovingObject(uid=3, x=500.0, y=500.0, vx=0.0, vy=0.0, t_update=0.0)
    for obj in (incoming, outgoing, parked):
        tree.insert(obj)
    found = {obj.uid for obj in bx_range_query(tree, Rect(400, 600, 400, 600), 70.0)}
    assert found == {1, 3}


@BOTH_CURVES
def test_range_query_matches_brute_force_random(curve):
    tree = make_bx(curve)
    rng = random.Random(9)
    objects = []
    for uid in range(300):
        obj = MovingObject(
            uid=uid,
            x=rng.uniform(0, 1000),
            y=rng.uniform(0, 1000),
            vx=rng.uniform(-3, 3),
            vy=rng.uniform(-3, 3),
            t_update=rng.uniform(0, 50),
        )
        objects.append(obj)
        tree.insert(obj)
    for _ in range(25):
        t_query = rng.uniform(50, 100)
        x_lo = rng.uniform(0, 800)
        y_lo = rng.uniform(0, 800)
        window = Rect(x_lo, x_lo + 200, y_lo, y_lo + 200)
        expected = {
            obj.uid for obj in objects if window.contains(*obj.position_at(t_query))
        }
        found = {obj.uid for obj in bx_range_query(tree, window, t_query)}
        assert found == expected


@BOTH_CURVES
def test_knn_matches_brute_force_random(curve):
    tree = make_bx(curve)
    rng = random.Random(10)
    objects = []
    for uid in range(250):
        obj = MovingObject(
            uid=uid,
            x=rng.uniform(0, 1000),
            y=rng.uniform(0, 1000),
            vx=rng.uniform(-3, 3),
            vy=rng.uniform(-3, 3),
            t_update=0.0,
        )
        objects.append(obj)
        tree.insert(obj)
    for _ in range(15):
        t_query = rng.uniform(0, 50)
        qx, qy = rng.uniform(0, 1000), rng.uniform(0, 1000)
        k = rng.randint(1, 8)
        expected = sorted(
            euclidean(qx, qy, *obj.position_at(t_query)) for obj in objects
        )[:k]
        found = bx_knn(tree, qx, qy, k, t_query)
        assert len(found) == k
        got = [distance for distance, _ in found]
        assert got == pytest.approx(expected)


def test_knn_on_empty_tree():
    tree = make_bx()
    assert bx_knn(tree, 500, 500, 5, 0.0) == []


@BOTH_CURVES
def test_knn_with_k_exceeding_population(curve):
    tree = make_bx(curve)
    for uid in range(3):
        tree.insert(MovingObject(uid=uid, x=uid * 100.0, y=0, vx=0, vy=0, t_update=0))
    found = bx_knn(tree, 0, 0, 10, 0.0)
    assert len(found) == 3


@BOTH_CURVES
def test_range_query_empty_window(curve):
    tree = make_bx(curve)
    tree.insert(MovingObject(uid=1, x=500, y=500, vx=0, vy=0, t_update=0))
    assert bx_range_query(tree, Rect(0, 10, 0, 10), 0.0) == []
