"""Tests for the space-filling-curve abstraction (``repro.spatial.curves``).

Core invariants: encode/decode bijectivity, agreement with the dedicated
Z/Hilbert modules, exactness of the generic decomposition on both
curves, span covering, and full PEB-tree query equivalence on a
Hilbert-backed grid.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.motion.partitions import TimePartitioner
from repro.spatial.curves import (
    CURVES,
    HILBERT,
    ZCURVE,
    curve_decompose,
    curve_span,
    make_curve,
)
from repro.spatial.decompose import decompose_rect
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.spatial.hilbert import hilbert_encode
from repro.spatial.zcurve import z_encode
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.workloads.policies import PolicyGenerator
from repro.workloads.queries import QueryGenerator
from repro.workloads.uniform import UniformMovement

BITS = 6
SIDE = 1 << BITS


def test_registry_and_lookup():
    assert set(CURVES) == {"z", "hilbert"}
    assert make_curve("z") is ZCURVE
    assert make_curve("hilbert") is HILBERT
    with pytest.raises(ValueError, match="unknown curve"):
        make_curve("peano")


@pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)
def test_encode_decode_roundtrip_exhaustive(curve):
    bits = 4
    seen = set()
    for ix in range(1 << bits):
        for iy in range(1 << bits):
            value = curve.encode(ix, iy, bits)
            assert 0 <= value < 1 << (2 * bits)
            assert curve.decode(value, bits) == (ix, iy)
            seen.add(value)
    assert len(seen) == 1 << (2 * bits)  # bijective


def test_zcurve_agrees_with_zcurve_module():
    for ix, iy in [(0, 0), (3, 5), (63, 1), (31, 31)]:
        assert ZCURVE.encode(ix, iy, BITS) == z_encode(ix, iy)


def test_hilbert_agrees_with_hilbert_module():
    for ix, iy in [(0, 0), (3, 5), (63, 1), (31, 31)]:
        assert HILBERT.encode(ix, iy, BITS) == hilbert_encode(ix, iy, BITS)


@pytest.mark.parametrize(
    "ix, iy, bits, expected",
    [
        # The spread table (bits <= 16): its first and last entries.
        (0, 0, 1, 0),
        (1, 1, 1, 3),
        (5, 3, 3, z_encode(5, 3)),
        (1023, 0, 10, z_encode(1023, 0)),
        ((1 << 16) - 1, (1 << 16) - 1, 16, (1 << 32) - 1),
        # Past the table: the computed spread.
        ((1 << 16) + 3, 12345, 17, z_encode((1 << 16) + 3, 12345)),
        ((1 << 32) - 1, 0, 32, z_encode((1 << 32) - 1, 0)),
        # Out of the grid, on either side of either axis, table or not.
        (-1, 0, 10, ValueError),
        (0, -1, 10, ValueError),
        (1 << 10, 0, 10, ValueError),
        (0, 1 << 10, 10, ValueError),
        (-1, 0, 20, ValueError),
        (1 << 20, 0, 20, ValueError),
    ],
)
def test_zcurve_encode_table(ix, iy, bits, expected):
    """A table lookup up to 16 bits, the spread beyond; a negative cell
    or one at or past ``2**bits`` is refused either way (a negative
    index would otherwise read the table from its end)."""
    if expected is ValueError:
        with pytest.raises(ValueError, match="outside"):
            ZCURVE.encode(ix, iy, bits)
    else:
        assert ZCURVE.encode(ix, iy, bits) == expected


@pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)
def test_encode_rejects_out_of_grid(curve):
    with pytest.raises(ValueError):
        curve.encode(1 << BITS, 0, BITS)
    with pytest.raises(ValueError):
        curve.decode(1 << (2 * BITS), BITS)


@pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)
def test_unit_steps_adjacent_on_hilbert_only(curve):
    """Hilbert consecutive values are always 4-neighbours; Z are not."""
    jumps = 0
    prev = curve.decode(0, BITS)
    for value in range(1, 1 << (2 * BITS)):
        x, y = curve.decode(value, BITS)
        if abs(x - prev[0]) + abs(y - prev[1]) != 1:
            jumps += 1
        prev = (x, y)
    if curve is HILBERT:
        assert jumps == 0
    else:
        assert jumps > 0


# ----------------------------------------------------------------------
# Generic decomposition
# ----------------------------------------------------------------------


def cells_of_intervals(curve, intervals, bits):
    cells = set()
    for lo, hi in intervals:
        for value in range(lo, hi + 1):
            cells.add(curve.decode(value, bits))
    return cells


def box_strategy():
    coord = st.integers(min_value=0, max_value=SIDE - 1)
    return st.tuples(coord, coord, coord, coord).map(
        lambda v: (min(v[0], v[1]), max(v[0], v[1]), min(v[2], v[3]), max(v[2], v[3]))
    )


@settings(max_examples=60)
@given(box_strategy())
def test_curve_decompose_exact_on_hilbert(box):
    ix_lo, ix_hi, iy_lo, iy_hi = box
    intervals = curve_decompose(HILBERT, ix_lo, ix_hi, iy_lo, iy_hi, BITS)
    expected = {
        (ix, iy)
        for ix in range(ix_lo, ix_hi + 1)
        for iy in range(iy_lo, iy_hi + 1)
    }
    assert cells_of_intervals(HILBERT, intervals, BITS) == expected
    # Sorted, disjoint, non-adjacent.
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 + 1 < lo2


@settings(max_examples=60)
@given(box_strategy())
def test_curve_decompose_matches_z_module(box):
    ix_lo, ix_hi, iy_lo, iy_hi = box
    generic = curve_decompose(ZCURVE, ix_lo, ix_hi, iy_lo, iy_hi, BITS)
    dedicated = decompose_rect(ix_lo, ix_hi, iy_lo, iy_hi, BITS)
    assert generic == dedicated


@settings(max_examples=40)
@given(box_strategy())
def test_coarsened_decompose_over_covers(box):
    ix_lo, ix_hi, iy_lo, iy_hi = box
    exact = curve_decompose(HILBERT, ix_lo, ix_hi, iy_lo, iy_hi, BITS)
    coarse = curve_decompose(HILBERT, ix_lo, ix_hi, iy_lo, iy_hi, BITS, 4)
    exact_cells = cells_of_intervals(HILBERT, exact, BITS)
    coarse_cells = cells_of_intervals(HILBERT, coarse, BITS)
    assert exact_cells <= coarse_cells
    assert len(coarse) <= len(exact) or len(exact) <= 1


def test_curve_decompose_full_grid_single_interval():
    intervals = curve_decompose(HILBERT, 0, SIDE - 1, 0, SIDE - 1, BITS)
    assert intervals == [(0, SIDE * SIDE - 1)]


def test_curve_decompose_clips_and_rejects():
    assert curve_decompose(HILBERT, -5, -1, 0, 3, BITS) == []
    assert curve_decompose(HILBERT, SIDE, SIDE + 3, 0, 3, BITS) == []
    with pytest.raises(ValueError):
        curve_decompose(HILBERT, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        curve_decompose(HILBERT, 0, 1, 0, 1, BITS, 0)


@settings(max_examples=60)
@given(box_strategy())
def test_curve_span_covers_box(box):
    """Every cell's curve value must fall inside the span — both curves."""
    ix_lo, ix_hi, iy_lo, iy_hi = box
    for curve in (ZCURVE, HILBERT):
        span = curve_span(curve, ix_lo, ix_hi, iy_lo, iy_hi, BITS)
        assert span is not None
        lo, hi = span
        for ix in range(ix_lo, min(ix_hi + 1, ix_lo + 8)):
            for iy in range(iy_lo, min(iy_hi + 1, iy_lo + 8)):
                assert lo <= curve.encode(ix, iy, BITS) <= hi


def test_curve_span_empty_box():
    assert curve_span(HILBERT, 5, 4, 0, 3, BITS) is None


# ----------------------------------------------------------------------
# Hilbert-backed Grid and full query equivalence
# ----------------------------------------------------------------------


def test_grid_accepts_hilbert_curve():
    grid = Grid(1000.0, 8, curve=HILBERT)
    assert grid.z_value(0.0, 0.0) == 0
    rect = Rect(100, 300, 100, 300)
    span = grid.z_span(rect)
    assert span is not None
    intervals = grid.decompose(rect)
    assert intervals
    assert span[0] <= intervals[0][0]
    assert span[1] >= intervals[-1][1]


def build_world_on_curve(curve, n_users=150, seed=9):
    space = 1000.0
    movement = UniformMovement(space, 3.0, random.Random(seed))
    states = {obj.uid: obj for obj in movement.initial_objects(n_users, t=0.0)}
    store = PolicyGenerator(space, 1440.0, random.Random(seed + 1)).generate(
        sorted(states), 8, 0.7
    )
    report = assign_sequence_values(sorted(states), store, space**2)
    store.set_sequence_values(report.sequence_values)
    grid = Grid(space, 10, curve=curve)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    tree = PEBTree(pool, grid, TimePartitioner(120.0, 2), store)
    for obj in states.values():
        tree.insert(obj)
    return states, store, tree


@pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)
def test_prq_equivalence_on_curve(curve):
    states, store, tree = build_world_on_curve(curve)
    queries = QueryGenerator(1000.0, random.Random(13)).range_queries(
        sorted(states), 10, 250.0, 0.0
    )
    for query in queries:
        expected = brute_force_prq(
            states, store, query.q_uid, query.window, query.t_query
        )
        assert prq(tree, query.q_uid, query.window, query.t_query).uids == expected


@pytest.mark.parametrize("curve", [ZCURVE, HILBERT], ids=lambda c: c.name)
def test_pknn_equivalence_on_curve(curve):
    states, store, tree = build_world_on_curve(curve)
    queries = QueryGenerator(1000.0, random.Random(14)).knn_queries(
        states, 10, 3, 0.0
    )
    for query in queries:
        expected = brute_force_pknn(
            states, store, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        answer = pknn(tree, query.q_uid, query.qx, query.qy, query.k, query.t_query)
        got = [round(d, 9) for d, _ in answer.neighbors]
        assert got == [round(d, 9) for d, _ in expected]
