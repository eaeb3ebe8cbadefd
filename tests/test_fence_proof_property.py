"""Soundness of the fence proof a band scan reports.

A scan of ``[lo, hi]`` sees, in the leaves it touches anyway, the entry
just below and just above its range (:class:`repro.btree.tree.ScanFence`).
:meth:`repro.core.peb_tree.PEBTree.scan_band_rows` turns that into the
widest Z-interval of the scanned ``(tid, sv_q)`` stratum that provably
holds exactly the returned rows (:attr:`BandRows.proven`), and the
engine's stratum residency answers later bands from it without going
back to the tree — so an unsound proof is a silently wrong query
result.  Both layers are checked against the simplest model, over
random histories that split and merge leaves:

* B+-tree: the fence names the true neighbours of the range in a dict
  model (or admits it does not know the lower one: a range that starts
  on a leaf edge).
* PEB-tree: every reported interval contains the requested band, and a
  fresh scan of the *whole* reported interval returns exactly the same
  rows — over strata that share a leaf, strata that straddle leaves,
  the first and last leaf, and the empty tree.  Multi-SV spans and the
  ZV-first ablation layout report no proof.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.tree import CHAIN_START, MAX_UID, ScanFence
from repro.core.ablation import make_zv_first_tree
from repro.core.peb_tree import PEBTree
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

from tests.conftest import make_tree
from tests.test_packed_leaf_property import OPS, WINDOWS, apply_ops

# ----------------------------------------------------------------------
# B+-tree layer: the fence against a dict model
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops=OPS, window=WINDOWS)
def test_scan_fence_names_the_true_neighbours(ops, window):
    tree = make_tree(page_size=512, buffer_pages=8)
    model: dict = {}
    apply_ops(tree, model, ops)
    key_a, key_b, uid_a, uid_b = window
    lo = min((key_a, uid_a), (key_b, uid_b))
    hi = max((key_a, uid_a), (key_b, uid_b))

    fence = ScanFence()
    scanned = [ck for keys, _ in tree.scan_chunks(lo, hi, fence) for ck in keys]
    assert scanned == sorted(ck for ck in model if lo <= ck <= hi)

    smaller = [ck for ck in model if ck < lo]
    if fence.below is None:
        pass  # the range started on a leaf edge: nothing claimed
    elif fence.below == CHAIN_START:
        assert not smaller
    else:
        assert fence.below == max(smaller)
    larger = [ck for ck in model if ck > hi]
    if larger:
        assert fence.above == min(larger)
    else:
        assert fence.above is not None and all(fence.above > ck for ck in model)
        assert fence.above[0].bit_length() > 8 * tree.config.key_bytes


def test_empty_range_and_empty_tree_fences():
    tree = make_tree()
    fence = ScanFence()
    assert list(tree.scan_chunks((5, 0), (4, 0), fence)) == []
    assert fence.below is None and fence.above is None  # lo > hi: no claim
    assert list(tree.scan_chunks((0, 0), (9, MAX_UID), fence)) == []
    assert fence.below == CHAIN_START
    assert fence.above[0].bit_length() > 8 * tree.config.key_bytes


def test_range_starting_on_a_leaf_edge_claims_nothing_below():
    tree = make_tree(page_size=512)
    for key in range(0, 400, 2):
        tree.insert(key, 0, bytes(16))
    leaves = [list(keys) for keys, _ in tree.leaf_runs()]
    assert len(leaves) > 2
    first_of_second = leaves[1][0]
    # Deleting a leaf's first entry leaves the separator above it stale:
    # a range starting in the gap lands on that leaf's edge, and the
    # true predecessor sits in the previous leaf, which is never read.
    assert tree.delete(*first_of_second)
    gap = first_of_second[0] + 1
    fence = ScanFence()
    assert list(tree.scan_chunks((gap, 0), (gap, MAX_UID), fence)) == []
    assert fence.below is None
    assert fence.above == leaves[1][1]


# ----------------------------------------------------------------------
# PEB-tree layer: the proven interval against a fresh scan of all of it
# ----------------------------------------------------------------------

N_USERS = 48
SPACE = 1000.0


def _sequence_value(uid: int) -> float:
    # Users 0-23 crowd four strata (six users each: with 512-byte pages
    # a stratum straddles leaves); the rest have one stratum apiece and
    # share leaves with their neighbours.
    return float(uid % 4) if uid < 24 else 10.0 + uid


def _store() -> PolicyStore:
    store = PolicyStore()
    store.set_sequence_values({uid: _sequence_value(uid) for uid in range(N_USERS)})
    return store


_STORE = _store()


def _peb(factory=PEBTree) -> PEBTree:
    pool = BufferPool(SimulatedDisk(page_size=512), capacity=16)
    return factory(pool, Grid(SPACE, 6), TimePartitioner(120.0, 2), _STORE)


COORDS = st.floats(min_value=0.0, max_value=SPACE - 1.0, allow_nan=False)
STATES = st.tuples(
    st.integers(min_value=0, max_value=N_USERS - 1),
    COORDS,
    COORDS,
    st.sampled_from((0.0, 70.0, 130.0)),  # three label timestamps -> tids
)
HISTORY = st.lists(
    st.one_of(
        st.tuples(st.just("update"), STATES),
        st.tuples(st.just("delete"), st.integers(0, N_USERS - 1)),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("batch"), st.lists(STATES, min_size=1, max_size=24)),
    ),
    max_size=50,
)
Z = st.integers(min_value=0, max_value=(1 << 12) - 1)
PROBES = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, N_USERS - 1), Z, Z),
    min_size=1,
    max_size=12,
)


def _state(draw) -> MovingObject:
    uid, x, y, t_update = draw
    return MovingObject(uid=uid, x=x, y=y, vx=0.0, vy=0.0, t_update=t_update)


def _apply(tree: PEBTree, model: dict, history) -> None:
    for kind, payload in history:
        if kind == "update":
            obj = _state(payload)
            tree.update(obj)
            model[obj.uid] = obj
        elif kind == "delete":
            assert tree.delete(payload) == (payload in model)
            model.pop(payload, None)
        elif kind == "flush":
            tree.btree.pool.clear()
        else:
            states = [_state(draw) for draw in payload]
            tree.update_batch(states)  # two apply_sorted_batch sweeps
            for obj in states:
                model[obj.uid] = obj
        tree.btree.check_invariants()


def _signature(rows):
    return list(zip(rows.zvs, (record[0] for record in rows.records)))


def _expected(tree: PEBTree, model: dict, tid, sv_q, z_lo, z_hi):
    hits = []
    for obj in model.values():
        k_tid, k_sv, zv = tree.codec.decompose(tree.key_for(obj))
        if (k_tid, k_sv) == (tid, sv_q) and z_lo <= zv <= z_hi:
            hits.append((zv, obj.uid))
    return sorted(hits)


@settings(max_examples=60, deadline=None)
@given(history=HISTORY, probes=PROBES)
def test_proven_interval_holds_exactly_the_returned_rows(history, probes):
    tree = _peb()
    model: dict = {}
    _apply(tree, model, history)
    max_z = tree.grid.max_z
    for tid, uid, z_a, z_b in probes:
        sv_q = tree.codec.quantize_sv(_sequence_value(uid))
        for z_lo, z_hi in ((min(z_a, z_b), max(z_a, z_b)), (0, max_z)):
            rows = tree.scan_band_rows(tid, sv_q, sv_q, z_lo, z_hi)
            assert _signature(rows) == _expected(tree, model, tid, sv_q, z_lo, z_hi)
            assert rows.proven is not None
            p_lo, p_hi = rows.proven
            assert 0 <= p_lo <= z_lo and z_hi <= p_hi <= max_z
            # The proof: nothing else of the stratum lies in the wider
            # interval — by the model and by the tree itself.
            assert _expected(tree, model, tid, sv_q, p_lo, p_hi) == _signature(rows)
            whole = tree.scan_band_rows(tid, sv_q, sv_q, p_lo, p_hi)
            assert whole == rows
            # Re-scanning what was proven can only prove at least as much.
            assert whole.proven[0] <= p_lo and p_hi <= whole.proven[1]


def test_empty_tree_proves_the_whole_stratum():
    tree = _peb()
    rows = tree.scan_band_rows(1, 7, 7, 100, 200)
    assert len(rows) == 0
    assert rows.proven == (0, tree.grid.max_z)


@settings(max_examples=25, deadline=None)
@given(history=HISTORY, probes=PROBES)
def test_spans_and_the_zv_first_layout_report_no_proof(history, probes):
    sv_major, zv_first = _peb(), _peb(make_zv_first_tree)
    _apply(sv_major, {}, history)
    _apply(zv_first, {}, history)
    for tid, uid, z_a, z_b in probes:
        sv_q = sv_major.codec.quantize_sv(_sequence_value(uid))
        z_lo, z_hi = min(z_a, z_b), max(z_a, z_b)
        # A multi-SV span is not one stratum ...
        assert sv_major.scan_band_rows(tid, sv_q, sv_q + 1, z_lo, z_hi).proven is None
        # ... and a ZV-first stratum is not key-contiguous.
        assert zv_first.scan_band_rows(tid, sv_q, sv_q, z_lo, z_hi).proven is None
