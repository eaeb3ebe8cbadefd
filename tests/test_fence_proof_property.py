"""Soundness of the fence proof a band scan reports.

A scan of ``[lo, hi]`` sees, in the leaves it touches anyway, the entry
just below and just above its range
(:meth:`repro.btree.tree.BPlusTree.scan_fenced`).
:meth:`repro.core.peb_tree.PEBTree.scan_bands_rows` turns that into the
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
* The sweep: a batch prefetch hands the tree a whole shard job
  (``scan_bands_rows(bands)``).  It must be indistinguishable from one
  ``scan_band_rows`` call per band — rows, proofs, buffer traffic and
  LRU order — stop where a disk fault stops it with the earlier bands
  accounted for, and be entered once per (shard, batch).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.tree import CHAIN_START, MAX_UID, BPlusTree
from repro.core.ablation import make_zv_first_tree
from repro.core.peb_tree import PEBTree
from repro.engine import QueryEngine
from repro.engine.plan import BandRequest
from repro.engine.scanner import BandScanner
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.spatial.decompose import merge_intervals
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import DiskFaultError, FaultyDisk, TransientFaultSchedule

from tests.conftest import build_world, make_tree
from tests.test_packed_leaf_property import OPS, WINDOWS, apply_ops

# ----------------------------------------------------------------------
# B+-tree layer: the fence against a dict model
# ----------------------------------------------------------------------


def assert_fence_matches_model(tree: BPlusTree, model, lo, hi) -> None:
    """``scan_fenced(lo, hi)`` returns the model's entries in range and
    names their true neighbours (or admits it does not know the lower
    one)."""
    chunks, below, above = tree.scan_fenced(lo, hi)
    scanned = [ck for keys, _ in chunks for ck in keys]
    assert scanned == sorted(ck for ck in model if lo <= ck <= hi)
    assert chunks == list(tree.scan_chunks(lo, hi))

    smaller = [ck for ck in model if ck < lo]
    if below is None:
        pass  # the range started on a leaf edge: nothing claimed
    elif below == CHAIN_START:
        assert not smaller
    else:
        assert below == max(smaller)
    larger = [ck for ck in model if ck > hi]
    if larger:
        assert above == min(larger)
    else:
        assert above is not None and all(above > ck for ck in model)
        assert above[0].bit_length() > 8 * tree.config.key_bytes


@settings(max_examples=60, deadline=None)
@given(ops=OPS, window=WINDOWS)
def test_scan_fence_names_the_true_neighbours(ops, window):
    tree = make_tree(page_size=512, buffer_pages=8)
    model: dict = {}
    apply_ops(tree, model, ops)
    key_a, key_b, uid_a, uid_b = window
    lo = min((key_a, uid_a), (key_b, uid_b))
    hi = max((key_a, uid_a), (key_b, uid_b))
    assert_fence_matches_model(tree, model, lo, hi)


def test_empty_range_and_empty_tree_fences():
    tree = make_tree()
    reads = tree.pool.stats.logical_reads
    assert tree.scan_fenced((5, 0), (4, 0)) == ([], None, None)  # lo > hi: no claim
    assert tree.pool.stats.logical_reads == reads  # ... and no page touched
    chunks, below, above = tree.scan_fenced((0, 0), (9, MAX_UID))
    assert chunks == []
    assert below == CHAIN_START
    assert above[0].bit_length() > 8 * tree.config.key_bytes


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
    chunks, below, above = tree.scan_fenced((gap, 0), (gap, MAX_UID))
    assert chunks == []
    assert below is None
    assert above == leaves[1][1]


# ----------------------------------------------------------------------
# PEB-tree layer: the proven interval against a fresh scan of all of it
# ----------------------------------------------------------------------

# 80 users: the mid-sweep fault test's capacity-4 tree is 21 leaves and
# its prefetch reads 13 pages cold (48 users pack into 8 reads once a
# shed may fill both pages, below that test's floor of 10).
N_USERS = 80
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


def _peb(factory=PEBTree, capacity=16, disk=SimulatedDisk, page_size=512) -> PEBTree:
    pool = BufferPool(disk(page_size=page_size), capacity=capacity)
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


# ----------------------------------------------------------------------
# The sweep: many bands in one call, indistinguishable from one at a time
# ----------------------------------------------------------------------

# Stratum slots: a user's own stratum, or (past N_USERS) one above every
# user's — a band there runs off the end of its partition, and in the
# last partition off the end of the leaf chain.
BANDS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, N_USERS + 3), Z, Z),
    min_size=1,
    max_size=8,
)
PICKS = st.lists(st.integers(0, 63), min_size=1, max_size=24)


def _sv_q(tree: PEBTree, slot: int) -> int:
    sv = _sequence_value(slot) if slot < N_USERS else 10.0 + slot
    return tree.codec.quantize_sv(sv)


def _leaf_edge_bands(tree: PEBTree) -> list:
    """One band starting exactly on each leaf's first key."""
    bands = []
    for keys, _ in tree.btree.leaf_runs():
        tid, sv_q, zv = tree.codec.decompose(keys[0][0])
        bands.append((tid, sv_q, zv, min(zv + 40, tree.grid.max_z)))
    return bands


def _buffer_state(tree: PEBTree):
    pool = tree.btree.pool
    return (
        pool.stats.logical_reads,
        pool.stats.physical_reads,
        pool.resident_pages,
        list(pool.policy._order),  # least recently used first
    )


@settings(max_examples=60, deadline=None)
@given(history=HISTORY, drawn=BANDS, picks=PICKS)
def test_sweep_equals_one_scan_per_band_in_rows_proofs_and_page_touches(
    history, drawn, picks
):
    # Three clones of one tree behind equal pools too small to hold it.
    swept, single, walked = (_peb(capacity=6) for _ in range(3))
    for tree in (swept, single, walked):
        _apply(tree, {}, history)
        edges = _leaf_edge_bands(tree)  # reads the chain: on every clone alike
    # Random bands (z_lo > z_hi among them, and partitions that hold
    # nothing whenever the history left one empty) plus every leaf
    # edge; picking with replacement makes duplicates the rule.
    candidates = [
        (tid, _sv_q(swept, slot), z_a, z_b) for tid, slot, z_a, z_b in drawn
    ] + edges
    bands = [candidates[pick % len(candidates)] for pick in picks]

    got = list(swept.scan_bands_rows(bands))
    want = [
        single.scan_band_rows(tid, sv_q, sv_q, z_lo, z_hi)
        for tid, sv_q, z_lo, z_hi in bands
    ]
    assert len(got) == len(bands)
    for rows, reference in zip(got, want):
        assert rows == reference
        assert rows.proven == reference.proven
    # The third clone walks each range with the lazy per-leaf scan: no
    # fence, no sweep — the page touches a band scan has always made.
    compose = walked.codec.compose_quantized
    for tid, sv_q, z_lo, z_hi in bands:
        lo, hi = compose(tid, sv_q, z_lo), compose(tid, sv_q, z_hi)
        for _ in walked.btree.scan_chunks((lo, 0), (hi, MAX_UID)):
            pass
    assert _buffer_state(swept) == _buffer_state(single) == _buffer_state(walked)


def _per_band_prefetch(scanner: BandScanner, bands) -> None:
    """The reference: prefetch as a loop of single-band tree scans.

    Same grouping, same order, same accounting points as
    ``BandScanner.prefetch`` — a scan is counted when it is issued, a
    stratum's entries when its last run has landed, and a stratum's
    residency exists once its first run has landed.
    """
    grouped: dict = {}
    for band in bands:
        grouped.setdefault((band.tid, band.sv_lo_q), []).append((band.z_lo, band.z_hi))
    for (tid, sv_q), intervals in grouped.items():
        coverage = merge_intervals(sorted(intervals))
        prefetched = 0
        for z_lo, z_hi in coverage:
            scanner.physical_scans += 1
            rows = scanner.tree.scan_band_rows(tid, sv_q, sv_q, z_lo, z_hi)
            scanner.residency(tid, sv_q)._add(z_lo, z_hi, rows)
            prefetched += len(rows)
        scanner.entries_prefetched += prefetched


def _scanner_state(scanner: BandScanner):
    return (
        scanner.physical_scans,
        scanner.entries_prefetched,
        [
            (
                key,
                resident._edges,
                list(zip(resident.rows.zvs, resident.rows.records)),
            )
            for key, resident in scanner._residency.items()
        ],
        _buffer_state(scanner.tree),
    )


def test_a_fault_mid_sweep_leaves_what_the_per_band_loop_leaves():
    population = [
        ("update", (uid, 37.0 * uid % SPACE, 91.0 * uid % SPACE, (0.0, 70.0)[uid % 2]))
        for uid in range(N_USERS)
    ]

    def cold_tree() -> PEBTree:
        tree = _peb(capacity=8, disk=FaultyDisk, page_size=256)
        _apply(tree, {}, population)
        tree.btree.pool.clear()
        tree.btree.pool.disk.heal()  # read attempts count from here
        return tree

    # Every stratum of both live partitions, in two disjoint pieces:
    # each stratum is two coverage runs, so a fault can land between
    # the runs of one stratum as well as between strata.
    probe = cold_tree()
    max_z = probe.grid.max_z
    bands = [
        BandRequest(tid, sv_q, sv_q, z_lo, z_hi)
        for tid in (0, 1)
        for sv_q in sorted({_sv_q(probe, uid) for uid in range(N_USERS)})
        for z_lo, z_hi in ((0, max_z // 3), (max_z // 2, max_z))
    ]
    clean = BandScanner(probe)
    built = probe.stats.physical_reads
    clean.prefetch(bands)
    reads = probe.stats.physical_reads - built
    assert reads >= 10

    mid_stratum = 0
    for failing_read in range(1, reads + 1):
        swept, looped = BandScanner(cold_tree()), BandScanner(cold_tree())
        for scanner in (swept, looped):
            scanner.tree.btree.pool.disk.schedule = TransientFaultSchedule(
                fail_reads=[failing_read]
            )
        with pytest.raises(DiskFaultError):
            swept.prefetch(bands)
        with pytest.raises(DiskFaultError):
            _per_band_prefetch(looped, bands)
        assert _scanner_state(swept) == _scanner_state(looped)
        assert swept.physical_scans <= clean.physical_scans
        # The failing scan was counted when issued; its stratum's
        # entries are not booked until the stratum completes.
        mid_stratum += swept.physical_scans % 2 == 0
        # The supervisor's retry: the same call again, fault cleared.
        swept.prefetch(bands)
        _per_band_prefetch(looped, bands)
        assert _scanner_state(swept) == _scanner_state(looped)
        assert [r.rows for r in swept._residency.values()] == [
            r.rows for r in clean._residency.values()
        ]
    assert mid_stratum  # some fault did land between one stratum's runs


def test_prefetch_enters_the_tree_once_per_shard_job(monkeypatch):
    """Not once per band: the batch's bands ride one sweep per shard."""
    world = build_world(n_users=220, n_policies=8, seed=29)
    sharded = world.deploy(4)
    specs = world.query_generator().range_queries(world.uids, 12, 300.0, 5.0)

    calls: Counter = Counter()
    prefetching = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if prefetching:
                calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(PEBTree, "scan_band_rows")
    counted(PEBTree, "scan_bands_rows")
    counted(BPlusTree, "scan_chunks")
    shard_prefetch = BandScanner.prefetch

    def prefetch(self, *args, **kwargs):
        calls["shard jobs"] += 1
        prefetching.append(self)
        try:
            return shard_prefetch(self, *args, **kwargs)
        finally:
            prefetching.pop()

    monkeypatch.setattr(BandScanner, "prefetch", prefetch)

    report = QueryEngine(sharded).execute_batch(specs)
    assert calls["shard jobs"] >= 2
    assert calls["scan_bands_rows"] == calls["shard jobs"]
    assert calls["scan_band_rows"] == 0 and calls["scan_chunks"] == 0
    # ... for many times as many bands.
    assert report.stats.bands_scanned > 10 * calls["shard jobs"]
