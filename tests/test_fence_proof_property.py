"""Soundness of the fence proof a band scan reports.

A scan of ``[lo, hi]`` sees, in the leaves it touches anyway, the entry
just below and just above its range
(:meth:`repro.btree.tree.BPlusTree.scan_fenced`).
:meth:`repro.core.peb_tree.PEBTree.scan_band_rows` turns that into the
widest Z-interval of the scanned ``(tid, sv_q)`` stratum that provably
holds exactly the returned rows (:attr:`BandRows.proven`), and the
engine's stratum residency answers later bands from it without going
back to the tree — so an unsound proof is a silently wrong query
result.  Both layers are checked against the simplest model, over
random histories that split and merge leaves:

* B+-tree: the fence names the true neighbours of the range in a dict
  model (or admits it does not know the lower one: a range that starts
  on a leaf edge), except that the upper one may be the landing leaf's
  upper separator when that lies between ``hi`` and the true successor
  (the scan stops there instead of reading the next leaf).
* PEB-tree: every reported interval contains the requested band, and a
  fresh scan of the *whole* reported interval returns exactly the same
  rows — over strata that share a leaf, strata that straddle leaves,
  the first and last leaf, and the empty tree.  Multi-SV spans and the
  ZV-first ablation layout report no proof.
* The key multi-get: a batch prefetch hands the tree a whole shard
  job's keys (``get_many(keys)``).  It must be indistinguishable from
  one ``scan_band_rows`` call per key's point band — rows, buffer
  traffic and LRU order — stop where a disk fault stops it with exactly
  the earlier keys fetched, and be entered once per (shard, batch).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.btree.node import NO_PAGE
from repro.btree.tree import CHAIN_START, MAX_UID, BPlusTree
from repro.core.ablation import make_zv_first_tree
from repro.core.peb_tree import PEBTree
from repro.engine import QueryEngine
from repro.engine.scanner import BandScanner
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import DiskFaultError, FaultyDisk, TransientFaultSchedule

from tests.conftest import build_world, make_tree
from tests.test_packed_leaf_property import OPS, WINDOWS, apply_ops
from tests.test_prefetch_residency_property import Cursor

# ----------------------------------------------------------------------
# B+-tree layer: the fence against a dict model
# ----------------------------------------------------------------------


def landing_upper(tree: BPlusTree, lo):
    """The upper separator of the leaf a scan from ``lo`` lands on, found
    by walking the internal nodes: each leaf owns ``[lower, upper)`` of
    the key space, and the landing leaf is the one with ``lower < lo <=
    upper`` (the descent takes the child left of a separator equal to
    ``lo``).  None for the last leaf."""
    bounds = []

    def walk(page_id, lower, upper, depth):
        if depth == tree.height:
            bounds.append((lower, upper))
            return
        node = tree.pool.get(page_id)
        edges = [lower, *node.separators, upper]
        for i, child in enumerate(node.children):
            walk(child, edges[i], edges[i + 1], depth + 1)

    walk(tree.root_id, None, None, 1)
    (upper,) = [
        upper
        for lower, upper in bounds
        if (lower is None or lower < lo) and (upper is None or lo <= upper)
    ]
    return upper


def assert_fence_matches_model(tree: BPlusTree, model, lo, hi) -> None:
    """``scan_fenced(lo, hi)`` returns the model's entries in range and
    names their true neighbours (or admits it does not know the lower
    one); the upper one is the least of the entries above ``hi`` and,
    when it lies above ``hi``, the landing leaf's upper separator."""
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
    expected = min(larger, default=(1 << (8 * tree.config.key_bytes), 0))
    upper = landing_upper(tree, lo)
    if upper is not None and upper > hi:
        expected = min(expected, upper)
    assert above == expected


#: Leaves [12..25], [26..39], [40..53]; deleting (40, 0) leaves the
#: separator (40, 0) stale above the true successor (41, 0), and a range
#: ending on the middle leaf's last entry is fenced by the separator.
STALE_SEPARATOR_OPS = [
    ("batch", [(key, 0) for key in range(12, 54)]),
    ("delete", (40, 0)),
]


@settings(max_examples=60, deadline=None)
@given(ops=OPS, window=WINDOWS)
@example(ops=STALE_SEPARATOR_OPS, window=(30, 39, 0, 15))
def test_scan_fence_names_the_true_neighbours(ops, window):
    tree = make_tree(page_size=512, buffer_pages=8)
    model: dict = {}
    apply_ops(tree, model, ops)
    # Every key right of a separator is at least it: the bound that
    # makes a separator a sound fence.
    tree.check_invariants()
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


def test_range_ending_below_a_stale_separator_reads_one_leaf():
    tree = make_tree(page_size=512)
    model: dict = {}
    apply_ops(tree, model, STALE_SEPARATOR_OPS)
    assert [keys[-1] for keys, _ in tree.leaf_runs()][:2] == [(25, 0), (39, 0)]
    assert (40, 0) not in model and (41, 0) in model
    reads = tree.pool.stats.logical_reads
    chunks, below, above = tree.scan_fenced((30, 0), (39, MAX_UID))
    # The descent and the landing leaf once more, and no next leaf: the
    # separator (40, 0) already says nothing there is <= hi.
    assert tree.pool.stats.logical_reads - reads == tree.height + 1
    assert [ck for keys, _ in chunks for ck in keys] == [
        (key, 0) for key in range(30, 40)
    ]
    assert below == (29, 0)
    assert above == (40, 0)  # the separator, below the true successor (41, 0)


def test_point_band_on_a_leafs_last_entry_reads_no_next_leaf(monkeypatch):
    tree = make_tree(page_size=512)
    for key in range(0, 400, 2):
        tree.insert(key, 0, bytes(16))
    leaf_ids, leaves = [], []
    leaf_id = tree.first_leaf_id
    while leaf_id != NO_PAGE:
        leaf = tree.pool.get(leaf_id)
        leaf_ids.append(leaf_id)
        leaves.append(leaf.keys)
        leaf_id = leaf.next_leaf
    assert len(leaves) > 2
    last_key = leaves[1][-1][0]
    lo, hi = (last_key, 0), (last_key, MAX_UID)
    descent = [page_id for page_id, _ in tree._descend(lo)]
    assert descent[-1] == leaf_ids[1]
    got: list = []
    get = tree.pool.get

    def recorded(page_id):
        got.append(page_id)
        return get(page_id)

    monkeypatch.setattr(tree.pool, "get", recorded)
    for scan in (
        lambda: tree.scan_fenced(lo, hi)[0],
        lambda: list(tree.scan_chunks(lo, hi)),
    ):
        got.clear()
        chunks = scan()
        assert [keys for keys, _ in chunks] == [[(last_key, 0)]]
        # Exactly the descent (root to the landing leaf) and the landing
        # leaf again as the walk's first: the next leaf is never got.
        assert got == [*descent, leaf_ids[1]]
    assert tree.scan_fenced(lo, hi)[2] == leaves[2][0]  # the separator


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
# The key multi-get: many keys in one call, indistinguishable from one at a time
# ----------------------------------------------------------------------

# Stratum slots: a user's own stratum, or (past N_USERS) one above every
# user's — a key there lies past its partition's last entry, and in the
# last partition past the end of the leaf chain.
KEYS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, N_USERS + 3), Z),
    min_size=1,
    max_size=8,
)
PICKS = st.lists(st.integers(0, 63), min_size=1, max_size=24)


def _sv_q(tree: PEBTree, slot: int) -> int:
    sv = _sequence_value(slot) if slot < N_USERS else 10.0 + slot
    return tree.codec.quantize_sv(sv)


def _leaf_edge_keys(tree: PEBTree) -> list:
    """Each leaf's first and last key: a point band on a leaf's last
    entry is fenced by the separator, not by reading the next leaf."""
    keys = []
    for leaf_keys, _ in tree.btree.leaf_runs():
        keys += [leaf_keys[0][0], leaf_keys[-1][0]]
    return keys


def _buffer_state(tree: PEBTree):
    pool = tree.btree.pool
    return (
        pool.stats.logical_reads,
        pool.stats.physical_reads,
        pool.resident_pages,
        list(pool.policy._order),  # least recently used first
    )


@settings(max_examples=60, deadline=None)
@given(history=HISTORY, drawn=KEYS, picks=PICKS)
def test_multi_get_equals_one_point_scan_per_key_in_rows_and_page_touches(
    history, drawn, picks
):
    # Three clones of one tree behind equal pools too small to hold it.
    fetched, single, walked = (_peb(capacity=6) for _ in range(3))
    for tree in (fetched, single, walked):
        _apply(tree, {}, history)
        edges = _leaf_edge_keys(tree)  # reads the chain: on every clone alike
    # Random keys (in partitions and strata that hold nothing among
    # them) plus every leaf's edge keys, picked with replacement and
    # sorted as a batch's keys are; a repeat is fetched again.
    compose = fetched.codec.compose_quantized
    candidates = [
        compose(tid, _sv_q(fetched, slot), z) for tid, slot, z in drawn
    ] + edges
    keys = sorted(candidates[pick % len(candidates)] for pick in picks)

    got = list(fetched.get_many(keys))
    decompose = single.codec.decompose
    want = []
    for key in keys:
        tid, sv_q, zv = decompose(key)
        want.append(single.scan_band_rows(tid, sv_q, sv_q, zv, zv))
    assert got == want
    # The third clone walks each key with the lazy per-leaf scan: no
    # fence, no multi-get — the page touches a band scan has always made.
    for key in keys:
        for _ in walked.btree.scan_chunks((key, 0), (key, MAX_UID)):
            pass
    assert _buffer_state(fetched) == _buffer_state(single) == _buffer_state(walked)


def _per_key_prefetch(scanner: BandScanner, keys) -> None:
    """The reference: prefetch as a loop of single-band tree scans,
    counted when issued and kept when it lands."""
    decompose = scanner.tree.codec.decompose
    for key in keys:
        scanner.physical_scans += 1
        tid, sv_q, zv = decompose(key)
        rows = scanner.fetched[key] = scanner.tree.scan_band_rows(tid, sv_q, sv_q, zv, zv)
        scanner.entries_prefetched += len(rows)


def _scanner_state(scanner: BandScanner):
    return (
        scanner.physical_scans,
        scanner.entries_prefetched,
        {key: list(zip(rows.zvs, rows.records)) for key, rows in scanner.fetched.items()},
        _buffer_state(scanner.tree),
    )


def test_a_fault_at_key_k_leaves_exactly_the_keys_below_it_fetched():
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

    # Every user's live key in both live partitions, and a key nobody
    # holds beside each: crowded strata straddle leaves, so faults land
    # both between one stratum's keys and between strata.
    probe = cold_tree()
    live = sorted(probe.live.keys.values())
    keys = sorted(set(live) | {key + 1 for key in live})
    clean = BandScanner(probe)
    built = probe.stats.physical_reads
    clean.prefetch(keys)
    reads = probe.stats.physical_reads - built
    assert reads >= 10

    stratum = [probe.codec.decompose(key)[:2] for key in keys]
    cut_points, mid_stratum = set(), 0
    for failing_read in range(1, reads + 1):
        fetched, looped = BandScanner(cold_tree()), BandScanner(cold_tree())
        for scanner in (fetched, looped):
            scanner.tree.btree.pool.disk.schedule = TransientFaultSchedule(
                fail_reads=[failing_read]
            )
        with pytest.raises(DiskFaultError):
            fetched.prefetch(keys, Cursor())
        with pytest.raises(DiskFaultError):
            _per_key_prefetch(looped, keys)
        assert _scanner_state(fetched) == _scanner_state(looped)
        # The failing fetch was counted when issued; exactly the keys
        # below it were kept.
        k = fetched.physical_scans - 1
        assert list(fetched.fetched) == keys[:k]
        cut_points.add(k)
        # The cursor is read once per kept key: a stratum completed
        # before the fault is stamped with the read after its last key,
        # and the keys already kept of the stratum the fault cut short
        # stay unstamped.
        for i, key in enumerate(keys[:k]):
            if stratum[i] == stratum[k]:
                assert fetched.fetched[key].landed is None
            else:
                last = max(j for j in range(k) if stratum[j] == stratum[i])
                assert fetched.fetched[key].landed == float(last + 1)
        mid_stratum += k > 0 and stratum[k - 1] == stratum[k]
        # The supervisor's retry: the whole key list again, fault cleared.
        fetched.prefetch(keys, Cursor())
        _per_key_prefetch(looped, keys)
        assert _scanner_state(fetched) == _scanner_state(looped)
        assert fetched.fetched == clean.fetched
        assert all(rows.landed is not None for rows in fetched.fetched.values())
    assert len(cut_points) > 1  # faults landed at different keys
    assert mid_stratum  # some fault landed between two keys of one stratum


def test_a_zv_first_prefetch_stamps_no_rows():
    """A ZV-first stratum's keys are not adjacent in key order, so the
    prefetch books none of them on the verify timeline: their
    verification is charged serially, as before the multi-get."""
    tree = _peb(make_zv_first_tree)
    _apply(tree, {}, [
        ("update", (uid, 37.0 * uid % SPACE, 91.0 * uid % SPACE, 0.0))
        for uid in range(N_USERS)
    ])
    keys = sorted(tree.live.keys.values())
    scanner = BandScanner(tree)
    scanner.prefetch(keys, Cursor())
    assert list(scanner.fetched) == keys
    assert sum(len(rows) for rows in scanner.fetched.values()) == N_USERS
    assert all(rows.landed is None for rows in scanner.fetched.values())


def test_prefetch_enters_the_tree_once_per_shard_job(monkeypatch):
    """Not once per band: the batch's keys ride one multi-get per shard.

    A range plan holds about two point bands a query (one per friend
    whose cell can reach the window), so the batch takes 60 queries for
    its keys to outnumber the shard jobs tenfold."""
    world = build_world(n_users=220, n_policies=8, seed=29)
    sharded = world.deploy(4)
    specs = world.query_generator().range_queries(world.uids, 60, 300.0, 5.0)

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
    counted(PEBTree, "get_many")
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
    assert calls["get_many"] == calls["shard jobs"]
    assert calls["scan_band_rows"] == 0 and calls["scan_chunks"] == 0
    # ... for many times as many keys.
    assert report.stats.bands_scanned > 10 * calls["shard jobs"]
