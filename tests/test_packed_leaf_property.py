"""Property tests pinning the packed columnar leaf path.

Two layers, both against the simplest possible model:

* B+-tree layer: randomized insert / delete / ``apply_sorted_batch`` /
  buffer-flush sequences against a plain dict.  After every sequence
  the packed scans (``scan_composite``, ``scan_chunks``,
  ``leaf_runs``) must reproduce the sorted model exactly, survive a
  full ``pool.clear()`` (every page re-parsed from its serialized
  image), and incur *identical* physical reads on the cold re-scan —
  page traffic is part of the contract, not an implementation detail.
* Engine layer: :class:`repro.engine.QueryEngine` against the
  object-at-a-time reference (:mod:`tests.reference_scan`) on the same
  world — per-query results, ``candidates_examined``, and physical
  reads all pinned equal over randomized mixed range/kNN batches.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import QueryEngine
from repro.spatial.geometry import Rect
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world, make_tree
from tests.reference_scan import ReferenceEngine

VALUE_BYTES = 16

# A deliberately small key space: collisions force duplicate-identity
# handling, deletes of real entries, and dense leaves that split.
KEYS = st.integers(min_value=0, max_value=400)
UIDS = st.integers(min_value=0, max_value=15)


def value_for(key: int, uid: int, salt: int = 0) -> bytes:
    return (key * 1_000_003 + uid * 97 + salt).to_bytes(VALUE_BYTES, "big")


# One op is ("insert"|"delete"|"flush"|"batch", payload).  Batch
# payloads are raw (key, uid) draws turned into a valid sorted op list
# against the live model at application time.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.tuples(KEYS, UIDS)),
        st.tuples(st.just("delete"), st.tuples(KEYS, UIDS)),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(KEYS, UIDS), min_size=1, max_size=30),
        ),
    ),
    min_size=1,
    max_size=70,
)

WINDOWS = st.tuples(KEYS, KEYS, UIDS, UIDS)


def apply_ops(tree, model: dict, ops) -> None:
    salt = 0
    for kind, payload in ops:
        salt += 1
        if kind == "insert":
            key, uid = payload
            if (key, uid) not in model:
                value = value_for(key, uid, salt)
                tree.insert(key, uid, value)
                model[(key, uid)] = value
        elif kind == "delete":
            key, uid = payload
            assert tree.delete(key, uid) == ((key, uid) in model)
            model.pop((key, uid), None)
        elif kind == "flush":
            tree.pool.clear()
        else:  # batch: dedupe, sort, pick a valid kind per identity
            batch = []
            for key, uid in sorted(set(payload)):
                if (key, uid) in model:
                    op_kind = "replace" if (key + uid) % 2 else "delete"
                else:
                    op_kind = "insert"
                value = value_for(key, uid, salt)
                batch.append((op_kind, key, uid, value))
                if op_kind == "delete":
                    del model[(key, uid)]
                else:
                    model[(key, uid)] = value
            tree.apply_sorted_batch(batch)
        tree.check_invariants()


def model_slice(model: dict, lo, hi):
    return [
        (key, uid, value)
        for (key, uid), value in sorted(model.items())
        if lo <= (key, uid) <= hi
    ]


@settings(max_examples=40, deadline=None)
@given(ops=OPS, window=WINDOWS)
def test_packed_scans_match_dict_model(ops, window):
    tree = make_tree(page_size=512, buffer_pages=8)
    model: dict = {}
    apply_ops(tree, model, ops)
    expected = sorted((k, u, v) for (k, u), v in model.items())

    key_a, key_b, uid_a, uid_b = window
    lo = min((key_a, uid_a), (key_b, uid_b))
    hi = max((key_a, uid_a), (key_b, uid_b))

    # Packed scans against the model, warm buffer.
    assert list(tree.items()) == expected
    assert list(tree.scan_composite(lo, hi)) == model_slice(model, lo, hi)
    vb = tree.config.value_bytes
    for keys, payload in tree.scan_chunks(lo, hi):
        assert len(payload) == len(keys) * vb
        for i, (key, uid) in enumerate(keys):
            assert payload[i * vb : (i + 1) * vb] == model[(key, uid)]
    runs = [
        (key, uid, payload[i * vb : (i + 1) * vb])
        for keys, payload in tree.leaf_runs()
        for i, (key, uid) in enumerate(keys)
    ]
    assert runs == expected

    # Serialization round trip: drop every in-memory page, re-parse
    # from the packed images, and re-scan cold — same entries, and the
    # cold scan's physical page traffic is repeatable exactly.
    tree.pool.clear()
    base = tree.pool.stats.physical_reads
    first = list(tree.scan_composite(lo, hi))
    first_reads = tree.pool.stats.physical_reads - base

    tree.pool.clear()
    base = tree.pool.stats.physical_reads
    second = list(tree.scan_composite(lo, hi))
    second_reads = tree.pool.stats.physical_reads - base

    assert first == model_slice(model, lo, hi)
    assert second == first
    assert second_reads == first_reads
    tree.check_invariants()


@lru_cache(maxsize=None)
def _world(seed: int):
    return build_world(n_users=220, n_policies=8, seed=seed)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.sampled_from((5, 31)),
    picks=st.lists(st.integers(min_value=0, max_value=219), min_size=1, max_size=6),
    half=st.floats(min_value=10.0, max_value=450.0),
    center=st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1000.0),
    ),
    k=st.integers(min_value=1, max_value=4),
    t_query=st.sampled_from((0.0, 7.5, 30.0)),
)
def test_packed_engine_pins_reference(seed, picks, half, center, k, t_query):
    world = _world(seed)
    uids = sorted(world.uids)
    cx, cy = center
    specs = []
    for i, pick in enumerate(picks):
        q_uid = uids[pick % len(uids)]
        if i % 2 == 0:
            specs.append(
                RangeQuerySpec(q_uid, Rect.from_center(cx, cy, half), t_query)
            )
        else:
            state = world.states[q_uid]
            specs.append(KnnQuerySpec(q_uid, state.x, state.y, k, t_query))

    pool = world.peb.btree.pool

    pool.clear()
    base = pool.stats.physical_reads
    packed = QueryEngine(world.peb).execute_batch(specs)
    packed_reads = pool.stats.physical_reads - base

    pool.clear()
    base = pool.stats.physical_reads
    legacy = ReferenceEngine(world.peb).execute_batch(specs)
    legacy_reads = pool.stats.physical_reads - base

    assert packed_reads == legacy_reads
    for spec, got, expected in zip(specs, packed.results, legacy.results):
        assert got.candidates_examined == expected.candidates_examined, spec
        if isinstance(spec, RangeQuerySpec):
            assert got.uids == expected.uids, spec
        else:
            assert [(round(d, 9), obj.uid) for d, obj in got.neighbors] == [
                (round(d, 9), obj.uid) for d, obj in expected.neighbors
            ], spec
