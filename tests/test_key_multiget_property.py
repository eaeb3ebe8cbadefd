"""Served queries fetch keys: a property test.

A served plan is its ``(live key, friend)`` pairs, so a batch fetches
the distinct keys of its plans, once each and in key order, one
``get_many`` call per tree (a shard's share on a sharded deployment),
and replay reads each key's rows from what was fetched; a single
``prq``, ``pcount`` or ``pknn`` fetches them one at a time, one
one-key ``get_many`` call each.  Over random mixed range/kNN batches on
a single tree and on 4 shards:

* each tree's ``get_many`` is called once, with exactly the batch's
  distinct keys routed to it, ascending;
* a single query's one-key calls name each distinct planned key once,
  in key order, each on the tree that owns it;
* every fetched key's rows equal the object-at-a-time per-band scan of
  ``tests/reference_scan.py`` over the point band ``[key; key]``;
* the logical and physical pool reads and ``candidates_examined`` of a
  batch, and of every single query, equal the reference engine's,
  which fetches the same keys entry by entry;
* a disk fault at key *k* of a tree's share leaves exactly the keys
  below *k* fetched there.
"""

from __future__ import annotations

import contextlib
import importlib
from unittest import mock

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.aggregate import pcount
from repro.core.pknn import plan_pknn, pknn
from repro.core.prq import prq
from repro.engine import QueryEngine
from repro.spatial.geometry import Rect
from repro.storage.faults import DiskFaultError, FaultyDisk, TransientFaultSchedule
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

from tests.conftest import build_world
from tests.reference_scan import EntryAtATimeTree, ReferenceEngine, ShardedReferenceEngine

WORLD = build_world(n_users=220, n_policies=8, seed=29)
T_QUERY = 5.0
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)


def deploy(n_shards, faulty=False):
    """A cold deployment: the world's tree (rebuilt on faulty disks) or
    ``n_shards`` shards with pools too small to hold the index."""
    factory = (lambda shard: FaultyDisk(page_size=1024)) if faulty else None
    if n_shards == 1 and not faulty:
        tree = WORLD.peb
    else:
        tree = WORLD.deploy(n_shards, buffer_pages=12, disk_factory=factory)
    for pool in pools(tree):
        pool.clear()
    return tree


def pools(tree):
    return [shard.btree.pool for shard in tree.trees]


def reads(tree):
    return [(pool.stats.logical_reads, pool.stats.physical_reads) for pool in pools(tree)]


class Recording(QueryEngine):
    """The shipped engine, keeping the scanner it handed the batch."""

    def new_scanner(self):
        self.scanner = super().new_scanner()
        return self.scanner


def shard_scanners(scanner):
    return getattr(scanner, "scanners", [scanner])


SPEC = st.tuples(
    st.booleans(),
    st.integers(0, len(WORLD.uids) - 1),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((150.0, 300.0, 600.0)),
    st.integers(1, 5),
)


def make_spec(knn, issuer, fx, fy, side, k):
    q_uid = WORLD.uids[issuer]
    if knn:
        return KnnQuerySpec(q_uid, fx * 1000.0, fy * 1000.0, k, T_QUERY)
    x, y = fx * (1000.0 - side), fy * (1000.0 - side)
    return RangeQuerySpec(q_uid, Rect(x, x + side, y, y + side), T_QUERY)


def plan_of(planner, spec):
    if isinstance(spec, RangeQuerySpec):
        return planner.plan_range(spec.q_uid, spec.window, spec.t_query)
    return plan_pknn(planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)


def batch_keys(engine, specs):
    """The distinct keys of the batch's plans, ascending."""
    return sorted({key for spec in specs for key, _ in plan_of(engine.planner, spec).bands})


@SETTINGS
@given(n_shards=st.sampled_from((1, 4)), drawn=st.lists(SPEC, min_size=1, max_size=10))
def test_each_distinct_key_is_fetched_once_in_key_order(n_shards, drawn):
    specs = [make_spec(*spec) for spec in drawn]
    tree = deploy(n_shards)
    engine = Recording(tree)
    keys = batch_keys(engine, specs)
    router = getattr(tree, "router", None)
    expected = [[] for _ in tree.trees]
    for key in keys:
        expected[router.shard_of_key(key) if router else 0].append(key)

    calls = [[] for _ in tree.trees]
    for shard, log in zip(tree.trees, calls):
        shard.get_many = lambda keys, inner=shard.get_many, log=log: (
            log.append(list(keys)) or inner(log[-1])
        )
    try:
        before = reads(tree)
        report = engine.execute_batch(specs)
        got = [(a - c, b - d) for (a, b), (c, d) in zip(reads(tree), before)]
    finally:
        for shard in tree.trees:
            del shard.get_many
    # (a lone tree's scanner is also handed a batch that fetches nothing)
    assert [[keys for keys in log if keys] for log in calls] == [
        [share] if share else [] for share in expected
    ]
    assert report.stats.bands_scanned == len(keys)

    decompose = WORLD.peb.codec.decompose
    for shard, scanner in zip(tree.trees, shard_scanners(engine.scanner)):
        reference = EntryAtATimeTree(shard)
        for key, rows in scanner.fetched.items():
            tid, sv_q, zv = decompose(key)
            assert rows == reference.scan_band_rows(tid, sv_q, sv_q, zv, zv), key

    # The reference fetches the same keys entry by entry: the same page
    # touches, logical and physical.
    for pool in pools(tree):
        pool.clear()
    before = reads(tree)
    reference = (ShardedReferenceEngine if router else ReferenceEngine)(tree)
    expected_report = reference.execute_batch(specs)
    want = [(a - c, b - d) for (a, b), (c, d) in zip(reads(tree), before)]
    assert got == want
    for mine, theirs in zip(report.results, expected_report.results):
        assert mine.candidates_examined == theirs.candidates_examined


@SETTINGS
@given(
    n_shards=st.sampled_from((1, 4)),
    drawn=st.lists(SPEC, min_size=4, max_size=10),
    failing_read=st.integers(1, 16),
    victim=st.integers(0, 3),
)
def test_a_fault_at_key_k_leaves_exactly_the_keys_below_it(
    n_shards, drawn, failing_read, victim
):
    specs = [make_spec(*spec) for spec in drawn]
    tree = deploy(n_shards, faulty=True)
    victim %= n_shards
    disk = tree.trees[victim].btree.pool.disk
    while hasattr(disk, "inner"):
        disk = disk.inner
    disk.heal()
    disk.schedule = TransientFaultSchedule(fail_reads=[failing_read])
    engine = Recording(tree)
    keys = batch_keys(engine, specs)
    router = getattr(tree, "router", None)
    try:
        engine.execute_batch(specs)
    except DiskFaultError:
        faulted = True
    else:
        faulted = False
    for shard, scanner in enumerate(shard_scanners(engine.scanner)):
        share = [key for key in keys if (router.shard_of_key(key) if router else 0) == shard]
        fetched = list(scanner.fetched)
        if faulted and shard == victim:
            # The failing fetch was counted when issued; the keys below
            # it were kept, and nothing from it on.
            k = scanner.physical_scans - 1
            assert fetched == share[:k] and k < len(share)
        else:
            assert fetched == share


@contextlib.contextmanager
def adapters_on(engine_type):
    """``prq``, ``pcount`` and ``pknn`` run on ``engine_type``."""
    module = importlib.import_module
    with mock.patch.object(
        module("repro.core.prq"), "QueryEngine", engine_type
    ), mock.patch.object(
        module("repro.core.aggregate"), "QueryEngine", engine_type
    ), mock.patch.object(module("repro.core.pknn"), "QueryEngine", engine_type):
        yield


def single_queries(tree, spec):
    """The single served queries of one spec: ``(name, thunk)`` pairs,
    each thunk returning ``(answer, candidates_examined)``."""
    if isinstance(spec, KnnQuerySpec):

        def run_pknn():
            found = pknn(tree, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)
            ranked = [(round(d, 9), obj.uid) for d, obj in found.neighbors]
            return ranked, found.candidates_examined

        return [("pknn", run_pknn)]

    def run_prq():
        found = prq(tree, spec.q_uid, spec.window, spec.t_query)
        return found.uids, found.candidates_examined

    def run_pcount():
        found = pcount(tree, spec.q_uid, spec.window, spec.t_query)
        return found.count, found.candidates_examined

    return [("prq", run_prq), ("pcount", run_pcount)]


@SETTINGS
@given(n_shards=st.sampled_from((1, 4)), drawn=st.lists(SPEC, min_size=1, max_size=4))
def test_a_single_query_fetches_each_distinct_planned_key_once_in_key_order(
    n_shards, drawn
):
    tree = deploy(n_shards)
    router = getattr(tree, "router", None)
    reference_engine = ShardedReferenceEngine if router else ReferenceEngine
    planner = QueryEngine(tree).planner
    for spec in (make_spec(*spec) for spec in drawn):
        keys = sorted({key for key, _ in plan_of(planner, spec).bands})
        for name, run in single_queries(tree, spec):
            calls = []  # (tree index, keys, rows) per get_many call
            for index, shard in enumerate(tree.trees):

                def get_many(asked, inner=shard.get_many, index=index):
                    asked = list(asked)
                    rows = []
                    calls.append((index, asked, rows))
                    for fetched in inner(asked):
                        rows.append(fetched)
                        yield fetched

                shard.get_many = get_many
            for pool in pools(tree):
                pool.clear()
            before = reads(tree)
            try:
                got = run()
            finally:
                for shard in tree.trees:
                    del shard.get_many
            got_reads = [(a - c, b - d) for (a, b), (c, d) in zip(reads(tree), before)]

            assert [called for _, called, _ in calls] == [[key] for key in keys], name
            decompose = WORLD.peb.codec.decompose
            for index, (key,), (rows,) in calls:
                assert index == (router.shard_of_key(key) if router else 0)
                tid, sv_q, zv = decompose(key)
                reference = EntryAtATimeTree(tree.trees[index])
                assert rows == reference.scan_band_rows(tid, sv_q, sv_q, zv, zv), key

            for pool in pools(tree):
                pool.clear()
            before = reads(tree)
            with adapters_on(reference_engine):
                want = run()
            assert got == want, name
            assert got_reads == [
                (a - c, b - d) for (a, b), (c, d) in zip(reads(tree), before)
            ], name
