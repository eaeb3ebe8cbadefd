"""A batch's prefetch is a key multi-get: a property test.

Every band a served plan holds is a point at a friend's live key, so a
batch fetches the distinct keys of its plans' bands, once each and in
key order, one ``get_many`` call per tree (a shard's share on a sharded
deployment), and replay reads each band's rows from what was fetched.
Over random mixed range/kNN batches on a single tree and on 4 shards:

* each tree's ``get_many`` is called once, with exactly the batch's
  distinct keys routed to it, ascending;
* every fetched key's rows equal the object-at-a-time per-band scan of
  ``tests/reference_scan.py`` over the point band ``[key; key]``;
* the batch's logical and physical pool reads equal the reference
  engine's, which fetches the same keys entry by entry;
* a disk fault at key *k* of a tree's share leaves exactly the keys
  below *k* fetched there.
"""

from __future__ import annotations

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.engine import QueryEngine
from repro.engine.scanner import point_keys
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


def batch_keys(engine, specs):
    """The distinct keys of the batch's point bands, ascending."""
    from repro.core.pknn import plan_pknn

    planner = engine.planner
    bands = []
    for spec in specs:
        if isinstance(spec, RangeQuerySpec):
            plan = planner.plan_range(spec.q_uid, spec.window, spec.t_query)
        else:
            plan = plan_pknn(planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)
        bands += [planned.band for planned in plan.bands]
    assert all(band.is_single_sv and band.z_lo == band.z_hi for band in bands)
    return point_keys(bands, WORLD.peb.codec)


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
