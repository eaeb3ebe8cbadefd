"""Decode retention is sound and invisible: a property test.

:class:`repro.storage.buffer.BufferPool` admits, on a miss whose image
is the one it last exchanged for the page, the node it remembers
instead of parsing the image again.  Two claims carry that, and a
random history over a :class:`BPlusTree` on a 2–6 frame pool checks
both after every step:

* **sound** — on *every* such retained miss the admitted node equals a
  fresh parse of the image the disk holds, field by field
  (:class:`CheckingPool`); the tree's contents equal a dict model and
  its structural invariants hold;
* **invisible** — logical and physical reads and writes equal, step by
  step, those of the same history on :class:`ForgetfulPool`, the
  always-parse reference that forgets every pair before each ``get``.

The history mixes single-entry operations, plain and guarded batch
sweeps (committed, or rolled back after an injected read or write
fault), scans under a transient read fault, ``flush``, ``clear`` and
``resize``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.tree import BPlusTree, BTreeConfig
from repro.storage.buffer import BufferPool
from repro.storage.faults import (
    DiskFaultError,
    FaultyDisk,
    TransientFaultSchedule,
)
from tests.test_storage_buffer import CountingSerializer

PAGE_SIZE = 256
CONFIG = BTreeConfig(key_bytes=8, value_bytes=16, page_size=PAGE_SIZE)


class ForgetfulPool(BufferPool):
    """The always-parse reference: no pair survives to a ``get``."""

    def get(self, page_id, serializer=None):
        self._exchanged.clear()
        return super().get(page_id, serializer)


class CheckingPool(BufferPool):
    """Checks every miss that was admitted without a parse."""

    retained_hits = 0

    def get(self, page_id, serializer=None):
        missed = page_id not in self
        parses = self.serializer.parses
        node = super().get(page_id, serializer)
        if missed and self.serializer.parses == parses:
            self.retained_hits += 1
            fresh = self.serializer.inner.parse(self.disk._pages[page_id])
            assert type(node) is type(fresh)
            if node.is_leaf:
                assert node.keys == fresh.keys
                assert node.values.to_bytes() == fresh.values.to_bytes()
                assert node.next_leaf == fresh.next_leaf
            else:
                assert node.separators == fresh.separators
                assert node.children == fresh.children
        return node


def make_tree(pool_class, capacity):
    pool = pool_class(FaultyDisk(page_size=PAGE_SIZE), capacity=capacity)
    tree = BPlusTree(pool, CONFIG)
    pool.serializer = CountingSerializer(pool.serializer)
    return tree


def value_of(key, uid, version):
    return bytes([key % 256, uid, version % 256]) * 5 + b"\0"


def batch_ops(model, identities, version):
    """A sorted batch over distinct identities: present entries are
    deleted or replaced alternately, absent ones inserted."""
    ops = []
    for index, (key, uid) in enumerate(sorted(set(identities))):
        if (key, uid) not in model:
            ops.append(("insert", key, uid, value_of(key, uid, version)))
        elif index % 2:
            ops.append(("replace", key, uid, value_of(key, uid, version)))
        else:
            ops.append(("delete", key, uid, None))
    return ops


def apply_to_model(model, ops):
    for kind, key, uid, value in ops:
        if kind == "delete":
            del model[(key, uid)]
        else:
            model[(key, uid)] = value


def guarded_sweep(tree, ops, fault, nth):
    """The supervisor's transactional sweep; True when it committed.

    ``fault`` arms the ``nth`` upcoming read (the sweep faults mid-way)
    or the first write of the commit (nothing reached the disk), so a
    rollback restores the pre-sweep state on disk and in the pool.
    """
    pool, disk = tree.pool, tree.pool.disk
    pool.flush()
    pool.begin_sweep_guard()
    meta = (
        tree.root_id,
        tree.first_leaf_id,
        tree.height,
        tree.entry_count,
        tree.leaf_count,
    )
    if fault == "read":
        disk.schedule = TransientFaultSchedule(
            fail_reads=[disk._read_attempts + nth]
        )
    try:
        tree.apply_sorted_batch(ops)
        if fault == "write":
            disk.schedule = TransientFaultSchedule(
                fail_writes=[disk._write_attempts + 1]
            )
        pool.commit_sweep_guard()
    except DiskFaultError:
        pool.rollback_sweep_guard()
        (
            tree.root_id,
            tree.first_leaf_id,
            tree.height,
            tree.entry_count,
            tree.leaf_count,
        ) = meta
        return False
    finally:
        disk.schedule = None
    return True


def faulty_scan(tree, lo, hi, nth):
    """A range scan whose ``nth`` read faults (if it gets that far)."""
    disk = tree.pool.disk
    disk.schedule = TransientFaultSchedule(fail_reads=[disk._read_attempts + nth])
    try:
        return list(tree.scan_range(lo, hi))
    except DiskFaultError:
        return None
    finally:
        disk.schedule = None


keys = st.integers(min_value=0, max_value=90)
uids = st.integers(min_value=0, max_value=3)
identity = st.tuples(keys, uids)
identities = st.lists(identity, min_size=1, max_size=40)
nth = st.integers(min_value=1, max_value=6)

step = st.one_of(
    st.tuples(st.just("insert"), identity),
    st.tuples(st.just("delete"), identity),
    st.tuples(st.just("replace"), identity),
    st.tuples(st.just("batch"), identities),
    st.tuples(
        st.just("guarded"),
        identities,
        st.sampled_from([None, "read", "write"]),
        nth,
    ),
    st.tuples(st.just("scan"), keys, keys),
    st.tuples(st.just("faulty_scan"), keys, keys, nth),
    st.tuples(st.just("flush")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("resize"), st.integers(min_value=2, max_value=6)),
)


def run_step(tree, model, action, version):
    """Apply one step to ``tree``; returns what the step observed and
    the model it leaves (the caller applies it once both trees ran)."""
    kind = action[0]
    after = dict(model)
    observed = None
    if kind == "insert":
        key, uid = action[1]
        if (key, uid) not in model:
            after[(key, uid)] = value_of(key, uid, version)
            tree.insert(key, uid, after[(key, uid)])
    elif kind == "delete":
        key, uid = action[1]
        observed = tree.delete(key, uid)
        assert observed is (after.pop((key, uid), None) is not None)
    elif kind == "replace":
        key, uid = action[1]
        observed = tree.replace(key, uid, value_of(key, uid, version))
        assert observed is ((key, uid) in model)
        if observed:
            after[(key, uid)] = value_of(key, uid, version)
    elif kind == "batch":
        ops = batch_ops(model, action[1], version)
        tree.apply_sorted_batch(ops)
        apply_to_model(after, ops)
    elif kind == "guarded":
        ops = batch_ops(model, action[1], version)
        observed = guarded_sweep(tree, ops, action[2], action[3])
        if observed:
            apply_to_model(after, ops)
    elif kind in ("scan", "faulty_scan"):
        lo, hi = sorted(action[1:3])
        if kind == "scan":
            observed = list(tree.scan_range(lo, hi))
        else:
            observed = faulty_scan(tree, lo, hi, action[3])
        if observed is not None:
            assert observed == [
                (key, uid, value)
                for (key, uid), value in sorted(model.items())
                if lo <= key <= hi
            ]
    elif kind == "flush":
        tree.pool.flush()
    elif kind == "clear":
        tree.pool.clear()
    else:
        tree.pool.resize(action[1])
    return observed, after


def check_history(capacity, steps):
    checked = make_tree(CheckingPool, capacity)
    reference = make_tree(ForgetfulPool, capacity)
    model = {}
    for version, action in enumerate(steps):
        observed, after = run_step(checked, model, action, version)
        assert run_step(reference, model, action, version) == (observed, after)
        model = after
        for tree in (checked, reference):
            tree.check_invariants()
            assert [
                ((key, uid), value) for key, uid, value in tree.items()
            ] == sorted(model.items())
        assert checked.pool.stats.snapshot() == reference.pool.stats.snapshot()
        assert checked.pool.resident_pages == reference.pool.resident_pages
        assert checked.pool.dirty_pages == reference.pool.dirty_pages
    reference_codec = reference.pool.serializer
    assert reference_codec.parses == reference.pool.stats.physical_reads
    assert checked.pool.serializer.packs == reference_codec.packs
    return checked


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=6),
    population=st.lists(identity, min_size=20, max_size=150),
    steps=st.lists(step, min_size=1, max_size=30),
)
def test_retention_is_sound_and_invisible(capacity, population, steps):
    # Start several pages deep, so the pool evicts from the first step.
    check_history(capacity, [("batch", population), *steps])


def test_the_history_language_reaches_retention():
    """A fixed history of every step kind: most misses are retained
    hits, so the property above is checking something."""
    everyone = [(key, uid) for key in range(0, 90, 2) for uid in range(2)]
    steps = [
        ("batch", everyone),
        ("clear",),
        ("scan", 0, 90),
        ("guarded", everyone[::3], None, 1),
        ("guarded", everyone[1::3], "write", 1),
        ("guarded", everyone[2::3], "read", 3),
        ("faulty_scan", 10, 80, 4),
        ("resize", 2),
        ("insert", (91, 0)),
        ("replace", (91, 0)),
        ("delete", (91, 0)),
        ("flush",),
        ("scan", 0, 90),
    ]
    checked = check_history(4, steps)
    pool = checked.pool
    assert pool.retained_hits > 0
    assert pool.retained_hits + pool.serializer.parses == pool.stats.physical_reads
    assert pool.serializer.parses < pool.stats.physical_reads // 2
