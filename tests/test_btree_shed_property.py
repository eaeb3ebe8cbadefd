"""A full leaf sheds to a sibling before it splits: what pins the rule.

:class:`repro.btree.tree.BPlusTree` answers a leaf overflow by evening
the leaf out with a same-parent sibling that has room
(``_room_beside`` → ``_shed``) and halves it only when neither sibling
has.  The split-only tree every earlier commit shipped is the reference
here, as a test-local subclass that overrides the one overflow rule.

* **Observationally the same tree** — over random histories of insert /
  delete / replace / ``apply_sorted_batch`` / guarded sweeps (committed,
  or rolled back after an injected read or write fault and then
  retried), on pools of 2–6 frames under every replacement policy, both
  trees report identical ``items()``, ``scan_range`` and ``scan_fenced``
  rows after every step and both keep their structural invariants.
* **Fetch before mutate** — a rolled-back sweep restores the exact
  pre-sweep pages, parent separators included, sheds or not; and every
  disk access of a single ``insert`` that sheds precedes its first
  mutation, so a fault on *any* of them leaves the tree untouched and
  the insert retryable (a split cannot say that: its new page is
  admitted after the leaf was cut, ROADMAP open item 2(ii)).
* **Fuller leaves** — at capacity 17 uniform inserts end ≥ 0.83 full and
  stay ≥ 0.72 full, ≥ 0.05 above the reference, through update churn.

Not pinned, because it is not true: "the shipped tree never has more
leaves than the reference".  A shed fills a sibling that later inserts
may then split, so 1 of 1500 uniform insert-only histories at capacity
8 ends a leaf *above* the split-only tree, and ascending inserts
followed by spread ones (a packed tree doubles) can be driven further.  The claim is statistical; the seeded tests at the bottom
state it that way.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.tree import BPlusTree, BTreeConfig
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    DiskFaultError,
    FaultyDisk,
    TransientFaultSchedule,
)
from repro.storage.replacement import POLICIES
from tests.test_buffer_retention_property import (
    CONFIG,
    PAGE_SIZE,
    apply_to_model,
    batch_ops,
    guarded_sweep,
    value_of,
)


class SplitOnlyTree(BPlusTree):
    """The reference: overflow ⇒ split, as before the shed rule."""

    def _room_beside(self, above, total):
        return None


class SheddingTree(BPlusTree):
    """The shipped tree, counting what its overflow rule did."""

    probes = sheds = 0
    probe_io = {"read": 0, "write": 0}  # of the last completed probe

    def _room_beside(self, above, total):
        self.probes += 1
        before = {kind: attempts(self, kind) for kind in self.probe_io}
        room = super()._room_beside(above, total)
        self.probe_io = {
            kind: attempts(self, kind) - before[kind] for kind in before
        }
        return room

    def _shed(self, *args):
        self.sheds += 1
        super()._shed(*args)


def attempts(tree, kind):
    disk = tree.pool.disk
    return disk._read_attempts if kind == "read" else disk._write_attempts


def make_tree(tree_class, capacity, policy="lru"):
    pool = BufferPool(FaultyDisk(page_size=PAGE_SIZE), capacity, policy=policy)
    return tree_class(pool, CONFIG)


def pages(tree):
    """Every page of the tree as plain data, root first: the "exact
    pre-sweep state" a rollback must restore."""
    out = []
    todo = [tree.root_id]
    while todo:
        page_id = todo.pop()
        node = tree.pool.get(page_id)
        if node.is_leaf:
            out.append((page_id, list(node.keys), list(node.values), node.next_leaf))
        else:
            out.append((page_id, list(node.separators), list(node.children)))
            todo.extend(reversed(node.children))
    return out


def fenced_rows(tree, lo, hi):
    chunks, _, _ = tree.scan_fenced((lo, 0), (hi, 0xFFFFFFFF))
    keys = [ck for run, _ in chunks for ck in run]
    return keys, b"".join(payload for _, payload in chunks)


keys = st.integers(min_value=0, max_value=90)
uids = st.integers(min_value=0, max_value=3)
identity = st.tuples(keys, uids)
identities = st.lists(identity, min_size=1, max_size=40)

step = st.one_of(
    st.tuples(st.just("insert"), identity),
    st.tuples(st.just("delete"), identity),
    st.tuples(st.just("replace"), identity),
    st.tuples(st.just("batch"), identities),
    st.tuples(
        st.just("guarded"),
        identities,
        st.sampled_from([None, "read", "write"]),
        st.integers(min_value=1, max_value=6),
    ),
)


def run_step(tree, model, action, version):
    """One step on one tree; returns the model it leaves."""
    kind = action[0]
    after = dict(model)
    if kind == "insert":
        key, uid = action[1]
        if (key, uid) not in model:
            after[(key, uid)] = value_of(key, uid, version)
            tree.insert(key, uid, after[(key, uid)])
    elif kind == "delete":
        key, uid = action[1]
        assert tree.delete(key, uid) is (after.pop((key, uid), None) is not None)
    elif kind == "replace":
        key, uid = action[1]
        if tree.replace(key, uid, value_of(key, uid, version)):
            after[(key, uid)] = value_of(key, uid, version)
    elif kind == "batch":
        ops = batch_ops(model, action[1], version)
        tree.apply_sorted_batch(ops)
        apply_to_model(after, ops)
    else:
        ops = batch_ops(model, action[1], version)
        tree.pool.flush()
        before = pages(tree)
        if not guarded_sweep(tree, ops, action[2], action[3]):
            # Where the fault lands depends on the page layout, so the
            # two trees may disagree on whether this sweep faulted; each
            # must be exactly where it started, and the supervisor's
            # retry — the same sweep, fault cleared — must commit.
            assert pages(tree) == before
            assert not tree.pool.dirty_pages and not tree.pool.guard_active
            assert guarded_sweep(tree, ops, None, 1)
        apply_to_model(after, ops)
    return after


def check_history(capacity, policy, steps, lo, hi):
    shipped = make_tree(SheddingTree, capacity, policy)
    reference = make_tree(SplitOnlyTree, capacity, policy)
    model = {}
    for version, action in enumerate(steps):
        after = run_step(shipped, model, action, version)
        assert run_step(reference, model, action, version) == after
        model = after
        expected = [(key, uid, value) for (key, uid), value in sorted(model.items())]
        for tree in (shipped, reference):
            tree.check_invariants()
            assert list(tree.items()) == expected
            in_range = [row for row in expected if lo <= row[0] <= hi]
            assert list(tree.scan_range(lo, hi)) == in_range
            assert fenced_rows(tree, lo, hi) == (
                [(key, uid) for key, uid, _ in in_range],
                b"".join(value for _, _, value in in_range),
            )
    return shipped, reference


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=6),
    policy=st.sampled_from(sorted(POLICIES)),
    population=st.lists(identity, min_size=20, max_size=150),
    steps=st.lists(step, min_size=1, max_size=25),
    window=st.tuples(keys, keys),
)
def test_shedding_tree_is_observationally_the_split_only_tree(
    capacity, policy, population, steps, window
):
    # Several pages deep from the first step, built one insert at a
    # time so the single-op overflow path runs as often as the sweep's.
    build = [("insert", ident) for ident in dict.fromkeys(population)]
    check_history(capacity, policy, build + steps, *sorted(window))


def test_the_history_language_reaches_sheds_and_rolled_back_sheds():
    """A fixed history: both write paths shed, and a guarded sweep that
    had shed is rolled back to the exact pre-sweep pages."""
    evens = [(key, 0) for key in range(0, 180, 2)]
    random.Random(3).shuffle(evens)  # leaves at mixed fills
    odds = [(key, 0) for key in range(1, 180, 6)]
    shipped, reference = check_history(
        4, "lru", [("insert", ident) for ident in evens], 10, 70
    )
    assert shipped.sheds > 0 and shipped.leaf_count < reference.leaf_count
    single_op_sheds = shipped.sheds

    model = {ident: value_of(*ident, 0) for ident in evens}
    ops = batch_ops(model, odds, 1)
    assert {op[0] for op in ops} == {"insert"}
    shipped.pool.flush()
    before = pages(shipped)
    # The commit's first write faults: the whole sweep ran, sheds
    # included, and nothing of it may survive the rollback.
    assert not guarded_sweep(shipped, ops, "write", 1)
    swept_sheds = shipped.sheds - single_op_sheds
    assert swept_sheds > 0
    assert pages(shipped) == before
    shipped.check_invariants()
    stats = shipped.apply_sorted_batch(ops)
    assert stats.sheds == swept_sheds and stats.leaf_splits > 0
    shipped.check_invariants()
    assert [(key, uid) for key, uid, _ in shipped.items()] == sorted(evens + odds)


# ----------------------------------------------------------------------
# A shed's disk accesses all precede its first mutation
# ----------------------------------------------------------------------


def shedding_insert(capacity, kind):
    """A tree, the next key of a seeded shuffle — whose insert sheds
    after a sibling probe that costs a disk access of ``kind`` — the
    fault-free outcome, and the insert's accesses of that kind."""
    tree = make_tree(SheddingTree, capacity)
    for key in random.Random(capacity).sample(range(1000), 400):
        value = value_of(key, 0, 0)
        if kind == "read":
            tree.pool.clear()  # cold: descent and probe both miss
        clean = copy.deepcopy(tree)
        clean.insert(key, 0, value)
        if clean.sheds > tree.sheds and clean.probe_io[kind]:
            return tree, key, clean, attempts(clean, kind) - attempts(tree, kind)
        tree.insert(key, 0, value)
    raise AssertionError("no shedding insert found")


@pytest.mark.parametrize("capacity", [3, 4, 6])
@pytest.mark.parametrize("kind", ["read", "write"])
def test_a_fault_anywhere_in_a_shedding_insert_leaves_the_tree_untouched(
    capacity, kind
):
    """From three frames up (leaf, parent and sibling in hand) a shed's
    ``put``s admit nothing, so every access of the insert — the descent,
    the probe, the evictions they cause — comes before the first
    mutation: whichever one faults, the tree is as it was and the
    retried insert ends where the fault-free one does."""
    tree, key, clean, accesses = shedding_insert(capacity, kind)
    value = value_of(key, 0, 0)
    in_probe = 0
    for nth in range(1, accesses + 1):
        faulted = copy.deepcopy(tree)
        faulted.pool.disk.schedule = TransientFaultSchedule(
            **{f"fail_{kind}s": [attempts(faulted, kind) + nth]}
        )
        meta = (faulted.entry_count, faulted.leaf_count, faulted.root_id)
        dirty = faulted.pool.dirty_pages
        with pytest.raises(DiskFaultError):
            faulted.insert(key, 0, value)
        in_probe += faulted.probes > tree.probes
        assert faulted.sheds == tree.sheds
        assert (faulted.entry_count, faulted.leaf_count, faulted.root_id) == meta
        # A failed eviction keeps its frame dirty; nothing new is dirty.
        assert faulted.pool.dirty_pages <= dirty
        assert pages(faulted) == pages(copy.deepcopy(tree))
        faulted.insert(key, 0, value)  # the fault cleared
        assert faulted.sheds == tree.sheds + 1
        faulted.check_invariants()
        assert pages(faulted) == pages(clean)
    assert in_probe  # some fault did land inside the sibling probe


# ----------------------------------------------------------------------
# Bad input leaves no partial state
# ----------------------------------------------------------------------


def test_a_wrong_width_value_is_refused_before_the_tree_is_touched():
    tree = make_tree(BPlusTree, 4)
    for key in range(0, 40, 2):
        tree.insert(key, 0, value_of(key, 0, 0))
    tree.pool.flush()
    before = pages(tree)
    good = value_of(3, 1, 0)

    with pytest.raises(ValueError, match="bytes"):
        tree.insert(3, 1, b"short")
    with pytest.raises(ValueError, match="bytes"):
        tree.apply_sorted_batch([("insert", 3, 1, good), ("insert", 5, 1, b"bad")])
    with pytest.raises(ValueError, match="bytes"):
        tree.apply_sorted_batch([("insert", 3, 1, good), ("replace", 4, 0, b"bad")])

    assert tree.entry_count == 20 and not tree.pool.dirty_pages
    tree.check_invariants()
    assert pages(tree) == before
    assert [key for key, _, _ in tree.items()] == list(range(0, 40, 2))


# ----------------------------------------------------------------------
# Fuller leaves, stated statistically
# ----------------------------------------------------------------------

CAP17 = BTreeConfig(key_bytes=10, value_bytes=28, page_size=740)


def fill(tree):
    return tree.entry_count / (tree.leaf_count * tree.config.leaf_capacity)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fill_at_capacity_17_after_a_build_and_under_churn(seed):
    assert CAP17.leaf_capacity == 17
    trees = [
        tree_class(BufferPool(SimulatedDisk(page_size=740), capacity=50), CAP17)
        for tree_class in (BPlusTree, SplitOnlyTree)
    ]
    shipped, reference = trees
    rng = random.Random(seed)
    value = bytes(28)
    live = rng.sample(range(1 << 40), 1500)
    for key in live:
        for tree in trees:
            tree.insert(key, 0, value)
    # Seeds 1, 2, 3 measure 0.840 / 0.857 / 0.857 shipped and 0.712 /
    # 0.717 / 0.684 split-only.
    assert fill(shipped) >= 0.83 > fill(reference)

    live = set(live)
    for _ in range(150):
        gone = rng.sample(sorted(live), 20)
        live.difference_update(gone)
        new = rng.sample(range(1 << 40), 20)
        ops = [("delete", key, 0, None) for key in gone]
        ops += [("insert", key, 0, value) for key in new if key not in live]
        live.update(new)
        ops.sort(key=lambda op: op[1])
        for tree in trees:
            tree.apply_sorted_batch(ops)
    for tree in trees:
        tree.check_invariants()
        assert tree.entry_count == len(live)
    # Uniform churn erodes both (seeds 1, 2, 3: 0.754 / 0.767 / 0.742
    # shipped, 0.617 / 0.617 / 0.604 split-only); the gap stays.
    assert fill(shipped) >= 0.72
    assert fill(shipped) >= fill(reference) + 0.05


def test_uniform_insert_only_histories_end_with_fewer_leaves_in_aggregate():
    """Per history the sign can flip by a leaf or two (module
    docstring); over forty seeded histories it cannot."""
    shipped_leaves = reference_leaves = worst = 0
    for seed in range(40):
        rng = random.Random(seed)
        sample = rng.sample(range(100_000), rng.randrange(30, 300))
        counts = []
        for tree_class in (BPlusTree, SplitOnlyTree):
            tree = tree_class(BufferPool(SimulatedDisk(page_size=PAGE_SIZE), 64), CONFIG)
            for key in sample:
                tree.insert(key, 0, bytes(16))
            counts.append(tree.leaf_count)
        shipped_leaves += counts[0]
        reference_leaves += counts[1]
        worst = max(worst, counts[0] - counts[1])
    assert worst <= 2
    assert shipped_leaves <= 0.92 * reference_leaves
