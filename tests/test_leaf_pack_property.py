"""The leaf packer against the entry-at-a-time reference.

A leaf the tree or the serializer makes carries its page's key, uid and
value columns, and :meth:`repro.btree.serialization.BTreeNodeSerializer._pack_leaf`
joins them.  A hand-made leaf without columns is encoded column by
column (one ``map(int.to_bytes, ...)`` join for the keys, one
``struct.pack`` for the uids, a packed value column as it is).  Both
must give ``tests/reference_pack.py``'s images byte for byte.

* Hand-made leaves — empty and full ones, ``list[bytes]`` and
  :class:`PackedValues` columns (also of another stride), keys at the
  top of their width — must parse back to the leaf, and a bad leaf must
  raise the exception class the reference raises: a key one past its
  width or negative, a uid of ``2**32``, a value of the wrong width and
  a key/value count mismatch, alone or together.
* Leaves built by random histories on a small-page tree — inserts,
  deletes, replaces, batches that shed, split into chunks, borrow, merge
  and collapse the root, sweep-guard rollbacks, re-reads after eviction
  and after a cold decode — are packed by a serializer that checks every
  write-back against the reference, and each leaf must parse back with
  columns equal to its own.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, BTreeConfig
from repro.btree.node import NO_PAGE, LeafNode, PackedValues
from repro.btree.serialization import LEAF_HEADER_SIZE, UID_SIZE, BTreeNodeSerializer
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.reference_pack import ReferencePackSerializer

FAULTS = ("wide_key", "negative_key", "wide_uid", "wrong_width_value", "count_mismatch")
COLUMNS = ("list", "packed", "packed_other_stride")


def outcome(serializer, node):
    """``("image", bytes)`` of a packed leaf, or ``("raises", class)``."""
    try:
        return "image", serializer.pack(node)
    except Exception as error:  # the class is what is compared
        return "raises", type(error)


def column(kind, values, vb):
    if kind == "list":
        return list(values)
    if kind == "packed":
        return PackedValues(vb, b"".join(values), count=len(values))
    # A column of another stride: each value one byte wider.
    return PackedValues(vb + 1, b"".join(value + b"\x00" for value in values), count=len(values))


@st.composite
def leaves(draw):
    """``(kb, vb, node, bad)``: a leaf, possibly with faults applied, and
    whether it must fail to pack."""
    kb = draw(st.integers(min_value=1, max_value=12))
    vb = draw(st.integers(min_value=0, max_value=12))
    top = (1 << (8 * kb)) - 1
    page_size = draw(st.integers(min_value=64, max_value=1024))
    capacity = max(2, (page_size - LEAF_HEADER_SIZE) // (kb + UID_SIZE + vb))
    count = draw(
        st.one_of(st.just(0), st.just(capacity), st.integers(0, capacity))
    )
    key = st.one_of(st.just(top), st.integers(min_value=0, max_value=top))
    uid = st.one_of(st.just((1 << 32) - 1), st.integers(0, (1 << 32) - 1))
    keys = draw(st.lists(st.tuples(key, uid), min_size=count, max_size=count))
    values = draw(
        st.lists(st.binary(min_size=vb, max_size=vb), min_size=count, max_size=count)
    )
    kind = draw(st.sampled_from(COLUMNS))
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    if count == 0:
        faults &= {"count_mismatch"}
    bad = bool(faults) or (kind == "packed_other_stride" and count > 0)
    if faults:
        at = draw(st.integers(0, count - 1)) if count else 0
        if "wide_key" in faults:
            keys[at] = (top + 1, keys[at][1])
        if "negative_key" in faults:
            where = draw(st.integers(0, count - 1))
            keys[where] = (-1 - draw(st.integers(0, top)), keys[where][1])
        if "wide_uid" in faults:
            where = draw(st.integers(0, count - 1))
            keys[where] = (keys[where][0], 1 << 32)
        if "wrong_width_value" in faults:
            kind = "list"
            values[at] = values[at] + b"!" if draw(st.booleans()) or not vb else values[at][1:]
        if "count_mismatch" in faults:
            if count and draw(st.booleans()):
                values.pop()
            else:
                values.append(bytes(vb))
    next_leaf = draw(st.one_of(st.just(NO_PAGE), st.integers(0, 1 << 40)))
    node = LeafNode(keys=keys, values=column(kind, values, vb), next_leaf=next_leaf)
    return kb, vb, node, bad


@settings(max_examples=300, deadline=None)
@given(case=leaves())
def test_leaf_images_and_errors_equal_the_reference(case):
    kb, vb, node, bad = case
    shipped = BTreeNodeSerializer(kb, vb)
    expected = outcome(ReferencePackSerializer(kb, vb), node)
    assert outcome(shipped, node) == expected
    assert (expected[0] == "raises") == bad
    if not bad:
        parsed = shipped.parse(expected[1])
        assert parsed.keys == node.keys
        assert list(parsed.values) == list(node.values)
        assert parsed.next_leaf == node.next_leaf


@pytest.mark.parametrize(
    "keys, values, error",
    [
        ([(1, 1), (2, 2)], [b"ab"], ValueError),  # count mismatch
        ([(1, 1)], [b"abc"], ValueError),  # wrong-width value
        ([(1 << 16, 1)], [b"ab"], OverflowError),  # key one past the width
        ([(-1, 1)], [b"ab"], OverflowError),  # negative key
        ([(1, 1 << 32)], [b"ab"], struct.error),  # uid out of range
        ([(1 << 16, 1 << 32)], [b"abc"], OverflowError),  # the key column first
        ([(1, 1 << 32)], [b"abc"], struct.error),  # then the uid column
    ],
)
def test_a_bad_leaf_raises_its_check_class(keys, values, error):
    for serializer in (BTreeNodeSerializer(2, 2), ReferencePackSerializer(2, 2)):
        with pytest.raises(error):
            serializer.pack(LeafNode(keys=keys, values=values))


# ----------------------------------------------------------------------
# Leaves built by random histories
# ----------------------------------------------------------------------

KB, VB = 3, 5
#: 7 entries a leaf, 5 separators an internal page: a few hundred
#: entries make a tree of height 3.
PAGE_SIZE = 96
TOP_KEY = (1 << (8 * KB)) - 1
MAX_UID = (1 << 32) - 1
#: One frame above the height + 4 the tree needs at height 3, so
#: histories evict.
POOL_PAGES = 8


class CheckedSerializer(BTreeNodeSerializer):
    """Packs every page as the shipped serializer does, after asserting
    that a leaf's image equals the reference's and that the leaf came
    with its columns (so the join, not the column encoder, made it)."""

    def __init__(self, key_bytes, value_bytes):
        super().__init__(key_bytes, value_bytes)
        self.reference = ReferencePackSerializer(key_bytes, value_bytes)
        self.leaves_packed = 0

    def pack(self, node):
        image = super().pack(node)
        if node.is_leaf:
            assert node.key_col is not None
            assert image == self.reference.pack(node)
            self.leaves_packed += 1
        return image


class History:
    """A small-page tree, a dict model of it and a tally of what the
    history's batches did to its leaves."""

    def __init__(self):
        config = BTreeConfig(key_bytes=KB, value_bytes=VB, page_size=PAGE_SIZE)
        self.serializer = CheckedSerializer(KB, VB)
        pool = BufferPool(
            SimulatedDisk(page_size=PAGE_SIZE), capacity=POOL_PAGES, serializer=self.serializer
        )
        self.tree = BPlusTree(pool, config)
        self.model: dict[tuple[int, int], bytes] = {}
        self.tally = dict.fromkeys(
            ("sheds", "chunk_splits", "borrows", "merges", "root_collapses", "rollbacks"), 0
        )
        self.writes = 0

    def value(self):
        self.writes += 1
        return self.writes.to_bytes(VB, "big")

    def insert(self, ck):
        if ck not in self.model:
            value = self.value()
            self.tree.insert(*ck, value)
            self.model[ck] = value

    def delete(self, ck):
        assert self.tree.delete(*ck)
        del self.model[ck]

    def replace(self, ck):
        value = self.value()
        assert self.tree.replace(*ck, value)
        self.model[ck] = value

    def batch_ops(self, inserts, doomed, rewritten):
        """Sorted ops: insert the new entries, delete the doomed ones
        and rewrite the others named."""
        ops = {ck: ("delete", *ck, None) for ck in doomed}
        for ck in rewritten:
            ops.setdefault(ck, ("replace", *ck, self.value()))
        for ck in inserts:
            if ck not in self.model:
                ops.setdefault(ck, ("insert", *ck, self.value()))
        return [ops[ck] for ck in sorted(ops)]

    def batch(self, ops):
        height = self.tree.height
        stats = self.tree.apply_sorted_batch(ops)
        for kind, key, uid, value in ops:
            if kind == "delete":
                del self.model[(key, uid)]
            else:
                self.model[(key, uid)] = value
        self.tally["sheds"] += stats.sheds
        self.tally["borrows"] += stats.borrows
        self.tally["merges"] += stats.merges
        self.tally["chunk_splits"] += stats.leaf_splits
        if self.tree.height < height:
            self.tally["root_collapses"] += 1

    def rolled_back_batch(self, ops):
        """The sharded facade's guarded sweep, undone after it applied."""
        tree, pool = self.tree, self.tree.pool
        pool.flush()
        pool.begin_sweep_guard()
        meta = (tree.root_id, tree.first_leaf_id, tree.height, tree.entry_count, tree.leaf_count)
        tree.apply_sorted_batch(ops)
        pool.rollback_sweep_guard()
        (tree.root_id, tree.first_leaf_id, tree.height, tree.entry_count, tree.leaf_count) = meta
        self.tally["rollbacks"] += 1

    def check(self):
        """Every leaf packs like the reference and parses back to its
        own columns; the tree holds the model."""
        tree = self.tree
        tree.check_invariants()
        shipped = BTreeNodeSerializer(KB, VB)
        reference = ReferencePackSerializer(KB, VB)
        leaf_id = tree.first_leaf_id
        while leaf_id != NO_PAGE:
            leaf = tree.pool.get(leaf_id)
            image = shipped.pack(leaf)
            assert image == reference.pack(leaf)
            parsed = shipped.parse(image)
            assert parsed == leaf
            assert parsed.key_col == leaf.key_col
            assert parsed.uid_col == leaf.uid_col
            assert parsed.values.data == leaf.values.data
            leaf_id = leaf.next_leaf
        assert [(key, uid) for key, uid, _ in tree.items()] == sorted(self.model)
        assert {(key, uid): value for key, uid, value in tree.items()} == self.model


composite_keys = st.tuples(
    st.one_of(st.integers(0, 400), st.just(TOP_KEY)),
    st.one_of(st.integers(0, 3), st.just(MAX_UID)),
)
STEPS = ("insert", "delete", "replace", "batch", "rollback", "clear", "cold")


class HypothesisPicks:
    """A history's choices, drawn from hypothesis (so they shrink)."""

    def __init__(self, data):
        self.draw = data.draw

    def key(self):
        return self.draw(composite_keys)

    def keys(self, most):
        return self.draw(st.lists(composite_keys, max_size=most))

    def choice(self, options):
        return self.draw(st.sampled_from(options))

    def between(self, lo, hi):
        return self.draw(st.integers(lo, hi))


class SeededPicks:
    """The same choices from a seeded ``random.Random``, for a long
    history whose coverage is asserted rather than sampled."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def key(self):
        rng = self.rng
        return (rng.choice((rng.randrange(401), TOP_KEY)), rng.choice((0, 1, 2, 3, MAX_UID)))

    def keys(self, most):
        return [self.key() for _ in range(self.rng.randrange(most + 1))]

    def choice(self, options):
        return self.rng.choice(options)

    def between(self, lo, hi):
        return self.rng.randint(lo, hi)


def batch_ops(picks, history):
    """A batch of up to 40 inserts, the deletion of a run of neighbours
    (it drains leaves) and up to 8 rewrites."""
    present = sorted(history.model)
    inserts = picks.keys(40)
    lo = picks.between(0, len(present))
    doomed = present[lo : picks.between(lo, len(present))]
    rewritten = [picks.choice(present) for _ in range(picks.between(0, 8))] if present else []
    return history.batch_ops(inserts, doomed, rewritten)


def run_step(picks, history):
    step = picks.choice(STEPS)
    present = sorted(history.model)
    if step == "insert":
        history.insert(picks.key())
    elif step in ("delete", "replace") and present:
        getattr(history, step)(picks.choice(present))
    elif step == "batch":
        history.batch(batch_ops(picks, history))
    elif step == "rollback":
        history.rolled_back_batch(batch_ops(picks, history))
    elif step == "clear":
        history.tree.pool.clear()  # cold residency: a re-read admits the kept node
    elif step == "cold":
        history.tree.pool.flush()
        history.tree.pool.invalidate()  # cold decode: a re-read parses
    history.check()


#: Scaled with the loaded profile: 40 histories by default, 250 under
#: ``--hypothesis-profile=deep``.
HISTORIES = max(40, settings.default.max_examples // 4)


@settings(max_examples=HISTORIES, deadline=None)
@given(data=st.data())
def test_leaves_of_random_histories_pack_like_the_reference(data):
    picks = HypothesisPicks(data)
    history = History()
    for _ in range(picks.between(1, 30)):
        run_step(picks, history)


def test_a_seeded_history_takes_every_leaf_edit():
    picks = SeededPicks(5)
    history = History()
    for _ in range(400):
        run_step(picks, history)
    assert all(history.tally.values()), history.tally
    assert history.serializer.leaves_packed > 0
