"""Page-oriented B+-tree with full rebalancing.

All node traffic flows through a :class:`repro.storage.BufferPool`, so the
physical-read counter of the attached disk *is* the I/O cost the paper's
experiments report.  The tree supports:

* ``insert(key, uid, value)`` / ``delete(key, uid)`` with sheds (a full
  leaf evens out with a sibling that has room before it splits), node
  splits, borrows, and merges (moving-object workloads delete as often
  as they insert, so structural shrinkage matters);
* ``search(key, uid)`` point lookups;
* ``scan_range(lo_key, hi_key)`` — the leaf-chain walk used by the Bx-tree
  and PEB-tree query algorithms (Figure 7, lines 11–18);
* ``scan_chunks(lo, hi)`` / ``scan_fenced(lo, hi)`` — the same walk as
  per-leaf packed runs: lazily, or whole and together with the keys the
  touched leaves and the descent hold just below and just above the
  range (the *fence* the PEB-tree's band sweep turns into stratum
  proofs).  Both stop on the landing leaf when the descent's separator
  right of it already lies above the range, so no leaf is read only to
  learn that it starts past ``hi``;
* ``check_invariants()`` — a structural validator used heavily by the
  property-based tests.

A buffer pool serves exactly one tree (its serializer is bound to the
tree's key/value widths).  The pool capacity must be at least the tree
height plus four so a single operation never evicts a frame it is holding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator

from repro.btree.node import NO_PAGE, InternalNode, LeafNode
from repro.btree.serialization import (
    CHILD_SIZE,
    INTERNAL_HEADER_SIZE,
    LEAF_HEADER_SIZE,
    UID_SIZE,
    BTreeNodeSerializer,
    key_column,
    uid_column,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import PAGE_SIZE

#: Largest uid value; used as the upper sentinel in composite-key ranges.
MAX_UID = 0xFFFFFFFF

CompositeKey = tuple[int, int]

#: One batch operation: ``(kind, key, uid, value)`` with kind one of
#: ``"insert"`` / ``"delete"`` / ``"replace"`` (value ignored for deletes).
BatchOp = tuple[str, int, int, bytes | None]

_BATCH_KINDS = frozenset(("insert", "delete", "replace"))

#: The ``below`` bracket :meth:`BPlusTree.scan_fenced` reports for a scan
#: that started in the first leaf of the chain with nothing before it:
#: smaller than every real key.
CHAIN_START: CompositeKey = (-1, 0)


@dataclass
class BatchApplyStats:
    """Accounting of one :meth:`BPlusTree.apply_sorted_batch` call.

    ``leaves_visited`` is the number the pipeline amortizes: applied one
    at a time, every op pays its own root-to-leaf descent; batched, all
    ops landing in the same leaf share one visit (and one split or
    rebalance pass), so ``ops - leaves_visited`` descents are saved.
    """

    ops: int = 0
    inserts: int = 0
    deletes: int = 0
    replaces: int = 0
    leaves_visited: int = 0
    leaf_splits: int = 0
    sheds: int = 0
    internal_splits: int = 0
    merges: int = 0
    borrows: int = 0

    @property
    def descents_saved(self) -> int:
        """Root-to-leaf descents one-at-a-time application would add."""
        return max(0, self.ops - self.leaves_visited)


@dataclass(frozen=True)
class BTreeConfig:
    """Geometry of one B+-tree, derived from the page size.

    Args:
        key_bytes: byte width of integer index keys.
        value_bytes: byte width of every leaf payload.
        page_size: disk page size (4096 in all paper experiments).
    """

    key_bytes: int = 10
    value_bytes: int = 28
    page_size: int = PAGE_SIZE

    @cached_property
    def leaf_capacity(self) -> int:
        """Maximum entries per leaf page."""
        entry = self.key_bytes + UID_SIZE + self.value_bytes
        capacity = (self.page_size - LEAF_HEADER_SIZE) // entry
        if capacity < 2:
            raise ValueError("page too small for two leaf entries")
        return capacity

    @cached_property
    def internal_capacity(self) -> int:
        """Maximum separators per internal page (children = this + 1)."""
        entry = self.key_bytes + UID_SIZE + CHILD_SIZE
        capacity = (self.page_size - INTERNAL_HEADER_SIZE - CHILD_SIZE) // entry
        if capacity < 2:
            raise ValueError("page too small for two separators")
        return capacity

    @cached_property
    def min_leaf_entries(self) -> int:
        """Underflow threshold for leaves (half full)."""
        return max(1, self.leaf_capacity // 2)

    @cached_property
    def min_children(self) -> int:
        """Underflow threshold for internal nodes (half the max children)."""
        return max(2, (self.internal_capacity + 2) // 2)


class BPlusTree:
    """A disk-based B+-tree of ``(key, uid) -> value`` entries."""

    def __init__(self, pool: BufferPool, config: BTreeConfig | None = None):
        self.pool = pool
        self.config = config if config is not None else BTreeConfig()
        self.serializer = BTreeNodeSerializer(
            self.config.key_bytes, self.config.value_bytes
        )
        if pool.serializer is None:
            pool.serializer = self.serializer
        self.root_id = pool.disk.allocate()
        self.first_leaf_id = self.root_id
        pool.put(
            self.root_id,
            LeafNode.empty(self.config.key_bytes, self.config.value_bytes),
        )
        self.height = 1
        self.entry_count = 0
        self.leaf_count = 1

    @classmethod
    def attach(
        cls,
        pool: BufferPool,
        config: BTreeConfig,
        root_id: int,
        first_leaf_id: int,
        height: int,
        entry_count: int,
        leaf_count: int,
    ) -> "BPlusTree":
        """Bind to a tree whose pages already live on the pool's disk.

        The checkpoint-restore path: no root is allocated, the recorded
        structural metadata is adopted verbatim.  The caller vouches
        that the disk snapshot and the metadata belong together.
        """
        tree = cls.__new__(cls)
        tree.pool = pool
        tree.config = config
        tree.serializer = BTreeNodeSerializer(config.key_bytes, config.value_bytes)
        if pool.serializer is None:
            pool.serializer = tree.serializer
        tree.root_id = root_id
        tree.first_leaf_id = first_leaf_id
        tree.height = height
        tree.entry_count = entry_count
        tree.leaf_count = leaf_count
        return tree

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def insert(self, key: int, uid: int, value: bytes) -> None:
        """Insert one entry; duplicates of ``(key, uid)`` are rejected,
        and a key, uid or value the page cannot store raises
        ``ValueError`` before any page changes."""
        self._check_key(key)
        self._check_uid(uid)
        self._check_value(value)
        ck = (key, uid)
        path = self._descend(ck)
        leaf_id = path[-1][0]
        leaf: LeafNode = self.pool.get(leaf_id)
        pos = bisect_left(leaf.keys, ck)
        if pos < len(leaf.keys) and leaf.keys[pos] == ck:
            raise KeyError(f"duplicate entry (key={key}, uid={uid})")
        room = None
        if len(leaf.keys) == self.config.leaf_capacity and len(path) > 1:
            parent_id, idx = path[-2]
            above = (parent_id, self.pool.get(parent_id), idx, True)
            room = self._room_beside(above, len(leaf.keys) + 1)
        leaf.insert_entry(pos, ck, value)
        self.entry_count += 1
        if len(leaf.keys) <= self.config.leaf_capacity:
            self.pool.put(leaf_id, leaf)
        elif room is not None:
            self._shed(leaf_id, leaf, room)
        else:
            self._split_leaf(path, leaf_id, leaf)

    def delete(self, key: int, uid: int) -> bool:
        """Remove the entry identified by ``(key, uid)``; True if found."""
        found = self._delete_rec(self.root_id, (key, uid))
        if found:
            self.entry_count -= 1
            self._collapse_root()
        return found

    def replace(self, key: int, uid: int, value: bytes) -> bool:
        """Rewrite the payload of an existing entry in place.

        A pure leaf-value rewrite: one descent, no structural change,
        no rebalancing — the cheap path for moving-object updates whose
        key is unchanged.  Returns False when the entry does not exist
        (nothing is written).
        """
        ck = (key, uid)
        leaf_id = self._descend(ck)[-1][0]
        leaf: LeafNode = self.pool.get(leaf_id)
        pos = bisect_left(leaf.keys, ck)
        if pos == len(leaf.keys) or leaf.keys[pos] != ck:
            return False
        leaf.set_value(pos, value)
        self.pool.put(leaf_id, leaf)
        return True

    def search(self, key: int, uid: int) -> bytes | None:
        """Point lookup; None if the entry does not exist."""
        ck = (key, uid)
        leaf_id = self._descend(ck)[-1][0]
        leaf: LeafNode = self.pool.get(leaf_id)
        pos = bisect_left(leaf.keys, ck)
        if pos < len(leaf.keys) and leaf.keys[pos] == ck:
            return leaf.values[pos]
        return None

    def scan_range(self, lo_key: int, hi_key: int) -> Iterator[tuple[int, int, bytes]]:
        """Yield ``(key, uid, value)`` for all entries with lo <= key <= hi."""
        yield from self.scan_composite((lo_key, 0), (hi_key, MAX_UID))

    def scan_composite(
        self, lo: CompositeKey, hi: CompositeKey
    ) -> Iterator[tuple[int, int, bytes]]:
        """Leaf-chain scan over an inclusive composite-key interval."""
        vb = self.config.value_bytes
        for keys, payload in self.scan_chunks(lo, hi):
            for i, (key, uid) in enumerate(keys):
                yield key, uid, payload[i * vb : (i + 1) * vb]

    def scan_chunks(
        self, lo: CompositeKey, hi: CompositeKey
    ) -> Iterator[tuple[list[CompositeKey], bytes]]:
        """Per-leaf contiguous runs of an inclusive composite interval.

        The packed fast path under :meth:`scan_composite`: each yielded
        pair is one leaf's in-range ``(composite keys, payload run)``
        where the payload run is ``len(keys) * value_bytes`` contiguous
        bytes in key order, ready for a batched decode
        (``struct.iter_unpack``) with no per-entry slicing.  The walk
        stops on the first leaf holding an entry ``> hi`` — or on the
        landing leaf itself when the separator right of the descent
        path lies above ``hi``: every key right of that separator is at
        least it, so the next leaf is never read just to find it empty
        of the range.  Lazy per leaf — a consumer that stops early
        never reads the leaves it did not reach; :meth:`scan_fenced` is
        the eager form that also reports what lies around the range.
        """
        if lo > hi:
            return
        leaf_id, upper = self._descend_low(lo)
        leaf: LeafNode = self.pool.get(leaf_id)
        keys = leaf.keys
        start = bisect_left(keys, lo)
        while True:
            stop = bisect_right(keys, hi, start)
            if stop > start:
                yield keys[start:stop], leaf.payload_slice(start, stop)
            if stop < len(keys) or leaf.next_leaf == NO_PAGE:
                return
            if upper is not None and hi < upper:
                return  # the descent's separator fences the range
            upper = None
            leaf = self.pool.get(leaf.next_leaf)
            keys = leaf.keys
            start = 0

    def scan_fenced(
        self, lo: CompositeKey, hi: CompositeKey
    ) -> tuple[
        list[tuple[list[CompositeKey], bytes]],
        CompositeKey | None,
        CompositeKey | None,
    ]:
        """One inclusive interval, whole, with the keys seen around it.

        Returns ``(chunks, below, above)``: the per-leaf runs
        :meth:`scan_chunks` would yield, as a list, and the *fence* — a
        scan of ``[lo, hi]`` lands on the leaf holding the first entry
        ``>= lo`` and stops on the first entry ``> hi`` or on the
        descent's separator above ``hi``; what brackets the range is in
        hand, so it is known for free, and with it a proof that the tree
        holds nothing between the brackets except what the scan
        returned.

        * ``below``: greatest entry ``< lo``; :data:`CHAIN_START` when
          the chain has none; None when ``lo`` fell on a leaf edge (the
          predecessor lives in a leaf the scan never read).
        * ``above``: least entry ``> hi`` when a leaf the scan read
          holds one; else the landing leaf's upper separator when it
          lies above ``hi`` — no entry is, but every entry right of it
          is at least it, which is all a proof needs (it may be stale,
          below the true successor); else a key past every
          representable one when the scan ran off the end of the chain.
          None only for an empty ``lo > hi`` range, which touches no
          page.

        A plain function, not a generator: the key multi-get
        (:meth:`repro.core.peb_tree.PEBTree.get_many`) calls it once per
        key of a shard job.  The page touches are those of
        :meth:`scan_chunks` run to exhaustion, in the same order — the
        descent's root, interior nodes and landing leaf, the landing
        leaf again as the walk's first, then each next leaf the range
        reaches — so buffer order, logical and physical reads cannot
        tell the two apart, and the fence never reads a page of its own:
        neither scan reads a leaf the descent ruled out.
        """
        if lo > hi:
            return [], None, None
        get = self.pool.get
        leaf_id, upper = self._descend_low(lo)
        leaf: LeafNode = get(leaf_id)
        keys = leaf.keys
        start = bisect_left(keys, lo)
        if start:
            below = keys[start - 1]
        else:
            below = CHAIN_START if leaf_id == self.first_leaf_id else None
        chunks = []
        while True:
            stop = bisect_right(keys, hi, start)
            if stop > start:
                chunks.append((keys[start:stop], leaf.payload_slice(start, stop)))
            if stop < len(keys):
                return chunks, below, keys[stop]
            if leaf.next_leaf == NO_PAGE:
                return chunks, below, (1 << (8 * self.config.key_bytes), 0)
            if upper is not None and hi < upper:
                return chunks, below, upper
            upper = None
            leaf = get(leaf.next_leaf)
            keys = leaf.keys
            start = 0

    def leaf_runs(self) -> Iterator[tuple[list[CompositeKey], bytes]]:
        """Every leaf's ``(keys, payload run)`` in chain order.

        The full-scan twin of :meth:`scan_chunks`, used by
        ``fetch_all``-style sweeps.  The yielded key list is the leaf's
        own (no copy) — callers must not mutate it or the tree while
        consuming the iterator.
        """
        leaf_id = self.first_leaf_id
        while leaf_id != NO_PAGE:
            leaf: LeafNode = self.pool.get(leaf_id)
            next_leaf = leaf.next_leaf
            if leaf.keys:
                yield leaf.keys, leaf.payload_slice(0, len(leaf.keys))
            leaf_id = next_leaf

    def items(self) -> Iterator[tuple[int, int, bytes]]:
        """Yield every entry in key order.

        Iterates each leaf's packed columns directly — no per-leaf list
        copies.  Like :meth:`scan_composite`, the tree must not be
        mutated while the iterator is live.
        """
        leaf_id = self.first_leaf_id
        while leaf_id != NO_PAGE:
            leaf: LeafNode = self.pool.get(leaf_id)
            next_leaf = leaf.next_leaf
            for (key, uid), value in zip(leaf.keys, leaf.values):
                yield key, uid, value
            leaf_id = next_leaf

    def __len__(self) -> int:
        return self.entry_count

    # ------------------------------------------------------------------
    # Batch application
    # ------------------------------------------------------------------

    def apply_sorted_batch(self, ops: list[BatchOp]) -> BatchApplyStats:
        """Apply key-sorted insert/delete/replace ops in one tree sweep.

        Args:
            ops: ``(kind, key, uid, value)`` tuples sorted strictly
                ascending by ``(key, uid)`` — at most one op per entry
                identity.  ``value`` is ignored for deletes.

        All ops landing in the same leaf are applied during a single
        visit; a leaf that overflows sheds to a sibling or is split into
        evenly filled chunks once, a leaf that underflows is rebalanced
        once, and interior nodes absorb their children's splits and
        merges in the same single pass.  The final tree is
        observationally identical to applying the ops one at a time
        (same entries, same invariants); only the physical page layout
        may differ.

        Raises:
            ValueError: ops unsorted, duplicated, of unknown kind, or
                carrying a key or uid too wide for the page or a value
                of the wrong width — detected up front, before any page
                is modified.
            KeyError: duplicate insert, or delete/replace of a missing
                entry.  Each leaf's group is validated against the leaf
                before any of its ops apply, so the failing group is
                never partially applied; groups in earlier leaves of
                the batch remain applied (the caller's bookkeeping —
                e.g. the PEB-tree's update memo — makes such batches
                impossible in normal operation).
        """
        stats = BatchApplyStats()
        if not ops:
            return stats
        previous: CompositeKey | None = None
        for kind, key, uid, value in ops:
            if kind not in _BATCH_KINDS:
                raise ValueError(f"unknown batch op kind {kind!r}")
            self._check_key(key)
            self._check_uid(uid)
            if kind != "delete":
                self._check_value(value)
            ck = (key, uid)
            if previous is not None and ck <= previous:
                raise ValueError(
                    f"batch ops must be strictly ascending by (key, uid); "
                    f"{ck} follows {previous}"
                )
            previous = ck
        # Mixed batches run as two homogeneous sweeps — shrinking ops
        # first, then inserts.  Op identities are pairwise distinct, so
        # the outcome is order-independent, and a homogeneous sweep
        # means no node ever absorbs child splits and child merges in
        # the same pass (a leaf sweep either only grows or only
        # shrinks), which keeps every resident page within its size
        # bound whenever an eviction can run.
        shrink = [op for op in ops if op[0] != "insert"]
        grow = [op for op in ops if op[0] == "insert"]
        for sweep in (shrink, grow):
            if sweep:
                self._apply_sweep(sweep, stats)
        return stats

    def _apply_sweep(self, ops: list[BatchOp], stats: BatchApplyStats) -> None:
        """One homogeneous (all-growing or all-shrinking) batch sweep."""
        merges = stats.merges
        splits, _ = self._batch_rec(self.root_id, ops, stats)
        while splits:
            new_root = InternalNode(
                separators=[separator for separator, _ in splits],
                children=[self.root_id] + [page_id for _, page_id in splits],
            )
            new_root_id = self.pool.disk.allocate()
            self.pool.put(new_root_id, new_root)
            self.root_id = new_root_id
            self.height += 1
            if len(new_root.separators) > self.config.internal_capacity:
                splits = self._split_internal_chunks(new_root_id, new_root, stats)
            else:
                splits = []
        # Only a merge can leave the root one child.  A merge-free sweep
        # must not touch the pool after its last mutation: a faulted
        # eviction there would fail a sweep that has applied in full.
        if stats.merges > merges:
            self._collapse_root()

    def _batch_rec(
        self,
        page_id: int,
        ops: list[BatchOp],
        stats: BatchApplyStats,
        above: tuple | None = None,
    ) -> tuple[list[tuple[CompositeKey, int]], bool]:
        """Apply ``ops`` under ``page_id``.

        ``above`` is ``(parent_id, parent, child index, left_ok)`` for
        every node but the root — what an overflowing leaf sheds by;
        ``left_ok`` is False when the child to the left split earlier in
        this sweep (the leaf's left neighbour is then a page the parent
        does not list yet).

        Returns ``(splits, underflowed)``: ``(separator, new_page_id)``
        pairs, ascending, for sibling nodes split off to the right of
        ``page_id``, and whether ``page_id`` itself ended below its
        minimum.  Underflow of ``page_id`` is the *caller's*
        responsibility (mirroring :meth:`_delete_rec`) — reporting it
        instead of letting the parent re-read every visited child is
        what keeps the batch's page traffic at one visit per touched
        node; underflows of this node's children are fixed here.
        """
        node = self.pool.get(page_id)
        if node.is_leaf:
            return self._batch_leaf(page_id, node, ops, stats, above)

        # Partition the sorted ops among children; ops and separators
        # are both ascending, so one forward walk suffices.
        separators = list(node.separators)
        children = list(node.children)
        groups: list[tuple[int, list[BatchOp]]] = []
        child_idx = 0
        current: list[BatchOp] = []
        for op in ops:
            ck = (op[1], op[2])
            idx = bisect_right(separators, ck, child_idx)
            if idx != child_idx:
                if current:
                    groups.append((child_idx, current))
                    current = []
                child_idx = idx
            current.append(op)
        if current:
            groups.append((child_idx, current))

        # `node` stays authoritative across the child recursion: an
        # eviction may write it back and a re-read may install a second
        # object, but nothing mutates this page while its subtree is
        # processed but a leaf's shed, which is handed this object —
        # so mutating the local object and re-putting it is sound, and
        # saves a physical re-read per interior node.
        pending: list[tuple[int, list[tuple[CompositeKey, int]]]] = []
        underfull: list[int] = []
        for idx, child_ops in groups:
            left_ok = not (pending and pending[-1][0] == idx - 1)
            child_splits, child_underflowed = self._batch_rec(
                children[idx], child_ops, stats, (page_id, node, idx, left_ok)
            )
            if child_splits:
                pending.append((idx, child_splits))
            if child_underflowed:
                underfull.append(children[idx])

        if pending:
            offset = 0
            for idx, child_splits in pending:
                for j, (separator, new_id) in enumerate(child_splits):
                    node.separators.insert(idx + offset + j, separator)
                    node.children.insert(idx + offset + j + 1, new_id)
                offset += len(child_splits)
            self.pool.put(page_id, node)

        # Split before touching any other page: an overfull node must
        # never be resident while an eviction can write it back.  In a
        # homogeneous sweep a node cannot both overflow and have
        # underfull children, so splitting first loses nothing.
        result: list[tuple[CompositeKey, int]] = []
        if len(node.separators) > self.config.internal_capacity:
            result = self._split_internal_chunks(page_id, node, stats)

        if underfull:
            self._fix_batch_underflows(page_id, node, underfull, stats)
        return result, len(node.children) < self.config.min_children

    def _batch_leaf(
        self,
        page_id: int,
        leaf: LeafNode,
        ops: list[BatchOp],
        stats: BatchApplyStats,
        above: tuple | None,
    ) -> tuple[list[tuple[CompositeKey, int]], bool]:
        """Apply one leaf's ops in a single visit; shed or split once.

        The group is validated against the leaf before the first
        mutation: ops have pairwise-distinct entry identities, so each
        op's present/absent status is independent of the others, and a
        doomed group raises with the leaf untouched.  A grow sweep is
        all inserts, so an overflow is known — and its sibling probed —
        before the leaf is touched.
        """
        stats.leaves_visited += 1
        for kind, key, uid, _ in ops:
            ck = (key, uid)
            pos = bisect_left(leaf.keys, ck)
            present = pos < len(leaf.keys) and leaf.keys[pos] == ck
            if kind == "insert" and present:
                raise KeyError(f"duplicate entry (key={key}, uid={uid})")
            if kind != "insert" and not present:
                raise KeyError(f"no entry (key={key}, uid={uid}) to {kind}")
        room = None
        total = len(leaf.keys) + len(ops)
        if above and ops[0][0] == "insert" and total > self.config.leaf_capacity:
            room = self._room_beside(above, total)
        for kind, key, uid, value in ops:
            ck = (key, uid)
            pos = bisect_left(leaf.keys, ck)
            if kind == "insert":
                leaf.insert_entry(pos, ck, value)
                self.entry_count += 1
                stats.inserts += 1
            elif kind == "delete":
                leaf.delete_entry(pos)
                self.entry_count -= 1
                stats.deletes += 1
            else:  # replace
                leaf.set_value(pos, value)
                stats.replaces += 1
            stats.ops += 1
        if len(leaf.keys) <= self.config.leaf_capacity:
            self.pool.put(page_id, leaf)
            return [], len(leaf.keys) < self.config.min_leaf_entries
        if room is not None:
            self._shed(page_id, leaf, room)
            stats.sheds += 1
            return [], False
        return self._split_leaf_chunks(page_id, leaf, stats), False

    @staticmethod
    def _chunk_sizes(total: int, max_per_chunk: int) -> list[int]:
        """Evenly balanced chunk sizes, each at most ``max_per_chunk``.

        Even distribution keeps every chunk at or above half of
        ``max_per_chunk`` (the underflow threshold), whatever the
        overflow factor.
        """
        chunks = -(-total // max_per_chunk)
        base, extra = divmod(total, chunks)
        return [base + 1] * extra + [base] * (chunks - extra)

    def _split_leaf_chunks(
        self, leaf_id: int, leaf: LeafNode, stats: BatchApplyStats
    ) -> list[tuple[CompositeKey, int]]:
        """Split an arbitrarily overfull leaf into evenly filled leaves.

        The original leaf is trimmed to its first chunk *before* any
        new page enters the pool, so no eviction can ever write back an
        overfull image.
        """
        sizes = self._chunk_sizes(len(leaf.keys), self.config.leaf_capacity)
        starts = list(accumulate(sizes[:-1]))
        new_ids = [self.pool.disk.allocate() for _ in starts]
        # Cut from the far end: each cut leaves the leaf holding the
        # chunks before it, and the last chunk keeps the old next_leaf.
        rights = [leaf.split_off(start) for start in reversed(starts)]
        rights.reverse()
        for right, next_id in zip(rights, new_ids[1:]):
            right.next_leaf = next_id
        leaf.next_leaf = new_ids[0]
        self.pool.put(leaf_id, leaf)
        splits: list[tuple[CompositeKey, int]] = []
        for right, right_id in zip(rights, new_ids):
            self.pool.put(right_id, right)
            splits.append((right.keys[0], right_id))
        self.leaf_count += len(new_ids)
        stats.leaf_splits += len(new_ids)
        return splits

    def _split_internal_chunks(
        self, page_id: int, node: InternalNode, stats: BatchApplyStats
    ) -> list[tuple[CompositeKey, int]]:
        """Split an arbitrarily overfull internal node into even chunks.

        As with leaves, the original is trimmed before new pages enter
        the pool so no eviction can write back an overfull image.
        """
        children = list(node.children)
        separators = list(node.separators)
        sizes = self._chunk_sizes(len(children), self.config.internal_capacity + 1)
        node.children = children[: sizes[0]]
        node.separators = separators[: sizes[0] - 1]
        self.pool.put(page_id, node)
        splits: list[tuple[CompositeKey, int]] = []
        start = sizes[0]
        for size in sizes[1:]:
            right = InternalNode(
                separators=separators[start : start + size - 1],
                children=children[start : start + size],
            )
            right_id = self.pool.disk.allocate()
            self.pool.put(right_id, right)
            splits.append((separators[start - 1], right_id))
            start += size
        stats.internal_splits += len(splits)
        return splits

    def _fix_batch_underflows(
        self,
        parent_id: int,
        parent: InternalNode,
        underfull: list[int],
        stats: BatchApplyStats,
    ) -> None:
        """Rebalance the reported underfull children of ``parent``.

        Batch deletes can drain a leaf far below the threshold, so one
        borrow may not suffice; each fix's surviving node is re-queued
        until every reported child satisfies its minimum.  Progress is
        guaranteed: a borrow shrinks the total deficit, a merge shrinks
        the child count.
        """
        pending = list(dict.fromkeys(underfull))
        while pending:
            child_id = pending.pop(0)
            try:
                idx = parent.children.index(child_id)
            except ValueError:
                continue  # merged away by an earlier fix
            child = self.pool.get(child_id)
            if not self._underflows(child) or len(parent.children) < 2:
                continue
            survivor = self._fix_one_batch_underflow(
                parent, parent_id, idx, child, stats
            )
            pending.insert(0, parent.children[survivor])

    def _fix_one_batch_underflow(
        self,
        parent: InternalNode,
        parent_id: int,
        idx: int,
        child,
        stats: BatchApplyStats,
    ) -> int:
        """One borrow or merge step on ``child``, ``parent.children[idx]``;
        returns the index to re-examine.

        A borrow into an internal child, or a merge of two internal
        nodes, makes a node that was its parent's only child a sibling
        of another.  Having had no sibling to rebalance with, its
        deficit may have gone unfixed; the step is the first chance to
        fix it, one level below.  A node with two or more children
        already had its children rebalanced, so only singletons need
        the recheck.
        """
        only = None if child.is_leaf or len(child.children) != 1 else child.children[0]
        if self._borrow(parent, parent_id, idx):
            stats.borrows += 1
            survivor = idx
            recheck = [] if only is None else [only]
        else:
            stats.merges += 1
            survivor = idx - 1 if idx > 0 else idx
            left_partner = self.pool.get(parent.children[survivor])
            right_partner = self.pool.get(parent.children[survivor + 1])
            recheck = [
                partner.children[0]
                for partner in (left_partner, right_partner)
                if not partner.is_leaf and len(partner.children) == 1
            ]
            self._merge_children(parent, parent_id, survivor)
        if recheck:
            survivor_id = parent.children[survivor]
            node = self.pool.get(survivor_id)
            self._fix_batch_underflows(survivor_id, node, recheck, stats)
        return survivor

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------

    def _check_key(self, key: int) -> None:
        if key < 0:
            raise ValueError(f"keys must be non-negative, got {key}")
        if key.bit_length() > self.config.key_bytes * 8:
            raise ValueError(
                f"key {key} does not fit in {self.config.key_bytes} bytes"
            )

    def _check_uid(self, uid: int) -> None:
        if not 0 <= uid <= MAX_UID:
            raise ValueError(f"uid {uid} does not fit in {UID_SIZE} bytes")

    def _check_value(self, value: bytes) -> None:
        if len(value) != self.config.value_bytes:
            raise ValueError(
                f"value is {len(value)} bytes, expected {self.config.value_bytes}"
            )

    def _descend(self, ck: CompositeKey) -> list[tuple[int, int]]:
        """Root-to-leaf path as ``(page_id, child_index_taken)`` pairs.

        The leaf's child index is meaningless and recorded as -1.
        """
        path: list[tuple[int, int]] = []
        page_id = self.root_id
        while True:
            node = self.pool.get(page_id)
            if node.is_leaf:
                path.append((page_id, -1))
                return path
            idx = bisect_right(node.separators, ck)
            path.append((page_id, idx))
            page_id = node.children[idx]

    def _descend_low(self, lo: CompositeKey) -> tuple[int, CompositeKey | None]:
        """Leaf that may contain the first entry >= ``lo``, with its upper
        bound: the tightest separator right of the descent path (every
        key in the leaf is below it, every key right of the leaf at or
        above it), or None for the last leaf."""
        sentinel = (lo[0], lo[1] - 1) if lo[1] > 0 else (lo[0] - 1, MAX_UID)
        page_id = self.root_id
        upper = None
        while True:
            node = self.pool.get(page_id)
            if node.is_leaf:
                return page_id, upper
            separators = node.separators
            idx = bisect_right(separators, sentinel)
            if idx < len(separators):
                upper = separators[idx]
            page_id = node.children[idx]

    # ------------------------------------------------------------------
    # Insert internals
    # ------------------------------------------------------------------

    def _sibling_order(self, parent: InternalNode, idx: int) -> list[int]:
        """Indices of the children beside ``idx``: resident first (a hot
        sibling costs no physical read), the left one on a tie."""
        sides = [s for s in (idx - 1, idx + 1) if 0 <= s < len(parent.children)]
        sides.sort(key=lambda side: parent.children[side] not in self.pool)
        return sides

    def _room_beside(self, above: tuple, total: int) -> tuple | None:
        """The overflow rule: where a leaf about to hold ``total`` entries
        sheds to, as ``(parent_id, parent, idx, side, sibling)``, or None
        to split.

        ``above`` is the leaf's ``(parent_id, parent, idx, left_ok)``.
        The leaf evens out with a same-parent sibling whenever the two
        pages hold all their entries — the textbook B*-tree rule: a shed
        may fill both.  Called *before* the leaf is touched: every page a
        shed needs is fetched — and every eviction those fetches cause
        is over — while all nodes are unmodified and within capacity, so
        a fault here leaves the tree as it was.
        """
        parent_id, parent, idx, left_ok = above
        for side in self._sibling_order(parent, idx):
            if side > idx or left_ok:
                sibling: LeafNode = self.pool.get(parent.children[side])
                if len(sibling.keys) + total <= 2 * self.config.leaf_capacity:
                    return parent_id, parent, idx, side, sibling
        return None

    def _shed(self, leaf_id: int, leaf: LeafNode, room: tuple) -> None:
        """Even an overfull leaf out with the sibling :meth:`_room_beside`
        found and move the one parent separator between them.  The two
        hold at most ``2·capacity`` entries, so evened out each is at
        most full: all three nodes are within capacity before the first
        ``put`` can evict."""
        parent_id, parent, idx, side, sibling = room
        move = (len(leaf.keys) - len(sibling.keys)) // 2  # entries handed over
        if side < idx:
            sibling.take_from_right(leaf, move)
            right = leaf
        else:
            sibling.take_from_left(leaf, move)
            right = sibling
        parent.separators[min(side, idx)] = right.keys[0]
        self.pool.put(leaf_id, leaf)
        self.pool.put(parent.children[side], sibling)
        self.pool.put(parent_id, parent)

    def _split_leaf(
        self, path: list[tuple[int, int]], leaf_id: int, leaf: LeafNode
    ) -> None:
        right = leaf.split_off(len(leaf.keys) // 2)
        right_id = self.pool.disk.allocate()
        leaf.next_leaf = right_id
        self.pool.put(leaf_id, leaf)
        self.pool.put(right_id, right)
        self.leaf_count += 1
        self._propagate_split(path[:-1], right.keys[0], right_id)

    def _propagate_split(
        self, path: list[tuple[int, int]], separator: CompositeKey, right_id: int
    ) -> None:
        while path:
            page_id, idx = path.pop()
            node: InternalNode = self.pool.get(page_id)
            node.separators.insert(idx, separator)
            node.children.insert(idx + 1, right_id)
            if len(node.separators) <= self.config.internal_capacity:
                self.pool.put(page_id, node)
                return
            mid = len(node.separators) // 2
            separator_up = node.separators[mid]
            right = InternalNode(
                separators=node.separators[mid + 1 :],
                children=node.children[mid + 1 :],
            )
            node.separators = node.separators[:mid]
            node.children = node.children[: mid + 1]
            new_right_id = self.pool.disk.allocate()
            self.pool.put(page_id, node)
            self.pool.put(new_right_id, right)
            separator = separator_up
            right_id = new_right_id
        new_root = InternalNode(separators=[separator], children=[self.root_id, right_id])
        new_root_id = self.pool.disk.allocate()
        self.pool.put(new_root_id, new_root)
        self.root_id = new_root_id
        self.height += 1

    # ------------------------------------------------------------------
    # Delete internals
    # ------------------------------------------------------------------

    def _delete_rec(self, page_id: int, ck: CompositeKey) -> bool:
        node = self.pool.get(page_id)
        if node.is_leaf:
            pos = bisect_left(node.keys, ck)
            if pos < len(node.keys) and node.keys[pos] == ck:
                node.delete_entry(pos)
                self.pool.put(page_id, node)
                return True
            return False
        idx = bisect_right(node.separators, ck)
        child_id = node.children[idx]
        found = self._delete_rec(child_id, ck)
        if not found:
            return False
        child = self.pool.get(child_id)
        if self._underflows(child):
            parent: InternalNode = self.pool.get(page_id)
            self._fix_underflow(parent, page_id, idx)
        return True

    def _underflows(self, node) -> bool:
        if node.is_leaf:
            return len(node.keys) < self.config.min_leaf_entries
        return len(node.children) < self.config.min_children

    def _can_spare(self, node) -> bool:
        if node.is_leaf:
            return len(node.keys) > self.config.min_leaf_entries
        return len(node.children) > self.config.min_children

    def _fix_underflow(self, parent: InternalNode, parent_id: int, idx: int) -> None:
        if not self._borrow(parent, parent_id, idx):
            self._merge_children(parent, parent_id, max(idx - 1, 0))

    def _borrow(self, parent: InternalNode, parent_id: int, idx: int) -> bool:
        """Refill child ``idx`` from the first sibling, resident ones
        first, that can spare an entry; False when neither can."""
        child_id = parent.children[idx]
        child = self.pool.get(child_id)
        for side in self._sibling_order(parent, idx):
            sibling_id = parent.children[side]
            sibling = self.pool.get(sibling_id)
            if not self._can_spare(sibling):
                continue
            if side < idx:
                self._borrow_from_left(parent, idx, sibling, child)
            else:
                self._borrow_from_right(parent, idx, child, sibling)
            self.pool.put(sibling_id, sibling)
            self.pool.put(child_id, child)
            self.pool.put(parent_id, parent)
            return True
        return False

    def _borrow_from_left(
        self, parent: InternalNode, idx: int, left, child
    ) -> None:
        if child.is_leaf:
            child.take_from_left(left, 1)
            parent.separators[idx - 1] = child.keys[0]
        else:
            child.separators.insert(0, parent.separators[idx - 1])
            parent.separators[idx - 1] = left.separators.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, parent: InternalNode, idx: int, child, right
    ) -> None:
        if child.is_leaf:
            child.take_from_right(right, 1)
            parent.separators[idx] = right.keys[0]
        else:
            child.separators.append(parent.separators[idx])
            parent.separators[idx] = right.separators.pop(0)
            child.children.append(right.children.pop(0))

    def _merge_children(self, parent: InternalNode, parent_id: int, i: int) -> None:
        """Absorb ``parent.children[i+1]`` into ``parent.children[i]``."""
        left_id = parent.children[i]
        right_id = parent.children[i + 1]
        left = self.pool.get(left_id)
        right = self.pool.get(right_id)
        if left.is_leaf:
            left.take_from_right(right, len(right.keys))
            left.next_leaf = right.next_leaf
            self.leaf_count -= 1
        else:
            left.separators.append(parent.separators[i])
            left.separators.extend(right.separators)
            left.children.extend(right.children)
        del parent.separators[i]
        del parent.children[i + 1]
        self.pool.put(left_id, left)
        self.pool.put(parent_id, parent)
        self.pool.free(right_id)

    def _collapse_root(self) -> None:
        root = self.pool.get(self.root_id)
        while not root.is_leaf and len(root.children) == 1:
            old_root = self.root_id
            self.root_id = root.children[0]
            self.pool.free(old_root)
            self.height -= 1
            root = self.pool.get(self.root_id)

    # ------------------------------------------------------------------
    # Validation (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify structural invariants; raises AssertionError on violation."""
        leaves: list[int] = []
        count = self._check_node(self.root_id, None, None, 1, leaves)
        assert count == self.entry_count, (
            f"entry_count={self.entry_count} but traversal found {count}"
        )
        assert len(leaves) == self.leaf_count, (
            f"leaf_count={self.leaf_count} but traversal found {len(leaves)}"
        )
        assert leaves[0] == self.first_leaf_id, "first leaf pointer is stale"
        # The leaf chain must visit exactly the leaves, in order.
        chain = []
        leaf_id = self.first_leaf_id
        while leaf_id != NO_PAGE:
            chain.append(leaf_id)
            chain_node = self.pool.get(leaf_id)
            leaf_id = chain_node.next_leaf
        assert chain == leaves, f"leaf chain {chain} != tree order {leaves}"

    def _check_node(
        self,
        page_id: int,
        lo: CompositeKey | None,
        hi: CompositeKey | None,
        depth: int,
        leaves: list[int],
    ) -> int:
        node = self.pool.get(page_id)
        if node.is_leaf:
            assert depth == self.height, (
                f"leaf {page_id} at depth {depth}, height {self.height}"
            )
            assert node.keys == sorted(node.keys), f"leaf {page_id} unsorted"
            assert len(set(node.keys)) == len(node.keys), f"leaf {page_id} dup keys"
            assert len(node.keys) == len(node.values)
            assert len(node.values.data) == len(node.keys) * node.values.stride, (
                f"leaf {page_id} value column holds {len(node.values.data)} bytes"
            )
            assert node.key_col == key_column(node.keys, self.config.key_bytes), (
                f"leaf {page_id} key column drifted from its keys"
            )
            assert node.uid_col == uid_column(node.keys), (
                f"leaf {page_id} uid column drifted from its keys"
            )
            assert len(node.keys) <= self.config.leaf_capacity
            if page_id != self.root_id:
                assert len(node.keys) >= self.config.min_leaf_entries, (
                    f"leaf {page_id} underfull: {len(node.keys)}"
                )
            for ck in node.keys:
                assert lo is None or ck >= lo, f"leaf {page_id}: {ck} < {lo}"
                assert hi is None or ck < hi, f"leaf {page_id}: {ck} >= {hi}"
            leaves.append(page_id)
            return len(node.keys)
        assert node.separators == sorted(node.separators)
        assert len(node.children) == len(node.separators) + 1
        assert len(node.separators) <= self.config.internal_capacity
        if page_id != self.root_id:
            assert len(node.children) >= self.config.min_children, (
                f"internal {page_id} underfull: {len(node.children)} children"
            )
        else:
            assert len(node.children) >= 2, "internal root must have >= 2 children"
        count = 0
        bounds = [lo] + list(node.separators) + [hi]
        for i, child in enumerate(node.children):
            count += self._check_node(child, bounds[i], bounds[i + 1], depth + 1, leaves)
        return count
