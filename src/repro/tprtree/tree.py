"""The TPR-tree: a time-parameterized R-tree for moving objects [27].

The paper's Section 2.1 groups moving-object indexes into three
families; the TPR-tree heads the R-tree family, and the benchmark study
the paper cites [3] names it one of the three best indexes.  Having it
next to the Bx-tree lets the evaluation check that the PEB-tree's win
over "a spatial index + policy filter" (Section 4) is not an artifact of
the specific spatial index chosen.

Structure and algorithms follow Šaltenis et al. [27] in their practical
essentials:

* entries are bounded by conservative :class:`~repro.tprtree.tpbr.TPBR`
  rectangles whose walls move with extreme member velocities;
* insertion descends by least enlargement of the **area integral** over
  the time horizon ``H`` (the paper's ∫A(t)dt objective);
* splits pick the axis with the larger center spread at insertion time
  and the division minimizing the two groups' summed area integrals;
* deletion descends only subtrees whose TPBR encloses the object's
  trajectory, removes the entry, prunes empty nodes, and collapses a
  single-child root.

Every node lives in one disk page through the shared buffer pool, so
query costs are measured in the same physical-page reads as the other
indexes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.motion.objects import MovingObject
from repro.spatial.geometry import Rect, euclidean
from repro.storage.buffer import BufferPool
from repro.tprtree.node import (
    HEADER_SIZE,
    INTERNAL_ENTRY_SIZE,
    LEAF_ENTRY_SIZE,
    TPRInternal,
    TPRLeaf,
    TPRNodeSerializer,
)
from repro.tprtree.tpbr import TPBR

#: Default time horizon for the area-integral objective (the TPR-tree's
#: H parameter): one maximum update interval, per common practice.
DEFAULT_HORIZON = 120.0


@dataclass(frozen=True)
class TPRTreeConfig:
    """Capacities derived from the page geometry plus the horizon H."""

    page_size: int = 4096
    horizon: float = DEFAULT_HORIZON

    @property
    def leaf_capacity(self) -> int:
        capacity = (self.page_size - HEADER_SIZE) // LEAF_ENTRY_SIZE
        if capacity < 2:
            raise ValueError(f"page size {self.page_size} too small for a leaf")
        return capacity

    @property
    def internal_capacity(self) -> int:
        capacity = (self.page_size - HEADER_SIZE) // INTERNAL_ENTRY_SIZE
        if capacity < 2:
            raise ValueError(f"page size {self.page_size} too small for a node")
        return capacity

    def min_fill(self, capacity: int) -> int:
        return max(1, capacity // 3)


class TPRTree:
    """A paged TPR-tree with insert/delete/update and query operations."""

    def __init__(self, pool: BufferPool, config: TPRTreeConfig | None = None):
        self.pool = pool
        self.config = config if config is not None else TPRTreeConfig(
            page_size=pool.disk.page_size
        )
        if self.config.page_size > pool.disk.page_size:
            raise ValueError(
                f"configured page size {self.config.page_size} exceeds the "
                f"disk's {pool.disk.page_size}"
            )
        self.serializer = TPRNodeSerializer()
        self.root_id = self._allocate(TPRLeaf())
        self._live: dict[int, tuple[MovingObject, int]] = {}
        self.now = 0.0

    # ------------------------------------------------------------------
    # Page plumbing
    # ------------------------------------------------------------------

    def _allocate(self, node) -> int:
        page_id = self.pool.disk.allocate()
        self.pool.put(page_id, node)
        return page_id

    def _node(self, page_id: int):
        return self.pool.get(page_id, self.serializer)

    def _store(self, page_id: int, node) -> None:
        self.pool.put(page_id, node)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj: MovingObject, pntp: int = 0) -> None:
        """Index an object's current state."""
        if obj.uid in self._live:
            raise KeyError(f"user {obj.uid} is already indexed; use update()")
        self.now = max(self.now, obj.t_update)
        entry_tpbr = TPBR.from_object(obj)

        # Descend by least area-integral enlargement, remembering the path.
        path: list[tuple[int, TPRInternal, int]] = []  # (page, node, child slot)
        page_id = self.root_id
        node = self._node(page_id)
        while not node.is_leaf:
            slot = self._choose_subtree(node, entry_tpbr)
            path.append((page_id, node, slot))
            page_id = node.entries[slot][0]
            node = self._node(page_id)

        node.entries.append((obj, pntp))
        self._live[obj.uid] = (obj, pntp)

        if len(node) <= self.config.leaf_capacity:
            self._store(page_id, node)
            self._widen_path(path, entry_tpbr)
            return
        self._split_and_propagate(page_id, node, path)

    def delete(self, uid: int) -> bool:
        """Remove a user's entry; True if the user was indexed."""
        state = self._live.pop(uid, None)
        if state is None:
            return False
        obj, _ = state
        removed = self._delete_descend(self.root_id, obj)
        if not removed:
            raise RuntimeError(f"update memo out of sync for user {uid}")
        self._collapse_root()
        return True

    def update(self, obj: MovingObject, pntp: int = 0) -> None:
        """Replace a user's entry with a new state (delete + insert)."""
        self.delete(obj.uid)
        self.insert(obj, pntp)

    def contains(self, uid: int) -> bool:
        return uid in self._live

    def __len__(self) -> int:
        return len(self._live)

    @property
    def stats(self):
        """I/O counters of the underlying disk."""
        return self.pool.stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_query(self, rect: Rect, t: float) -> list[MovingObject]:
        """Objects whose (predicted) position at ``t`` lies inside ``rect``."""
        results: list[MovingObject] = []
        stack = [self.root_id]
        while stack:
            node = self._node(stack.pop())
            if node.is_leaf:
                for obj, _ in node.entries:
                    x, y = obj.position_at(t)
                    if rect.contains(x, y):
                        results.append(obj)
                continue
            for child, tpbr in node.entries:
                if tpbr.intersects_at(rect, t):
                    stack.append(child)
        return results

    def nearest(self, x: float, y: float, t: float):
        """Yield ``(distance, object)`` in ascending distance at time ``t``.

        Classic best-first traversal; consuming lazily lets the policy
        filter baseline pull candidates until k qualify.
        """
        counter = itertools.count()
        heap: list[tuple[float, int, bool, object]] = [
            (0.0, next(counter), False, self.root_id)
        ]
        while heap:
            distance, _, is_object, item = heapq.heappop(heap)
            if is_object:
                yield distance, item
                continue
            node = self._node(item)
            if node.is_leaf:
                for obj, _ in node.entries:
                    ox, oy = obj.position_at(t)
                    heapq.heappush(
                        heap, (euclidean(x, y, ox, oy), next(counter), True, obj)
                    )
            else:
                for child, tpbr in node.entries:
                    heapq.heappush(
                        heap,
                        (tpbr.min_distance_at(x, y, t), next(counter), False, child),
                    )

    def knn(self, x: float, y: float, k: int, t: float) -> list[tuple[float, MovingObject]]:
        """The k nearest objects to ``(x, y)`` at time ``t``."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        return list(itertools.islice(self.nearest(x, y, t), k))

    def fetch_all(self) -> list[MovingObject]:
        """Every indexed object (diagnostic full scan)."""
        results = []
        stack = [self.root_id]
        while stack:
            node = self._node(stack.pop())
            if node.is_leaf:
                results.extend(obj for obj, _ in node.entries)
            else:
                stack.extend(child for child, _ in node.entries)
        return results

    # ------------------------------------------------------------------
    # Structure metrics / invariants
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Levels from root to leaves (1 when the root is a leaf)."""
        levels = 1
        node = self._node(self.root_id)
        while not node.is_leaf:
            levels += 1
            node = self._node(node.entries[0][0])
        return levels

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation.

        * every internal entry's TPBR conservatively bounds its subtree;
        * all leaves sit at the same depth;
        * no node exceeds its capacity.
        """
        leaf_depths: set[int] = set()

        def check(page_id: int, depth: int, bound: TPBR | None):
            node = self._node(page_id)
            if node.is_leaf:
                assert len(node) <= self.config.leaf_capacity, "leaf overflow"
                leaf_depths.add(depth)
                if bound is not None:
                    for obj, _ in node.entries:
                        assert bound.contains_object(obj), (
                            f"object {obj.uid} escapes its TPBR bound"
                        )
                return
            assert len(node) <= self.config.internal_capacity, "node overflow"
            assert len(node) >= 1, "empty internal node"
            for child, tpbr in node.entries:
                check(child, depth + 1, tpbr)

        check(self.root_id, 0, None)
        assert len(leaf_depths) <= 1, f"leaves at mixed depths: {leaf_depths}"

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------

    def _objective(self, tpbr: TPBR) -> float:
        return tpbr.area_integral(self.now, self.now + self.config.horizon)

    def _choose_subtree(self, node: TPRInternal, entry: TPBR) -> int:
        """Child slot with least area-integral enlargement (ties: smaller)."""
        best_slot = 0
        best_key: tuple[float, float] | None = None
        for slot, (_, tpbr) in enumerate(node.entries):
            current = self._objective(tpbr)
            enlarged = self._objective(tpbr.union(entry))
            key = (enlarged - current, current)
            if best_key is None or key < best_key:
                best_key = key
                best_slot = slot
        return best_slot

    def _widen_path(self, path, entry: TPBR) -> None:
        """Union the new entry into every ancestor's child TPBR."""
        for page_id, node, slot in reversed(path):
            child, tpbr = node.entries[slot]
            node.entries[slot] = (child, tpbr.union(entry))
            self._store(page_id, node)

    def _split_and_propagate(self, page_id, node, path) -> None:
        """Split an overflowing node and push splits up the path."""
        while True:
            sibling = self._split(node)
            sibling_id = self._allocate(sibling)
            self._store(page_id, node)

            if not path:
                # Grow a new root over the two halves.
                root = TPRInternal(
                    entries=[
                        (page_id, node.tpbr()),
                        (sibling_id, sibling.tpbr()),
                    ]
                )
                self.root_id = self._allocate(root)
                return

            parent_id, parent, slot = path.pop()
            parent.entries[slot] = (page_id, node.tpbr())
            parent.entries.insert(slot + 1, (sibling_id, sibling.tpbr()))
            if len(parent) <= self.config.internal_capacity:
                self._store(parent_id, parent)
                self._refresh_path(path)
                return
            page_id, node = parent_id, parent

    def _refresh_path(self, path) -> None:
        """Recompute each ancestor's child TPBR after a lower split."""
        for page_id, node, slot in reversed(path):
            child_id, _ = node.entries[slot]
            child = self._node(child_id)
            node.entries[slot] = (child_id, child.tpbr())
            self._store(page_id, node)

    def _split(self, node):
        """Split an overflowing node; mutates ``node``, returns the sibling.

        Axis: larger spread of entry centers at ``now``.  Division point:
        least summed area integral of the two groups, respecting the
        minimum fill.
        """
        if node.is_leaf:
            tpbrs = [TPBR.from_object(obj) for obj, _ in node.entries]
            capacity = self.config.leaf_capacity
        else:
            tpbrs = [tpbr for _, tpbr in node.entries]
            capacity = self.config.internal_capacity
        centers = [tpbr.bounds_at(self.now).center for tpbr in tpbrs]

        def spread(axis: int) -> float:
            values = [center[axis] for center in centers]
            return max(values) - min(values)

        axis = 0 if spread(0) >= spread(1) else 1
        order = sorted(range(len(tpbrs)), key=lambda i: centers[i][axis])

        min_fill = self.config.min_fill(capacity)
        best_cut = min_fill
        best_cost = None
        for cut in range(min_fill, len(order) - min_fill + 1):
            left = _union_of(tpbrs, order[:cut])
            right = _union_of(tpbrs, order[cut:])
            cost = self._objective(left) + self._objective(right)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_cut = cut

        entries = node.entries
        left_entries = [entries[i] for i in order[:best_cut]]
        right_entries = [entries[i] for i in order[best_cut:]]
        node.entries = left_entries
        if node.is_leaf:
            return TPRLeaf(entries=right_entries)
        return TPRInternal(entries=right_entries)

    # ------------------------------------------------------------------
    # Deletion internals
    # ------------------------------------------------------------------

    def _delete_descend(self, page_id: int, obj: MovingObject) -> bool:
        node = self._node(page_id)
        if node.is_leaf:
            for index, (entry, _) in enumerate(node.entries):
                if entry.uid == obj.uid:
                    del node.entries[index]
                    self._store(page_id, node)
                    return True
            return False
        for slot, (child, tpbr) in enumerate(node.entries):
            if not tpbr.contains_object(obj):
                continue
            if not self._delete_descend(child, obj):
                continue
            child_node = self._node(child)
            if len(child_node) == 0:
                del node.entries[slot]
                self.pool.free(child)
            else:
                node.entries[slot] = (child, child_node.tpbr())
            self._store(page_id, node)
            return True
        return False

    def _collapse_root(self) -> None:
        """Shrink the tree when the root holds a single internal child."""
        while True:
            root = self._node(self.root_id)
            if root.is_leaf or len(root) != 1:
                return
            child_id = root.entries[0][0]
            child = self._node(child_id)
            if child.is_leaf and len(root) == 1:
                # Promote the leaf to root only when the root is trivial.
                self.pool.free(self.root_id)
                self.root_id = child_id
                return
            self.pool.free(self.root_id)
            self.root_id = child_id


def _union_of(tpbrs: list[TPBR], indexes: list[int]) -> TPBR:
    merged = tpbrs[indexes[0]]
    for i in indexes[1:]:
        merged = merged.union(tpbrs[i])
    return merged
