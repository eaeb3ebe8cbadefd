"""Privacy-unaware Bx-tree query algorithms.

Range queries enlarge the query window per time partition "to ensure that
all objects that may be in the result are found" (Figure 2): entries in a
partition are positioned as of that partition's label timestamp, so the
window grows by the maximum object speed times the gap between label and
query time on each side.  Candidates are then verified against their
actual (extrapolated) position at query time — the refinement step.

kNN queries iteratively enlarge a square window until k objects fall
inside its inscribed circle, starting from the estimated k-th-neighbour
distance of Tao et al. [33]:

    Dk = 2/sqrt(pi) * (1 - sqrt(1 - (k/N)^(1/2)))        (unit space)

Each round scans only the newly added ring ("the region R'q2 - R'q1 is
searched"), decomposed as four strips, so work grows with the area
covered rather than quadratically in the number of rounds.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.bxtree.tree import BxTree
from repro.motion.objects import MovingObject
from repro.spatial.geometry import Rect, euclidean


def enlargement_for_label(label: float, t_query: float, max_speed: float) -> float:
    """Per-side window growth for one partition (Figure 2)."""
    return max_speed * abs(label - t_query)


def estimate_knn_distance(k: int, n_total: int, space_side: float) -> float:
    """Estimated distance to the k-th nearest neighbour, scaled to space.

    The unit-square estimate of [33], multiplied by the space side
    length.  Guarded for ``k >= n_total`` where the estimate saturates.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if n_total <= 0:
        raise ValueError(f"n_total must be positive, got {n_total}")
    ratio = min(k / n_total, 1.0)
    dk = 2.0 / math.sqrt(math.pi) * (1.0 - math.sqrt(1.0 - math.sqrt(ratio)))
    return dk * space_side


class WindowScanner:
    """Incremental candidate scanning over growing windows.

    Remembers, per time partition, the (enlarged) window already covered;
    a subsequent larger window scans only the four ring strips that are
    new.  Every candidate uid is yielded at most once across the
    scanner's lifetime (one query).
    """

    def __init__(self, tree: BxTree, t_query: float):
        self.tree = tree
        self.t_query = t_query
        self.contexts = []
        for label in tree.partitioner.live_labels(t_query):
            tid = tree.partitioner.partition_of_label(label)
            dx = enlargement_for_label(label, t_query, tree.max_speed_x)
            dy = enlargement_for_label(label, t_query, tree.max_speed_y)
            self.contexts.append((tid, dx, dy))
        self._covered: dict[int, Rect] = {}
        self._seen: set[int] = set()

    def scan(self, window: Rect) -> Iterator[MovingObject]:
        """Yield unseen candidates whose stored position may fall in
        ``window`` at query time (refinement is the caller's job)."""
        for index, (tid, dx, dy) in enumerate(self.contexts):
            enlarged = window.expanded(dx, dy)
            previous = self._covered.get(index)
            strips = [enlarged] if previous is None else _ring_strips(previous, enlarged)
            self._covered[index] = enlarged
            for strip in strips:
                yield from self._scan_strip(tid, strip)

    def _scan_strip(self, tid: int, strip: Rect) -> Iterator[MovingObject]:
        for z_lo, z_hi in self.tree.grid.decompose(strip, coarsen=True):
            lo, hi = self.tree.codec.search_range(tid, z_lo, z_hi)
            for _, uid, payload in self.tree.btree.scan_range(lo, hi):
                if uid not in self._seen:
                    self._seen.add(uid)
                    yield self.tree.records.unpack(uid, payload)[0]


def _ring_strips(inner: Rect, outer: Rect) -> list[Rect]:
    """The four strips covering ``outer - inner`` (inner inside outer)."""
    strips = []
    if outer.y_lo < inner.y_lo:
        strips.append(Rect(outer.x_lo, outer.x_hi, outer.y_lo, inner.y_lo))
    if inner.y_hi < outer.y_hi:
        strips.append(Rect(outer.x_lo, outer.x_hi, inner.y_hi, outer.y_hi))
    if outer.x_lo < inner.x_lo:
        strips.append(Rect(outer.x_lo, inner.x_lo, inner.y_lo, inner.y_hi))
    if inner.x_hi < outer.x_hi:
        strips.append(Rect(inner.x_hi, outer.x_hi, inner.y_lo, inner.y_hi))
    return strips


def bx_range_query(tree: BxTree, window: Rect, t_query: float) -> list[MovingObject]:
    """All objects whose position at ``t_query`` lies in ``window``.

    Implements the Bx-tree range query of Section 2.1: per live
    partition, enlarge, convert to Z-intervals, scan, and refine with the
    actual locations at query time.
    """
    results = []
    for obj in WindowScanner(tree, t_query).scan(window):
        x, y = obj.position_at(t_query)
        if window.contains(x, y):
            results.append(obj)
    return results


def bx_knn(
    tree: BxTree, qx: float, qy: float, k: int, t_query: float
) -> list[tuple[float, MovingObject]]:
    """The k nearest objects to ``(qx, qy)`` at ``t_query``.

    Iterative range enlargement: start from radius ``Dk / k`` and widen by
    the same step until k objects sit inside the inscribed circle of the
    current square window.  Returns ``(distance, object)`` sorted by
    distance (fewer than k only when the index holds fewer objects).
    """
    return _iterative_knn(tree, qx, qy, k, t_query, accept=lambda obj, x, y: True)


def _iterative_knn(
    tree: BxTree,
    qx: float,
    qy: float,
    k: int,
    t_query: float,
    accept,
    exclude_uid: int | None = None,
) -> list[tuple[float, MovingObject]]:
    """Shared enlargement loop; ``accept(obj, x, y)`` filters candidates.

    Used with a constant-true filter for the plain Bx-tree kNN and with a
    policy check for the spatial-filter baseline (Section 4) — the loop
    keeps widening until k *accepted* users fall inside the inscribed
    circle.
    """
    n_total = len(tree)
    if n_total == 0 or k <= 0:
        return []
    step = estimate_knn_distance(k, n_total, tree.grid.space_side)
    radius = max(step / k, tree.grid.cell_size)
    step = max(step / k, tree.grid.cell_size)
    max_radius = tree.grid.space_side * math.sqrt(2.0)

    scanner = WindowScanner(tree, t_query)
    accepted: dict[int, tuple[float, MovingObject]] = {}
    while True:
        for obj in scanner.scan(Rect.from_center(qx, qy, radius)):
            if obj.uid == exclude_uid:
                continue
            x, y = obj.position_at(t_query)
            if accept(obj, x, y):
                accepted[obj.uid] = (euclidean(qx, qy, x, y), obj)
        within = [entry for entry in accepted.values() if entry[0] <= radius]
        if len(within) >= k:
            within.sort(key=lambda entry: entry[0])
            return within[:k]
        if radius >= max_radius:
            ranked = sorted(accepted.values(), key=lambda entry: entry[0])
            return ranked[:k]
        radius += step
