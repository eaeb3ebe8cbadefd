"""Query planning: served plans and on-demand bands (engine layer 1).

The planner turns a query specification — issuer, window, query time —
into a :class:`QueryPlan`.  The paper's search range is a *band*
``[TID ⊕ SV_lo ⊕ ZV_lo ; TID ⊕ SV_hi ⊕ ZV_hi]``, but the update memo
names each friend's live key ``K``, so every band a served plan would
hold is the point ``[K ; K]``, and the plan carries ``K`` itself:
key-ordered ``(live key, friend uid)`` pairs read straight off the memo
(:meth:`QueryPlanner.live_cells`, for both plans).  A PRQ plans one
key per friend whose cell, at its partition's label, lies inside the
window enlarged for that partition (:meth:`QueryPlanner.plan_range`),
and a PkNN one per visible friend whose distance lower bound — from
that cell, grown by the partition's enlargement and clipped to the
friend's visible regions — is at most the k-th smallest upper bound
among the friends sure to qualify (:meth:`QueryPlanner.plan_knn_probe`),
whose rows the executor verifies like a range plan's, without a window.
:class:`BandRequest` is left to the scans made on demand: the Section
5.4 walk's annulus pieces, the registration sweep
(:meth:`QueryPlanner.plan_seed`) and the Figure 7 ablation
(:meth:`QueryPlanner.plan_span_scan`, whose bands span ``SV_lo <
SV_hi``).

Under Definition 2 a friend is in an answer only if one of its policies
toward the issuer holds at ``t_query`` and the friend stands inside that
policy's ``locr``.  A range plan tests the cell first, over every owner
of the issuer's policy row, since it is the cheaper test and rejects
most of them, and then asks for the issuer's visibility map at
``t_query`` over the window restricted to the owners that passed
(:meth:`repro.policy.store.PolicyStore.visibility_map`, which keeps
only regions that meet the window): it plans the map's owners.  A PkNN
reads only an owner of the unwindowed map (the served plan iterates its
owners; the Section 5.4 walk keeps a matrix row per
:meth:`QueryPlanner.visible_friends`).  Everyone else provably fails
Definition 2 wherever they stand, or stands outside the window.  The
map is computed once per query and handed on to the verifier, which
tests the window before the map — so a region that misses the window,
holding no point in it, changes no verdict, and an owner left out of a
range plan's map has no row at its keys: a key's rows are the users
living there, and every owner living there passed the cell test with
the planned friend.  The registration sweep has no query time and the
Figure 7 ablation is the literal procedure; both keep the whole friend
list.

The paper's skip rule — "once a candidate user is found, the remaining
search intervals formed by this user's SV value are skipped ... a user
has only one location" — depends on scan results, so it cannot be
resolved at plan time; each planned key instead records the friend it
serves and the executor (:mod:`repro.engine.executor`) applies the rule
in exactly one place.

Keeping plans declarative is what enables cross-query batching: the
batch executor collects the keys of many concurrent plans and fetches
each distinct one once, for every issuer that names it
(:meth:`repro.engine.scanner.BandScanner.prefetch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, NamedTuple

from repro.bxtree.queries import enlargement_for_label, estimate_knn_distance
from repro.spatial.curves import ZOrderCurve
from repro.spatial.geometry import Rect

if TYPE_CHECKING:
    from repro.core.peb_tree import PEBTree

#: ``owner -> ((x_lo, x_hi, y_lo, y_hi), ...)``: where each owner with a
#: time-admitting policy toward the issuer is visible to it at one instant.
VisibilityMap = dict[int, tuple[tuple[float, float, float, float], ...]]


class BandRequest(NamedTuple):
    """One key-contiguous scan request against the PEB-tree, made on
    demand (the Section 5.4 walk, registration, the Figure 7 ablation).

    A NamedTuple rather than a dataclass: the walk allocates one per
    unproven annulus piece, so construction cost is on its path.

    Attributes:
        tid: time-partition id the band lives in.
        sv_lo_q, sv_hi_q: inclusive *quantized* sequence-value bounds
            (equal for the per-friend bands of Section 5.3).
        z_lo, z_hi: inclusive curve-value bounds.
    """

    tid: int
    sv_lo_q: int
    sv_hi_q: int
    z_lo: int
    z_hi: int

    @property
    def is_single_sv(self) -> bool:
        """True for a band inside one ``(tid, sv_q)`` stratum: a stratum
        residency can serve it, and it routes whole to one shard."""
        return self.sv_lo_q == self.sv_hi_q


@dataclass(frozen=True)
class PartitionContext:
    """One live time partition and its per-side window enlargements."""

    tid: int
    label: float
    dx: float
    dy: float

    def enlarged(self, rect: Rect) -> Rect:
        """The rectangle grown by this partition's enlargement (Figure 2)."""
        return rect.expanded(self.dx, self.dy)


@dataclass
class QueryPlan:
    """The static fetch schedule of one served query.

    ``bands`` are ``(live key, friend uid)`` pairs in key order — the
    point ``[K ; K]`` the paper's band shrinks to at a friend's live
    key, and the iteration order the executor replays with the skip
    rule applied.  ``visible`` is the issuer's visibility map at
    ``t_query`` (over ``window`` for a range plan, which computes it
    only over the owners whose live cell reaches the window, so its
    owners are exactly the friends it plans).
    """

    q_uid: int
    t_query: float
    bands: list[tuple[int, int]]
    window: Rect | None = None
    visible: VisibilityMap | None = None


class QueryPlanner:
    """Turns query specs into :class:`QueryPlan` objects for one tree."""

    def __init__(self, tree: "PEBTree"):
        self.tree = tree
        #: ``((t_query, max_speed_x, max_speed_y), contexts)`` of the
        #: last :meth:`contexts` call.
        self._contexts_memo: tuple[tuple, tuple[PartitionContext, ...]] | None = None

    # ------------------------------------------------------------------
    # Shared building blocks (also used by the Section 5.4 PkNN walk)
    # ------------------------------------------------------------------

    def friends(self, q_uid: int) -> list[tuple[float, int]]:
        """The issuer's friend list: ``(sv, uid)`` ascending by SV."""
        return self.tree.store.friend_list(q_uid)

    def visible_friends(
        self, q_uid: int, visible: VisibilityMap
    ) -> list[tuple[float, int]]:
        """The friends ``visible`` (the issuer's visibility map at the
        query instant) holds a region for, ``(sv, uid)`` ascending by SV."""
        return [friend for friend in self.friends(q_uid) if friend[1] in visible]

    def contexts(self, t_query: float) -> list[PartitionContext]:
        """Live partition contexts with their Figure 2 enlargements.

        The last result is kept, keyed on ``t_query`` and the tree's
        speed maxima (an update may raise them, and the enlargements
        grow with them): the specs of one batch share a query time.
        Every call returns a list of its own.
        """
        tree = self.tree
        live = tree.live
        memo_key = (t_query, live.max_speed_x, live.max_speed_y)
        memo = self._contexts_memo
        if memo is not None and memo[0] == memo_key:
            return list(memo[1])
        out = []
        for label in tree.partitioner.live_labels(t_query):
            out.append(
                PartitionContext(
                    tid=tree.partitioner.partition_of_label(label),
                    label=label,
                    dx=enlargement_for_label(label, t_query, live.max_speed_x),
                    dy=enlargement_for_label(label, t_query, live.max_speed_y),
                )
            )
        self._contexts_memo = (memo_key, tuple(out))
        return out

    def band(self, tid: int, sv: float, z_lo: int, z_hi: int) -> BandRequest:
        """The per-friend band ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]``."""
        sv_q = self.tree.codec.quantize_sv(sv)
        return BandRequest(tid=tid, sv_lo_q=sv_q, sv_hi_q=sv_q, z_lo=z_lo, z_hi=z_hi)

    def knn_step(self, k: int) -> float:
        """The PkNN radius step ``rq = Dk / k`` (Section 5.4).

        ``Dk`` is the estimated k-th-neighbour distance of Tao et
        al. [33]; the step is floored at one grid cell so the round
        count stays finite when ``k / N`` is tiny.  The matrix walk
        (:func:`repro.core.pknn.pknn_walk`) takes its round width from
        here.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        step = estimate_knn_distance(
            k, max(len(self.tree), 1), self.tree.grid.space_side
        )
        return max(step / k, self.tree.grid.cell_size)

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------

    def live_cells(
        self, owners: Collection[int], boxes: dict[int, tuple[int, int, int, int]]
    ) -> dict[int, tuple[int, int, int, int]]:
        """Where the update memo puts each owner that ``boxes`` admits:
        ``uid -> (live key, TID, ix, iy)``, in ``owners`` order.

        ``boxes`` maps a partition id to an inclusive cell box ``(ix_lo,
        ix_hi, iy_lo, iy_hi)``.  An owner is kept when it has a live key
        (``tree.live_keys_of``) whose partition has a box and whose cell
        lies inside it.  This is the one place a served plan reads a
        live key, and the key is kept as read.  Its TID and ZV come out
        by shift and mask (the codec's ``layout``), and on the Z-curve
        the cell test is integer arithmetic as well: Morton interleaving
        is monotone in each axis, so the ZV's x bits lie between the
        box's x bounds interleaved the same way exactly when the cell's
        column lies between the bounds, and likewise for y.  An owner
        the box rejects then costs no decode, and one it keeps is
        decoded once.  Another curve decodes every owner's cell.
        """
        tree = self.tree
        grid = tree.grid
        curve, bits = grid.curve, grid.bits
        decode = curve.decode
        tid_shift, _, _, zv_shift, zv_mask = tree.codec.layout
        morton = isinstance(curve, ZOrderCurve)
        if morton:
            encode, last = curve.encode, grid.cells_per_axis - 1
            x_bits, y_bits = encode(last, 0, bits), encode(0, last, bits)
            boxes = {
                tid: (
                    encode(ix_lo, 0, bits),
                    encode(ix_hi, 0, bits),
                    encode(0, iy_lo, bits),
                    encode(0, iy_hi, bits),
                )
                for tid, (ix_lo, ix_hi, iy_lo, iy_hi) in boxes.items()
            }
        box_of = boxes.get
        cells: dict[int, tuple[int, int, int, int]] = {}
        for uid, key in zip(owners, tree.live_keys_of(owners)):
            if key is None:
                continue
            tid = key >> tid_shift
            box = box_of(tid)
            if box is None:
                continue
            zv = key >> zv_shift & zv_mask
            if morton:
                x = zv & x_bits
                y = zv & y_bits
            else:
                x, y = decode(zv, bits)
            x_lo, x_hi, y_lo, y_hi = box
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                ix, iy = decode(zv, bits) if morton else (x, y)
                cells[uid] = (key, tid, ix, iy)
        return cells

    def plan_range(self, q_uid: int, window: Rect, t_query: float) -> QueryPlan:
        """Plan a PRQ-shaped scan (also serves the aggregates).

        Figure 2 enlarges the window per live partition because an
        indexed position is known only as of its partition's label:
        at ``t_query`` a user stands within ``max_speed · |t_query −
        label|`` of it.  The update memo names each friend's live key,
        and with it the partition and the grid cell the friend stood in
        at that label, so the enlargement is tested per friend instead
        of scanned per window.  Every owner of the issuer's policy row
        is tested there first (:meth:`live_cells`): it can qualify only
        if its key lies in a live partition and its cell inside
        ``grid.cell_box(context.enlarged(window))`` of that partition's
        context.  Every other owner's row provably misses the window at
        ``t_query``.  ``Grid.cell_of`` clamps a position outside the
        space into an edge cell, and the box clamps the same way, so a
        friend who left the space still meets its box.

        Only the owners that pass have their policies resolved: the
        issuer's visibility map at ``t_query`` over the window,
        restricted to them
        (:meth:`repro.policy.store.PolicyStore.visibility_map`), keeps
        those one of whose policies holds over a region that meets the
        window, and the plan is their ``(live key, uid)`` pairs: the
        point ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]`` each one's band
        shrinks to.  Both tests are exact, so the plan is that of
        testing the policies first; the cell comes first because it is
        the cheaper test and rejects most owners.  Pairs come in key
        order, as :meth:`plan_knn_probe`'s do.
        """
        tree = self.tree
        store, grid = tree.store, tree.grid
        cells = self.live_cells(
            store.owners_granting(q_uid),
            {
                context.tid: grid.cell_box(context.enlarged(window))
                for context in self.contexts(t_query)
            },
        )
        visible = store.visibility_map(q_uid, t_query, window, cells)
        return QueryPlan(
            q_uid=q_uid,
            t_query=t_query,
            bands=sorted([(cells[owner][0], owner) for owner in visible]),
            window=window,
            visible=visible,
        )

    def plan_span_scan(
        self, q_uid: int, window: Rect, t_query: float
    ) -> list[BandRequest]:
        """The bands of the literal Figure 7 procedure (the ablation
        variant), scanned on demand.

        Per (partition, Z-interval) one coarse band spans the issuer's
        whole ``[SV_min ; SV_max]`` friend range; the Z-intervals come
        from the coarsened exact decomposition rather than one covering
        span, as in the seed ablation.  A band serves no one friend.
        """
        friends = self.friends(q_uid)
        if not friends:
            return []
        codec = self.tree.codec
        sv_lo_q = codec.quantize_sv(friends[0][0])
        sv_hi_q = codec.quantize_sv(friends[-1][0])
        return [
            BandRequest(context.tid, sv_lo_q, sv_hi_q, z_lo, z_hi)
            for context in self.contexts(t_query)
            for z_lo, z_hi in self.tree.grid.decompose(
                context.enlarged(window), coarsen=True
            )
        ]

    def plan_knn_probe(
        self,
        q_uid: int,
        visible: VisibilityMap,
        qx: float,
        qy: float,
        k: int,
        t_query: float,
    ) -> list[tuple[int, int]]:
        """The whole plan of one PkNN: the friends that can be among the
        k nearest of ``(qx, qy)``, each fetched where it is.

        Definition 3 ranks only users Definition 2 admits, and only the
        owners of the issuer's visibility map at ``t_query`` can be
        admitted.  The update memo names each one's live key exactly
        (:meth:`live_cells`): a friend with no live key, or one in a
        partition no query at ``t_query`` may read, is not planned — the
        Section 5.4 walk would not reach it either.  The key's cell, at
        its partition's label, grown by that partition's enlargement
        (Figure 2), holds the friend at ``t_query``: the *grown cell*
        (widened by one cell on every side, so a coordinate
        ``Grid.cell_of`` rounds into the cell is inside it, and unbounded
        outward at the space's edge, where ``cell_of`` clamps).

        Clipped to the friend's visible regions (closed intervals), the
        grown cell bounds where the friend can qualify:

        * a friend whose grown cell meets none of its regions fails
          Definition 2 wherever it stands, and is dropped;
        * its *lower bound* is the least distance from ``(qx, qy)`` to a
          clipped piece;
        * a grown cell inside one region makes the friend *sure* to
          qualify, within the distance of the cell's farthest corner;
        * ``τ`` is the k-th smallest of the sure friends' upper bounds
          (infinite while fewer than k are sure): k users qualify within
          ``τ``, so a friend whose lower bound exceeds it cannot be among
          the k nearest.

        The plan is one ``(live key, uid)`` pair per friend whose lower
        bound is at most ``τ`` (``≤``, so a tie at the k-th distance
        still ranks by uid), in key order: the key holds the friend's
        own row, plus any raw-tie stratum-mate standing on the same
        cell, which the verifier then checks like any other row.  One
        round, no scan: the batch executor fetches these keys in one
        key-ordered multi-get with the range plans', and
        the served search keeps the k nearest of what they return
        (:func:`repro.core.pknn.pknn`).  The walk over the Section 5.4
        search matrix (:func:`repro.core.pknn.pknn_walk`) plans round by
        round instead and never calls this.
        """
        if k <= 0:
            return []
        grid = self.tree.grid
        contexts = {context.tid: context for context in self.contexts(t_query)}
        size, last = grid.cell_size, grid.cells_per_axis - 1
        cells = self.live_cells(visible, dict.fromkeys(contexts, (0, last, 0, last)))
        hypot, inf = math.hypot, math.inf
        # (lower bound, live key, uid) per friend whose grown cell meets
        # a region; the upper bound of each sure friend.
        candidates: list[tuple[float, int, int]] = []
        sure: list[float] = []
        for friend_uid, (key, tid, ix, iy) in cells.items():
            context, regions = contexts[tid], visible[friend_uid]
            # The grown cell: a cell wider on every side, unbounded past
            # an edge cell.
            x_lo = (ix - 1) * size - context.dx if ix > 0 else -inf
            x_hi = (ix + 2) * size + context.dx if ix < last else inf
            y_lo = (iy - 1) * size - context.dy if iy > 0 else -inf
            y_hi = (iy + 2) * size + context.dy if iy < last else inf
            lower = inf
            meets = inside = False
            for r_x_lo, r_x_hi, r_y_lo, r_y_hi in regions:
                # The piece of the grown cell inside this region, if any.
                lo_x = x_lo if x_lo > r_x_lo else r_x_lo
                hi_x = x_hi if x_hi < r_x_hi else r_x_hi
                lo_y = y_lo if y_lo > r_y_lo else r_y_lo
                hi_y = y_hi if y_hi < r_y_hi else r_y_hi
                if lo_x > hi_x or lo_y > hi_y:
                    continue
                meets = True
                near = hypot(
                    lo_x - qx if qx < lo_x else (qx - hi_x if qx > hi_x else 0.0),
                    lo_y - qy if qy < lo_y else (qy - hi_y if qy > hi_y else 0.0),
                )
                if near < lower:
                    lower = near
                if lo_x == x_lo and hi_x == x_hi and lo_y == y_lo and hi_y == y_hi:
                    inside = True
            if not meets:
                continue
            if inside:
                sure.append(  # the grown cell's farthest corner
                    hypot(
                        qx - x_lo if qx - x_lo > x_hi - qx else x_hi - qx,
                        qy - y_lo if qy - y_lo > y_hi - qy else y_hi - qy,
                    )
                )
            candidates.append((lower, key, friend_uid))
        tau = sorted(sure)[k - 1] if len(sure) >= k else inf
        return sorted([(key, uid) for lower, key, uid in candidates if lower <= tau])

    def plan_seed(self, q_uid: int) -> list[tuple[int, BandRequest]]:
        """A whole-space sweep of every friend's SV band, scanned on
        demand: ``(friend uid, band)`` pairs.

        The continuous-query registration scan: one full-Z-range band
        per (partition, friend), over *all* partitions — registration
        has no query time, so every partition may hold a friend's entry.
        """
        friends = self.friends(q_uid)
        max_z = self.tree.grid.max_z
        return [
            (friend_uid, self.band(tid, sv, 0, max_z))
            for tid in range(self.tree.partitioner.num_partitions)
            for sv, friend_uid in friends
        ]


__all__ = [
    "BandRequest",
    "PartitionContext",
    "QueryPlan",
    "QueryPlanner",
    "VisibilityMap",
]
