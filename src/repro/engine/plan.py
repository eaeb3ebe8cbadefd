"""Query planning: band requests and query plans (engine layer 1).

The planner turns a query specification — issuer, window, query time —
into a :class:`QueryPlan`: the ordered list of *band requests* the
Section 5.3 pipeline scans.  A band request is one key-contiguous
stretch of the PEB-tree,

    ``[TID ⊕ SV_lo ⊕ ZV_lo ; TID ⊕ SV_hi ⊕ ZV_hi]``,

with ``SV_lo == SV_hi`` for the per-friend bands of the served plans
and ``SV_lo < SV_hi`` for the coarse whole-friend-list span of the
Figure 7 ablation.

A plan captures everything *static* about a query: the live partition
contexts (per-partition window enlargements of Figure 2), the friends
who can qualify sorted ascending by sequence value, and the bands.  The
update memo names each friend's live key, so both served plans fetch a
friend where it is (:meth:`QueryPlanner.live_cells` reads the key, for
both): a PRQ plans one point band ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]``
per friend whose cell, at its partition's label, lies inside the window
enlarged for that partition (:meth:`QueryPlanner.plan_range`), and a
PkNN one per visible friend whose distance lower bound — from that
cell, grown by the partition's enlargement and clipped to the friend's
visible regions — is at most the k-th smallest upper bound among the
friends sure to qualify (:meth:`QueryPlanner.plan_knn_probe`), whose
rows the executor verifies like a range plan's, without a window.

Under Definition 2 a friend is in an answer only if one of its policies
toward the issuer holds at ``t_query`` and the friend stands inside that
policy's ``locr``.  A range plan tests the cell first, over every owner
of the issuer's policy row, since it is the cheaper test and rejects
most of them, and then asks for the issuer's visibility map at
``t_query`` over the window restricted to the owners that passed
(:meth:`repro.policy.store.PolicyStore.visibility_map`, which keeps
only regions that meet the window): it bands the map's owners.  A PkNN
reads only an owner of the unwindowed map (the served plan iterates its
owners; the Section 5.4 walk keeps a matrix row per
:meth:`QueryPlanner.visible_friends`).  Everyone else provably fails
Definition 2 wherever they stand, or stands outside the window.  The
map is computed once per query and handed on to the verifier, which
tests the window before the map — so a region that misses the window,
holding no point in it, changes no verdict, and an owner left out of a
range plan's map has no row in its bands: a band returns the rows at
one live key, and every owner living there passed the cell test with
the banded friend.  The registration sweep
(:meth:`QueryPlanner.plan_seed`) has no query time and the Figure 7
ablation (:meth:`QueryPlanner.plan_span_scan`) is the literal procedure;
both keep the whole friend list.

The paper's skip rule — "once a candidate user is found, the remaining
search intervals formed by this user's SV value are skipped ... a user
has only one location" — depends on scan results, so it cannot be
resolved at plan time; each planned band instead records the friend it
serves and the executor (:mod:`repro.engine.executor`) applies the rule
in exactly one place.

Keeping plans declarative is what enables cross-query batching: the
batch executor can collect the bands of many concurrent plans, merge
the overlapping ones, and serve every issuer from one physical scan
(:meth:`repro.engine.scanner.BandScanner.prefetch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
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
    """One key-contiguous scan request against the PEB-tree.

    A NamedTuple rather than a dataclass: plans allocate one per
    banded friend, so construction cost is on the per-query path.

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
        """True for the per-friend bands the batch store can subdivide."""
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


class PlannedBand(NamedTuple):
    """A band request annotated with the friend it serves.

    ``friend_uid`` is None for bands not tied to a single friend (the
    span-scan ablation); the executor's skip rule only applies when a
    friend is recorded.
    """

    friend_uid: int | None
    band: BandRequest


@dataclass
class QueryPlan:
    """The static scan schedule of one range-shaped query.

    Bands are ordered partition-major, then ascending by SV — the
    iteration order of the paper's Figure 7 procedure (key order for
    the served plans' point bands), which the executor replays with the
    skip rule applied.  ``visible`` is the issuer's visibility map at
    ``t_query`` over ``window`` when the planner computed one (the
    verifier computes it otherwise); a served range plan computes it
    only over the owners whose live cell reaches the window, so its
    owners, and ``friends``, are exactly the friends it bands.
    """

    q_uid: int
    t_query: float
    friends: list[tuple[float, int]]
    contexts: list[PartitionContext]
    bands: list[PlannedBand]
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
    ) -> dict[int, tuple[int, int, int, int, int]]:
        """Where the update memo puts each owner that ``boxes`` admits:
        ``uid -> (TID, sv_q, ZV, ix, iy)``, in ``owners`` order.

        ``boxes`` maps a partition id to an inclusive cell box ``(ix_lo,
        ix_hi, iy_lo, iy_hi)``.  An owner is kept when it has a live key
        (``tree.live_keys_of``) whose partition has a box and whose cell
        lies inside it.  This is the one place a served plan reads a
        live key.  The fields come out of the key by shift and mask (the
        codec's ``layout``), and on the Z-curve the cell test is integer
        arithmetic as well: Morton interleaving is monotone in each axis,
        so the ZV's x bits lie between the box's x bounds interleaved
        the same way exactly when the cell's column lies between the
        bounds, and likewise for y.  An owner the box rejects then costs
        no decode, and one it keeps is decoded once.  Another curve
        decodes every owner's cell.
        """
        tree = self.tree
        grid = tree.grid
        curve, bits = grid.curve, grid.bits
        decode = curve.decode
        tid_shift, sv_shift, sv_mask, zv_shift, zv_mask = tree.codec.layout
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
        cells: dict[int, tuple[int, int, int, int, int]] = {}
        for uid, key in zip(owners, tree.live_keys_of(owners)):
            if key is None:
                continue
            box = box_of(key >> tid_shift)
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
                cells[uid] = (key >> tid_shift, key >> sv_shift & sv_mask, zv, ix, iy)
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
        window.  They are the plan's ``friends``, ``(sv, uid)``
        ascending, and each gets one point band ``[TID ⊕ SV ⊕ ZV ; TID ⊕
        SV ⊕ ZV]`` at its live key.  Both tests are exact, so the bands
        are those of testing the policies first; the cell comes first
        because it is the cheaper test and rejects most owners.  Bands
        come in key order, partition-major and SV-ascending, as
        :meth:`plan_knn_probe`'s do.
        """
        tree = self.tree
        store, grid = tree.store, tree.grid
        contexts = self.contexts(t_query)
        cells = self.live_cells(
            store.owners_granting(q_uid),
            {context.tid: grid.cell_box(context.enlarged(window)) for context in contexts},
        )
        visible = store.visibility_map(q_uid, t_query, window, cells)
        sequence_value = store.sequence_value
        friends = sorted([(sequence_value(owner), owner) for owner in visible])
        bands: list[PlannedBand] = []
        for _, friend_uid in friends:
            tid, sv_q, zv, _, _ = cells[friend_uid]
            bands.append(PlannedBand(friend_uid, BandRequest(tid, sv_q, sv_q, zv, zv)))
        bands.sort(key=itemgetter(1))
        return QueryPlan(
            q_uid=q_uid,
            t_query=t_query,
            friends=friends,
            contexts=contexts,
            bands=bands,
            window=window,
            visible=visible,
        )

    def plan_span_scan(self, q_uid: int, window: Rect, t_query: float) -> QueryPlan:
        """Plan the literal Figure 7 procedure (the ablation variant).

        Per (partition, Z-interval) one coarse band spans the issuer's
        whole ``[SV_min ; SV_max]`` friend range; the Z-intervals come
        from the coarsened exact decomposition rather than one covering
        span, as in the seed ablation.
        """
        friends = self.friends(q_uid)
        contexts = self.contexts(t_query)
        bands: list[PlannedBand] = []
        if friends:
            codec = self.tree.codec
            sv_lo_q = codec.quantize_sv(friends[0][0])
            sv_hi_q = codec.quantize_sv(friends[-1][0])
            for context in contexts:
                for z_lo, z_hi in self.tree.grid.decompose(
                    context.enlarged(window), coarsen=True
                ):
                    bands.append(
                        PlannedBand(
                            None,
                            BandRequest(context.tid, sv_lo_q, sv_hi_q, z_lo, z_hi),
                        )
                    )
        return QueryPlan(
            q_uid=q_uid,
            t_query=t_query,
            friends=friends,
            contexts=contexts,
            bands=bands,
            window=window,
        )

    def plan_knn_probe(
        self,
        q_uid: int,
        visible: VisibilityMap,
        qx: float,
        qy: float,
        k: int,
        t_query: float,
    ) -> list[PlannedBand]:
        """The whole plan of one PkNN: the friends that can be among the
        k nearest of ``(qx, qy)``, each fetched where it is.

        Definition 3 ranks only users Definition 2 admits, and only the
        owners of the issuer's visibility map at ``t_query`` can be
        admitted.  The update memo names each one's live key exactly
        (:meth:`live_cells`): a friend with no live key, or one in a
        partition no query at ``t_query`` may read, gets no band — the
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

        The plan is one point band ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]``
        per friend whose lower bound is at most ``τ`` (``≤``, so a tie at
        the k-th distance still ranks by uid), in key order: the
        friend's own row, plus any raw-tie stratum-mate standing on the
        same cell, which the verifier then checks like any other row.
        One round, no on-demand scan: the batch executor sorts these
        bands into one key-ordered prefetch with the range plans', and
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
        # (lower bound, uid, TID, sv_q, ZV) per friend whose grown cell
        # meets a region; the upper bound of each sure friend.
        candidates: list[tuple[float, int, int, int, int]] = []
        sure: list[float] = []
        for friend_uid, (tid, sv_q, zv, ix, iy) in cells.items():
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
            candidates.append((lower, friend_uid, tid, sv_q, zv))
        tau = sorted(sure)[k - 1] if len(sure) >= k else inf
        bands = [
            PlannedBand(friend_uid, BandRequest(tid, sv_q, sv_q, zv, zv))
            for lower, friend_uid, tid, sv_q, zv in candidates
            if lower <= tau
        ]
        bands.sort(key=itemgetter(1, 0))
        return bands

    def plan_seed(self, q_uid: int) -> QueryPlan:
        """Plan a whole-space sweep of every friend's SV band.

        The continuous-query registration scan: one full-Z-range band
        per (partition, friend), over *all* partitions — registration
        has no query time, so every partition may hold a friend's entry.
        """
        friends = self.friends(q_uid)
        max_z = self.tree.grid.max_z
        bands = [
            PlannedBand(friend_uid, self.band(tid, sv, 0, max_z))
            for tid in range(self.tree.partitioner.num_partitions)
            for sv, friend_uid in friends
        ]
        return QueryPlan(
            q_uid=q_uid,
            t_query=0.0,
            friends=friends,
            contexts=[],
            bands=bands,
            window=None,
        )


__all__ = [
    "BandRequest",
    "PartitionContext",
    "PlannedBand",
    "QueryPlan",
    "QueryPlanner",
    "VisibilityMap",
]
