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
friend where it is: a PRQ plans one point band
``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]`` per friend whose cell, at its
partition's label, lies inside the window enlarged for that partition
(:meth:`QueryPlanner.plan_range`), and a PkNN one per visible friend
(:meth:`QueryPlanner.plan_knn_probe`), whose rows the executor
verifies like a range plan's, without a window.

Under Definition 2 a friend is in an answer only if one of its policies
toward the issuer holds at ``t_query`` and the friend stands inside that
policy's ``locr``.  So a range plan bands only the owners of the
issuer's visibility map at ``t_query`` over the window
(:meth:`repro.policy.store.PolicyStore.visibility_map`, which keeps
only regions that meet it; :meth:`QueryPlanner.range_friends`), and a
PkNN reads only a friend in the unwindowed map
(:meth:`QueryPlanner.visible_friends`): everyone else provably fails
Definition 2 wherever they stand.  The map is computed once per query
and handed on to the verifier, which tests the window before the map —
so a region that misses the window, holding no point in it, changes no
verdict.  The registration sweep
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

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from repro.bxtree.queries import enlargement_for_label, estimate_knn_distance
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
    verifier computes it otherwise).
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

    def range_friends(
        self, q_uid: int, window: Rect, t_query: float
    ) -> tuple[VisibilityMap, list[tuple[float, int]]]:
        """The issuer's visibility map at ``t_query`` over ``window``, and
        the friends who can qualify: its owners, ``(sv, uid)`` ascending.

        The map keeps only regions that meet the window
        (:meth:`repro.policy.store.PolicyStore.visibility_map`), so its
        owners are exactly the :meth:`friends` one of whose policies
        holds over a region that meets the window, and the issuer's
        policy row is read once.
        """
        store = self.tree.store
        visible = store.visibility_map(q_uid, t_query, window)
        sequence_value = store.sequence_value
        return visible, sorted([(sequence_value(owner), owner) for owner in visible])

    def contexts(self, t_query: float) -> list[PartitionContext]:
        """Live partition contexts with their Figure 2 enlargements."""
        tree = self.tree
        out = []
        for label in tree.partitioner.live_labels(t_query):
            out.append(
                PartitionContext(
                    tid=tree.partitioner.partition_of_label(label),
                    label=label,
                    dx=enlargement_for_label(label, t_query, tree.max_speed_x),
                    dy=enlargement_for_label(label, t_query, tree.max_speed_y),
                )
            )
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

    def plan_range(self, q_uid: int, window: Rect, t_query: float) -> QueryPlan:
        """Plan a PRQ-shaped scan (also serves the aggregates).

        Figure 2 enlarges the window per live partition because an
        indexed position is known only as of its partition's label:
        at ``t_query`` a user stands within ``max_speed · |t_query −
        label|`` of it.  The update memo names each friend's live key
        (``tree.live_key``), and with it the partition and the grid
        cell the friend stood in at that label, so the enlargement is
        tested per friend instead of scanned per window: one point band
        ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]`` is planned per friend who
        can qualify (see :meth:`range_friends`) whose key lies in a
        live partition and whose cell lies inside
        ``grid.cell_box(context.enlarged(window))`` of that partition's
        context.  Every other friend's rows provably miss the window at
        ``t_query``.  ``Grid.cell_of`` clamps a position outside the
        space into an edge cell, and the box clamps the same way, so a
        friend who left the space still meets its box.  Bands come in
        key order, partition-major and SV-ascending, as
        :meth:`plan_knn_probe`'s do.
        """
        visible, friends = self.range_friends(q_uid, window, t_query)
        contexts = self.contexts(t_query)
        bands: list[PlannedBand] = []
        if friends:
            tree = self.tree
            grid = tree.grid
            boxes = {
                context.tid: grid.cell_box(context.enlarged(window))
                for context in contexts
            }
            live_key = tree.live_key
            decompose = tree.codec.decompose
            decode, bits = grid.curve.decode, grid.bits
            for _, friend_uid in friends:
                key = live_key(friend_uid)
                if key is None:
                    continue
                tid, sv_q, zv = decompose(key)
                box = boxes.get(tid)
                if box is None:
                    continue
                ix, iy = decode(zv, bits)
                if box[0] <= ix <= box[1] and box[2] <= iy <= box[3]:
                    band = BandRequest(tid, sv_q, sv_q, zv, zv)
                    bands.append(PlannedBand(friend_uid, band))
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
        self, q_uid: int, visible: VisibilityMap, t_query: float
    ) -> list[PlannedBand]:
        """The whole plan of one PkNN: where each visible friend is.

        Definition 3 ranks only users Definition 2 admits, and only the
        friends the issuer's visibility map at ``t_query`` holds
        (:meth:`visible_friends`) can be admitted.  The update memo
        names each one's live key exactly (``tree.live_key``), so the
        plan is one point band ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]`` per
        visible friend whose key lies in a live partition, in key
        order: the friend's own row, plus any raw-tie stratum-mate
        standing on the same cell, which the verifier then checks like
        any other row.  A friend with no live key, or one in a
        partition no query at ``t_query`` may read, gets no band — the
        Section 5.4 walk would not reach it either.

        The batch executor sorts these bands into one key-ordered
        prefetch with the range plans'; the served search keeps the k
        nearest of what they return (:func:`repro.core.pknn.pknn`).
        The walk over the Section 5.4 search matrix
        (:func:`repro.core.pknn.pknn_walk`) plans round by round
        instead and never calls this.
        """
        tree = self.tree
        partitioner = tree.partitioner
        live = {
            partitioner.partition_of_label(label)
            for label in partitioner.live_labels(t_query)
        }
        decompose = tree.codec.decompose
        bands: list[PlannedBand] = []
        for _, friend_uid in self.visible_friends(q_uid, visible):
            key = tree.live_key(friend_uid)
            if key is None:
                continue
            tid, sv_q, zv = decompose(key)
            if tid in live:
                band = BandRequest(tid, sv_q, sv_q, zv, zv)
                bands.append(PlannedBand(friend_uid, band))
        bands.sort(key=itemgetter(1))
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
