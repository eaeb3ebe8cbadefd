"""Query planning: band requests and query plans (engine layer 1).

The planner turns a query specification — issuer, window, query time —
into a :class:`QueryPlan`: the ordered list of *band requests* the
Section 5.3 pipeline scans.  A band request is one key-contiguous
stretch of the PEB-tree,

    ``[TID ⊕ SV_lo ⊕ ZV_lo ; TID ⊕ SV_hi ⊕ ZV_hi]``,

with ``SV_lo == SV_hi`` for the per-friend bands of the default
algorithm and ``SV_lo < SV_hi`` for the coarse whole-friend-list span of
the Figure 7 ablation.

A plan captures everything *static* about a query: the live partition
contexts (per-partition window enlargements of Figure 2), the friends
who can qualify sorted ascending by sequence value, and one band per
(partition, friend).

Under Definition 2 a friend is in an answer only if one of its policies
toward the issuer holds at ``t_query`` and the friend stands inside that
policy's ``locr``.  So a range plan bands only the owners of the
issuer's visibility map at ``t_query`` over the window
(:meth:`repro.policy.store.PolicyStore.visibility_map`, which keeps
only regions that meet it; :meth:`QueryPlanner.range_friends`), and the
PkNN search keeps a row only for a friend in the unwindowed map
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
    (partition, friend), so construction cost is on the per-query path.

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

    Bands are ordered partition-major, then friend-ascending-by-SV —
    the exact iteration order of the paper's Figure 7 procedure, which
    the executor replays with the skip rule applied.  ``visible`` is the
    issuer's visibility map at ``t_query`` over ``window`` when the
    planner computed one (the verifier computes it otherwise).
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
    # Shared building blocks (also used by the adaptive PkNN search)
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
        count stays finite when ``k / N`` is tiny.  The matrix search
        takes its round width from here, and the batch prefetch probe
        (:meth:`plan_knn_probe`) its first round from the search.
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

        Per live partition the window is enlarged and reduced to its
        single covering Z-span (see :mod:`repro.core.prq` for why one
        span per (partition, SV) matches the per-interval I/O); one band
        is planned per (partition, friend who can qualify — see
        :meth:`range_friends`).
        """
        visible, friends = self.range_friends(q_uid, window, t_query)
        contexts = self.contexts(t_query)
        bands: list[PlannedBand] = []
        if friends:
            quantize_sv = self.tree.codec.quantize_sv
            quantized = [(quantize_sv(sv), uid) for sv, uid in friends]
            # One band per (partition, friend), ~58 a query: built as
            # plain tuples of the two NamedTuple types, without their
            # Python-level __new__ (what NamedTuple._make does too).
            new = tuple.__new__
            for context in contexts:
                span = self.tree.grid.z_span(context.enlarged(window))
                if span is None:
                    continue
                z_lo, z_hi = span
                tid = context.tid
                bands += [
                    new(
                        PlannedBand,
                        (friend_uid, new(BandRequest, (tid, sv_q, sv_q, z_lo, z_hi))),
                    )
                    for sv_q, friend_uid in quantized
                ]
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
        friends: list[tuple[float, int]],
        spans: list[tuple[int, tuple[int, int]]],
    ) -> list[BandRequest]:
        """The band requests of a PkNN search's *first* round.

        The adaptive matrix search (:mod:`repro.core.pknn`) cannot be
        planned statically — later rounds depend on scan results — but
        its first column is: the square of half-side ``rq`` around the
        query point, enlarged per live partition, one band per
        (partition, friend).  The search hands in its own rows and the
        ``(tid, (z_lo, z_hi))`` round-one span of each live partition
        (:meth:`repro.core.pknn._MatrixSearch.probe`), so the probe is
        exactly what round one requests.  The batch executor adds these
        to the cross-query prefetch set so concurrent kNN queries share
        physical scans with the whole batch instead of each scanning
        its first round on demand.  A probe is a prefetch superset hint:
        bands the search never requests cost prefetch I/O but can
        never change results.

        The bands come friend-major — one friend's partitions, then the
        next friend's — so a prefetch lands each friend's strata
        together, in the order the walk's rows read them.  That is the
        order of a hint, not the paper's iteration order: range plans
        stay partition-major.
        """
        return [
            self.band(tid, sv, z_lo, z_hi)
            for sv, _ in friends
            for tid, (z_lo, z_hi) in spans
        ]

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
