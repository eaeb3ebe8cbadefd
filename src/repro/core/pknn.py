"""The privacy-aware k-nearest-neighbour query (Section 5.4, Figures 8-10).

Definition 3 ranks only the users Definition 2 admits, and only the
issuer's friends with a policy that holds at the query time can be
admitted.  The served query (:func:`pknn`, and every kNN spec of
:meth:`repro.engine.QueryEngine.execute_batch`) therefore reads, in one
round, only the visible friends that can be among the k nearest, each
where the update memo says it is
(:meth:`repro.engine.plan.QueryPlanner.plan_knn_probe`): the live key's
cell, grown by its partition's enlargement and clipped to the friend's
visible regions, bounds the friend's distance from below, and a friend
whose grown cell lies inside one region is sure to qualify within the
distance of the cell's far corner, so a friend whose lower bound
exceeds the k-th such upper bound is never fetched.  Every returned row
is verified and the k nearest are kept, ranked by ``(distance, uid)``.
On the benchmark population (~37 visible friends a query) that plans
about 12 point bands a query and reads fewer pages than the walk below
at a fraction of its CPU.

The rest of this module is the paper's own algorithm, kept as the
reproduced Section 5.4 search behind :func:`pknn_walk` (what the PkNN
figures and the Figure 9 search-order ablation measure).

The search space is a matrix: one row per friend (users holding a policy
about the issuer that holds at the query time — nobody else can qualify
— ascending by sequence value), one column per
enlargement round.  Column ``j`` corresponds to the square of half-side
``j * rq`` around the query point, where ``rq = Dk / k`` and ``Dk`` is
the estimated k-th-neighbour distance of Tao et al. [33].  Per the paper,
each cell uses the *single* Z-interval spanned by the (enlarged) square
— "we consider only the one interval formed by the minimum and maximum
1-dimensional values of the query range" — and round ``j`` scans only
the part not already scanned in round ``j - 1`` ("the region R'q2 - R'q1
is searched").

Cells are visited in the triangular (anti-diagonal) order of Figure 9,
alternating between enlarging the spatial window and descending the
friend list.  Once k verified candidates fall inside the inscribed
circle of the current column's square, the remaining rows of that column
are swept vertically with the window shrunk to twice the distance of the
current k-th candidate, and the k nearest verified candidates are
returned.

Skip rule: a user has one location, so a friend whose entry has been
seen anywhere is never searched again; the query also stops as soon as
every friend has been located — no spatial window can reveal more.

The adaptive control flow (the matrix traversal) lives here, but all
index access and verification route through :mod:`repro.engine`: the
planner supplies the friend list and partition contexts, the band
scanner executes every cell's Z-interval pieces, and the verifier
centralizes locate + policy evaluation + the once-per-user skip rule.

A friend's row revisits one ``(tid, sv_q)`` stratum per live partition
round after round, and almost every annulus piece is empty.  The search
therefore asks the scanner once per (friend, partition) for that
stratum's *residency* — the Z-intervals earlier scans (this search's,
or another's on a shared scanner) proved, with their rows — and answers
a piece a proof covers from it; only an unproven piece becomes a band
request.

The walk is the paper's, one cell at a time (:meth:`_MatrixSearch.run`):
it visits the cells in traversal order, skips a located friend's cell,
runs the k-th-distance stop test after every cell, and begins at the
first round whose window meets the space
(:meth:`_MatrixSearch._first_round`), so a query point far outside the
space costs a bisection, not a diagonal per empty round.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.peb_tree import PEBTree
from repro.engine import BandScanner, CandidateVerifier, QueryEngine, QueryPlanner
from repro.engine.executor import check_complete
from repro.engine.plan import PlannedBand, QueryPlan, VisibilityMap
from repro.motion.objects import MovingObject
from repro.spatial.decompose import ZInterval, subtract_interval
from repro.spatial.geometry import Rect, euclidean


@dataclass
class PKNNResult:
    """Result of one privacy-aware kNN query.

    Attributes:
        neighbors: up to k ``(distance, user_state)`` pairs, nearest first.
            Fewer than k only when fewer policy-qualifying users exist.
        candidates_examined: entries fetched and verified.
        rounds: number of enlargement rounds (columns) touched.
    """

    neighbors: list[tuple[float, MovingObject]] = field(default_factory=list)
    candidates_examined: int = 0
    rounds: int = 0

    @property
    def uids(self) -> list[int]:
        return [obj.uid for _, obj in self.neighbors]


def _distance_of(candidate: tuple[float, MovingObject]) -> float:
    return candidate[0]


def check_knn_arguments(k: int, qx: float, qy: float, t_query: float) -> None:
    """Refuse a kNN query no search can answer, naming the field.

    A finite query point outside the space is not refused: Definition 3
    has no "inside the grid" clause, and clients ask from predicted
    positions, which leave the space.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    for name, value in (("qx", qx), ("qy", qy), ("t_query", t_query)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


#: One live partition's share of a cell: ``(context index, tid, Z pieces
#: in ascending order)``.
_Partition = tuple[int, int, list[ZInterval]]


class _MatrixSearch:
    """One Section 5.4 walk; holds the per-query scan state.

    ``planner`` and ``scanner`` default to fresh per-query instances
    (the scanner is the one the tree hands out,
    :meth:`repro.core.peb_tree.PEBTree.new_scanner`), as
    :func:`pknn_walk` runs it; searches handed one shared scanner
    deduplicate their cell scans across each other.
    """

    def __init__(
        self,
        tree: PEBTree,
        q_uid: int,
        qx: float,
        qy: float,
        k: int,
        t_query: float,
        planner: QueryPlanner | None = None,
        scanner: BandScanner | None = None,
    ):
        check_knn_arguments(k, qx, qy, t_query)
        self.tree = tree
        self.scanner = scanner if scanner is not None else tree.new_scanner()
        self.planner = planner if planner is not None else QueryPlanner(tree)
        self.q_uid = q_uid
        self.qx = qx
        self.qy = qy
        self.k = k
        self.t_query = t_query
        # One row per friend with a policy that holds at t_query: nobody
        # else can qualify anywhere (see QueryPlanner.visible_friends).
        visible = tree.store.visibility_map(q_uid, t_query)
        self.friends = self.planner.visible_friends(q_uid, visible)
        self.verifier = CandidateVerifier(tree.store, q_uid, t_query, visible)
        # Qualifying candidates as (distance, state), nearest first; a
        # user is verified once, so no entry is ever replaced.
        self.candidates: list[tuple[float, MovingObject]] = []
        self.result = PKNNResult()
        self.contexts = self.planner.contexts(t_query)
        # Radius step rq = Dk / k.  (k <= 0 short-circuits in run()
        # before the step is used.)
        self.rq = self.planner.knn_step(k) if k > 0 else tree.grid.cell_size
        # The walk ends once a round's square holds the whole space:
        # the space's diagonal, plus how far outside it the query point
        # lies (0 inside, so an in-space search keeps its bound).
        grid = tree.grid
        reach = grid.space_side * math.sqrt(2.0) + grid.bounds.min_distance(qx, qy)
        self.max_rounds = math.ceil(reach / self.rq) + 1
        # Per round, the square's Z window under each partition's
        # enlargement.  Rounds never exceed max_rounds (the walk's
        # bound) and contexts is the fixed live-partition list, so the
        # cache holds at most |contexts| * (max_rounds + 1) spans for
        # the lifetime of this one query; it dies with the search.
        # ``_span_cache_capacity`` states the bound, and the tests
        # assert the cache never exceeds it.
        self._span_cache: dict[int, list[ZInterval | None]] = {}
        self._span_cache_capacity = max(1, len(self.contexts)) * (self.max_rounds + 1)
        # A round's annulus pieces per live partition are the same for
        # every friend row; at most max_rounds entries.
        self._pieces: dict[int, list[_Partition]] = {}
        # Per friend row: its strata's residencies, one per context
        # (None entries where the scanner keeps none), asked on first use.
        self._strata: list[list | None] = [None] * len(self.friends)

    # ------------------------------------------------------------------
    # Scan plumbing
    # ------------------------------------------------------------------

    def _window_spans(self, round_index: int) -> list[ZInterval | None]:
        """Z window of the round's square under each partition's enlargement.

        The float operations of ``Rect.from_center(qx, qy, round_index
        * rq)`` grown by ``PartitionContext.enlarged``, on bare bounds:
        a round allocates no rectangle.
        """
        half = round_index * self.rq
        x_lo, x_hi = self.qx - half, self.qx + half
        y_lo, y_hi = self.qy - half, self.qy + half
        z_span_of = self.tree.grid.z_span_of
        return [
            z_span_of(x_lo - c.dx, x_hi + c.dx, y_lo - c.dy, y_hi + c.dy)
            for c in self.contexts
        ]

    def _spans(self, round_index: int) -> list[ZInterval | None]:
        """:meth:`_window_spans`, computed once per round."""
        spans = self._span_cache.get(round_index)
        if spans is None:
            spans = self._span_cache[round_index] = self._window_spans(round_index)
        return spans

    def _first_round(self) -> int:
        """The first round whose window meets the space in a live partition.

        Every earlier cell has no piece to scan and no candidate to stop
        on, so the walk starts here: a query point far outside the space
        costs a bisection, not a diagonal per round between it and the
        space.
        Windows only grow, so the predicate is monotone.  ``max_rounds``
        when no window meets the space.
        """
        if any(span is not None for span in self._spans(1)):
            return 1
        lo, hi = 2, self.max_rounds
        while lo < hi:
            mid = (lo + hi) // 2
            if any(span is not None for span in self._window_spans(mid)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _round_pieces(self, round_index: int) -> list[_Partition]:
        """Per live partition with something to scan: the round's window
        minus the previous round's ("the region R'q2 - R'q1 is
        searched")."""
        partitions = self._pieces.get(round_index)
        if partitions is None:
            partitions = self._pieces[round_index] = []
            spans = self._spans(round_index)
            previous = (
                self._spans(round_index - 1)
                if round_index > 1
                else [None] * len(spans)
            )
            for context_index, (context, span, before) in enumerate(
                zip(self.contexts, spans, previous)
            ):
                if span is not None:
                    pieces = (
                        [span] if before is None else subtract_interval(span, before)
                    )
                    if pieces:
                        partitions.append((context_index, context.tid, pieces))
        return partitions

    def _admit_qualifying(self, obj: MovingObject, x: float, y: float) -> bool:
        """admit_rows callback: rank one qualifying candidate, never stop."""
        distance = euclidean(self.qx, self.qy, x, y)
        insort(self.candidates, (distance, obj), key=_distance_of)
        return False

    def _scan_row(self, row: int, partitions: list[_Partition]) -> None:
        """Scan one friend's stratum in each given partition's Z pieces.

        A piece the stratum's residency has proven is answered from it
        (an empty one costs a bisection); only an unproven piece becomes
        a band request.
        """
        scanner = self.scanner
        verifier = self.verifier
        strata = self._strata[row]
        if strata is None:
            sv_q = self.tree.codec.quantize_sv(self.friends[row][0])
            strata = self._strata[row] = [
                scanner.residency(context.tid, sv_q) for context in self.contexts
            ]
        for context_index, tid, pieces in partitions:
            resident = strata[context_index]
            for z_lo, z_hi in pieces:
                rows = resident.serve(z_lo, z_hi) if resident is not None else None
                if rows is None:
                    rows = scanner.scan(
                        self.planner.band(tid, self.friends[row][0], z_lo, z_hi)
                    )
                if rows.records:
                    verifier.admit_rows(rows, on_qualify=self._admit_qualifying)

    def scan_cell(self, row: int, round_index: int) -> None:
        """Scan matrix cell (friend ``row``, column ``round_index``)."""
        self._scan_row(row, self._round_pieces(round_index))

    def vertical_scan(self, start_row: int, kth_distance: float) -> None:
        """Sweep the remaining rows with the window shrunk to 2 * d_k."""
        square = Rect.from_center(self.qx, self.qy, kth_distance)
        # The Z-span of the shrunk square is row-invariant; compute it
        # once per partition context instead of once per remaining row.
        spans = []
        for context_index, context in enumerate(self.contexts):
            span = self.tree.grid.z_span(context.enlarged(square))
            if span is not None:
                spans.append((context_index, context.tid, [span]))
        located = self.verifier.located
        for row in range(start_row, len(self.friends)):
            if self.friends[row][1] not in located:
                self._scan_row(row, spans)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _cells(self, order: str):
        """The matrix cells ``(row, round)`` in ``order``, from the
        first round whose window meets the space."""
        rows, first, last = len(self.friends), self._first_round(), self.max_rounds
        if order == "triangular":
            # Anti-diagonal ``head``: row ``r`` at round ``head - r``.
            for head in range(first, rows + last):
                for row in range(max(0, head - last), min(rows, head - first + 1)):
                    yield row, head - row
        elif order == "column":
            for round_index in range(first, last + 1):
                for row in range(rows):
                    yield row, round_index
        else:
            raise ValueError(f"unknown search order {order!r}")

    def run(self, order: str = "triangular") -> PKNNResult:
        """Walk the matrix in ``order`` and return the k nearest.

        ``triangular`` is the paper's Figure 9 anti-diagonal sweep;
        ``column`` is the naive alternative (finish every friend at one
        radius before enlarging) measured by the order ablation.
        """
        friends = self.friends
        if not friends or self.k <= 0:
            return self.result
        friend_uids = {uid for _, uid in friends}
        located = self.verifier.located
        located_checked = 0  # len(located) when the friends were last checked
        candidates, k, rq = self.candidates, self.k, self.rq
        rounds = 0
        for row, round_index in self._cells(order):
            if friends[row][1] not in located:
                self.scan_cell(row, round_index)
            rounds = max(rounds, round_index)
            # k verified candidates inside the round's inscribed circle:
            # the k-th nearest of all is then one of them.
            if len(candidates) >= k:
                kth_distance = candidates[k - 1][0]
                if kth_distance <= round_index * rq:
                    self.vertical_scan(row + 1, kth_distance)
                    break
            if len(located) != located_checked:
                located_checked = len(located)
                if friend_uids <= located:
                    break  # every friend located; no window can add more
        self.result.rounds = rounds
        self.result.neighbors = candidates[:k]
        self.result.candidates_examined = self.verifier.candidates_examined
        return self.result


def plan_pknn(
    planner: QueryPlanner, q_uid: int, qx: float, qy: float, k: int, t_query: float
) -> QueryPlan:
    """The served plan of one PkNN: the issuer's visibility map at
    ``t_query`` and one point band per friend that can be among the k
    nearest of ``(qx, qy)`` (:meth:`QueryPlanner.plan_knn_probe`);
    nothing at all for ``k = 0``."""
    if k <= 0:
        visible: VisibilityMap = {}
        bands: list[PlannedBand] = []
    else:
        visible = planner.tree.store.visibility_map(q_uid, t_query)
        bands = planner.plan_knn_probe(q_uid, visible, qx, qy, k, t_query)
    return QueryPlan(
        q_uid=q_uid,
        t_query=t_query,
        friends=[],
        contexts=[],
        bands=bands,
        visible=visible,
    )


def pknn_from_plan(
    engine, plan: QueryPlan, qx: float, qy: float, k: int, scanner=None
) -> PKNNResult:
    """Materialize a :class:`PKNNResult` from one planned PkNN fetch.

    Every row the plan's bands return is verified (the engine's replay
    of a planned scan, :meth:`repro.engine.QueryEngine.run_range_plan`,
    without a window) and the k nearest qualifying users are kept,
    ranked by ``(distance, uid)`` as the oracle ranks them.
    :func:`pknn` runs it with a fresh scanner, and the batch executor
    replays it per kNN spec against the batch's shared scanner.
    """
    ranked: list[tuple[float, int, MovingObject]] = []

    def rank(obj: MovingObject, x: float, y: float) -> bool:
        ranked.append((euclidean(qx, qy, x, y), obj.uid, obj))
        return False

    execution = engine.run_range_plan(plan, rank, scanner)
    ranked.sort(key=itemgetter(0, 1))  # (distance, uid): never the object
    return PKNNResult(
        neighbors=[(distance, obj) for distance, _, obj in ranked[:k]],
        candidates_examined=execution.candidates_examined,
    )


def pknn(
    tree: PEBTree,
    q_uid: int,
    qx: float,
    qy: float,
    k: int,
    t_query: float,
) -> PKNNResult:
    """Run a PkNN ``(qID, qLoc=(qx, qy), k, tq)`` on the PEB-tree.

    Served as a fetch, at its live key, of the row of every visible
    friend that can be among the k nearest (:func:`plan_pknn`), on a
    fresh scanner.  ``k = 0`` is the empty
    answer; a negative ``k`` or a non-finite ``qx``/``qy``/``t_query``
    raises :class:`ValueError` before anything is planned or read.  A
    finite query point outside the space is answered like any other;
    one a quarantined shard cut short raises (:func:`check_complete`).
    """
    check_knn_arguments(k, qx, qy, t_query)
    engine = QueryEngine(tree)
    plan = plan_pknn(engine.planner, q_uid, qx, qy, k, t_query)
    return pknn_from_plan(engine, plan, qx, qy, k)


def pknn_walk(
    tree: PEBTree,
    q_uid: int,
    qx: float,
    qy: float,
    k: int,
    t_query: float,
    order: str = "triangular",
) -> PKNNResult:
    """The Section 5.4 matrix walk for one PkNN, on a fresh scanner.

    The reproduced algorithm, not the served one: the PkNN figures
    (:meth:`repro.bench.harness.ExperimentHarness.run_pknn_batch`) and
    the Figure 9 search-order ablation measure it.  ``order`` selects
    the traversal: the paper's ``"triangular"`` (Figure 9) or the naive
    ``"column"`` sweep.  Arguments are checked as :func:`pknn` checks
    them; the answer equals :func:`pknn`'s up to the order of users at
    one distance.
    """
    dropped = tree.bands_dropped
    result = _MatrixSearch(tree, q_uid, qx, qy, k, t_query).run(order)
    check_complete(tree, dropped)
    return result
