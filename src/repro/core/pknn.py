"""The privacy-aware k-nearest-neighbour query (Section 5.4, Figures 8-10).

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
stratum's *residency* — the Z-intervals earlier scans (this query's, or
the batch's prefetch) proved, with their rows — and answers a piece a
proof covers from it; only an unproven piece becomes a band request.

Nor does it poll what is already settled.  After a cell has served or
scanned a stratum, the search keeps that stratum's *quiet interval*
(:meth:`repro.engine.scanner.StratumResidency.quiet_around`): the widest
proven interval around the query point that holds nobody it has not
located.  Proofs and the located set only grow, so the interval stays
true for the rest of the search, and a later cell whose pieces all fall
inside it — in a sparse stratum every cell until the window reaches the
friend — could only be handed rows it would ignore.  The walk skips
such a cell before entering :meth:`_MatrixSearch.scan_cell`; the same
cells admit the same rows in the same order as a walk that polled every
piece, and the skipped pieces, still requests a proof answered, reach
the scanner's counters as one sum when the search finishes.  The
within-search half of the *known region* of incremental kNN: remember
where the answer is complete instead of re-deriving it per step.

Since a search acts in a few dozen of its thousands of cells, the walk
is built so that the rest cost next to nothing: an idle cell is a few
integer comparisons of its row's quiet intervals against flat per-round
hulls, a located row leaves the walk, a round's window is computed on
bare bounds, and the walk begins at the first round whose window meets
the space (:meth:`_MatrixSearch._walk`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from repro.core.peb_tree import PEBTree
from repro.engine import BandScanner, CandidateVerifier, QueryPlanner
from repro.engine.executor import check_complete
from repro.engine.plan import BandRequest
from repro.engine.scanner import NOT_QUIET
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
#: in ascending order, hull lo, hull hi)``.
_Partition = tuple[int, int, list[ZInterval], int, int]


def _partition(context_index: int, tid: int, pieces: list[ZInterval]) -> _Partition:
    return context_index, tid, pieces, pieces[0][0], pieces[-1][1]


class _MatrixSearch:
    """One PkNN execution; holds the per-query scan state.

    ``planner`` and ``scanner`` default to fresh per-query instances
    (the scanner is the one the tree hands out,
    :meth:`repro.core.peb_tree.PEBTree.new_scanner`); the batch
    executor passes its shared planner and scanner so cell scans are
    deduplicated across the whole batch.
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
        # Radius step rq = Dk / k.  (k <= 0 short-circuits in run() and
        # probe() before the step is used.)
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
        # Per context, one column per bound: every friend row's quiet
        # interval of that stratum, as of the last cell that served or
        # scanned it.  It is taken around the query point's Z-value,
        # which every round's window holds.
        self._anchor = tree.grid.z_value(qx, qy)
        quiet_lo, quiet_hi = NOT_QUIET
        self._quiet = [
            ([quiet_lo] * len(self.friends), [quiet_hi] * len(self.friends))
            for _ in self.contexts
        ]
        # ... and the pieces skipped inside it, which the scanner is
        # told of when the search finishes.
        self._skipped = [[0] * len(self.contexts) for _ in self.friends]

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

        Every earlier cell has no piece to scan, tally or stop on, so
        the walk starts here: a query point far outside the space costs
        a bisection, not a diagonal per round between it and the space.
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
        searched"), with the pieces' hull."""
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
                        partitions.append(
                            _partition(context_index, context.tid, pieces)
                        )
        return partitions

    def probe(self) -> list[BandRequest]:
        """The bands round one will request: every row's stratum over
        the round's window, per live partition — the batch executor's
        prefetch hint (:meth:`QueryPlanner.plan_knn_probe`)."""
        if self.k <= 0:
            return []
        spans = [
            (context.tid, span)
            for context, span in zip(self.contexts, self._spans(1))
            if span is not None
        ]
        return self.planner.plan_knn_probe(self.friends, spans)

    def _admit_qualifying(self, obj: MovingObject, x: float, y: float) -> bool:
        """admit_rows callback: rank one qualifying candidate, never stop."""
        distance = euclidean(self.qx, self.qy, x, y)
        insort(self.candidates, (distance, obj), key=_distance_of)
        return False

    def _all_quiet(self, row: int, partitions: list[_Partition]) -> bool:
        """True when every piece lies inside its stratum's quiet interval.

        Such a cell can do no work — each piece would be served from a
        proof and hold only users already located — so its pieces are
        tallied as the served requests they are and nothing is asked.
        Only the hull of the round's own pieces is compared: nothing
        here relies on consecutive rounds' windows nesting, which the
        coarsened spans of a curve like Hilbert's do not promise.
        """
        quiet = self._quiet
        for context_index, _, _, z_lo, z_hi in partitions:
            q_lo, q_hi = quiet[context_index]
            if z_lo < q_lo[row] or q_hi[row] < z_hi:
                return False
        skipped = self._skipped[row]
        for context_index, _, pieces, _, _ in partitions:
            skipped[context_index] += len(pieces)
        return True

    def _scan_row(self, row: int, partitions: list[_Partition]) -> None:
        """Scan one friend's stratum in each given partition's Z pieces.

        A partition whose pieces all lie inside the stratum's quiet
        interval is skipped; elsewhere a piece the stratum's residency
        has proven is answered from it (an empty one costs a
        bisection), only an unproven piece becomes a band request, and
        the quiet interval is taken afresh.  A scanner's verify
        timeline, if any, is told before a stratum is read and what each
        admitted row set cost (a timed sharded batch times a search so).
        """
        scanner = self.scanner
        timeline = scanner.timeline
        verifier = self.verifier
        strata = self._strata[row]
        if strata is None:
            sv_q = self.tree.codec.quantize_sv(self.friends[row][0])
            strata = self._strata[row] = [
                scanner.residency(context.tid, sv_q) for context in self.contexts
            ]
        quiet = self._quiet
        for context_index, tid, pieces, hull_lo, hull_hi in partitions:
            q_lo, q_hi = quiet[context_index]
            if q_lo[row] <= hull_lo and hull_hi <= q_hi[row]:
                self._skipped[row][context_index] += len(pieces)
                continue
            resident = strata[context_index]
            if timeline is not None:
                timeline.wait_landed(resident)
            for z_lo, z_hi in pieces:
                rows = resident.serve(z_lo, z_hi) if resident is not None else None
                if rows is None:
                    rows = scanner.scan(
                        self.planner.band(tid, self.friends[row][0], z_lo, z_hi)
                    )
                if rows.records:
                    seen = verifier.candidates_examined
                    verifier.admit_rows(rows, on_qualify=self._admit_qualifying)
                    if timeline is not None:
                        timeline.charge_verified(verifier.candidates_examined - seen)
            if resident is not None:
                q_lo[row], q_hi[row] = resident.quiet_around(
                    self._anchor, verifier.located
                )

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
                spans.append(_partition(context_index, context.tid, [span]))
        located = self.verifier.located
        for row in range(start_row, len(self.friends)):
            if self.friends[row][1] not in located and not self._all_quiet(
                row, spans
            ):
                self._scan_row(row, spans)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def run(self, order: str = "triangular") -> PKNNResult:
        """Walk the matrix in ``order`` and return the k nearest.

        ``triangular`` is the paper's Figure 9 anti-diagonal sweep;
        ``column`` is the naive alternative (finish every friend at one
        radius before enlarging) measured by the order ablation.
        """
        rows = len(self.friends)
        if rows == 0 or self.k <= 0:
            return self.result
        if order == "triangular":
            step = 1  # along an anti-diagonal a row's round falls by one
        elif order == "column":
            step = 0
        else:
            raise ValueError(f"unknown search order {order!r}")
        self.result.rounds = self._walk(step)
        return self._finish()

    def _walk(self, step: int) -> int:
        """Visit the matrix one *sweep* at a time; the rounds touched.

        A sweep is an anti-diagonal or a column, named by its ``head``,
        the round of row 0: row ``r``'s cell in it is round ``head -
        step * r``, if that lies within ``[first, max_rounds]``.  The
        walk starts with the sweep that reaches the first round whose
        window meets the space (:meth:`_first_round`).

        Only a cell that can act costs more than integer comparisons.
        A row whose friend is located has left the sweep.  For the
        others the walk keeps, per live partition and round, the hull
        of the round's pieces, and a cell whose every hull lies inside
        its row's quiet interval is idle: it would only be handed rows
        it ignores.  An idle cell's pieces are still requests a proof
        answered; they are tallied when the row's run of idle rounds
        ends, from per-partition sums of pieces per round.  Every other
        cell enters :meth:`scan_cell`.  A cell is compared with its own
        round's hulls only, so nothing relies on consecutive windows
        nesting, which a coarsened Hilbert span does not promise.
        Candidates change only in a cell that acted, and within a sweep
        no later cell has a larger round, so the k-th-distance stop
        test runs after the first cell of each sweep and after each
        cell that acted — everywhere else it would repeat the answer it
        just gave.
        """
        uids = [uid for _, uid in self.friends]
        rows = len(uids)
        max_rounds, rq, k = self.max_rounds, self.rq, self.k
        candidates = self.candidates
        located = self.verifier.located
        skipped = self._skipped
        first = self._first_round()
        # Per live partition, per round from ``first`` (offset j): the
        # hull of the round's pieces, and the pieces of the rounds before.
        hulls = [([], []) for _ in self.contexts]
        pieces_before = [[0] for _ in self.contexts]
        columns = [
            (q_lo, q_hi, h_lo, h_hi)
            for (q_lo, q_hi), (h_lo, h_hi) in zip(self._quiet, hulls)
        ]
        max_z = self.tree.grid.max_z
        idle_from = [0] * rows  # per row: its first round not yet tallied
        live = list(range(rows))
        n_located = len(located)

        def add_round(round_index: int) -> None:
            # A partition without pieces gets a hull every quiet
            # interval holds, NOT_QUIET included.
            hull = {
                ci: (lo, hi, len(pieces))
                for ci, _, pieces, lo, hi in self._round_pieces(round_index)
            }
            for ci, ((h_lo, h_hi), before) in enumerate(zip(hulls, pieces_before)):
                lo, hi, n = hull.get(ci, (max_z + 1, -1, 0))
                h_lo.append(lo)
                h_hi.append(hi)
                before.append(before[-1] + n)

        def tally_idle(row: int, j_end: int) -> None:
            # The row's idle rounds, from idle_from[row] through j_end.
            j_start = idle_from[row]
            if j_end >= j_start:
                row_skipped = skipped[row]
                for ci, before in enumerate(pieces_before):
                    row_skipped[ci] += before[j_end + 1] - before[j_start]

        def close(rows_left: list[int], base: int, after: int) -> None:
            # Tally each row through the last round it visited, the walk
            # standing at row ``after`` of the sweep whose row 0 is at
            # offset ``base``: this sweep up to it, the previous one past it.
            j_max = max_rounds - first
            for row in rows_left:
                tally_idle(row, min(base - step * row - (row > after), j_max))

        top = first - 1  # the last round added
        last = rows + max_rounds - 1 if step else max_rounds
        for head in range(first, last + 1):
            head_round = min(head, max_rounds)  # the sweep's first cell's round
            if step:
                row_lo, row_hi = max(0, head - max_rounds), min(rows - 1, head - first)
            else:
                row_lo, row_hi = 0, rows - 1
            base = head - first
            i = bisect_left(live, row_lo)
            if i < len(live):
                # Rounds are added as far as the sweep's first live row
                # reaches, the highest round any of its cells can ask.
                while top < head - step * live[i]:
                    top += 1
                    add_round(top)
            # k verified candidates inside the round's inscribed circle:
            # the k-th nearest of all is then one of them.
            stopping = len(candidates) >= k and candidates[k - 1][0] <= head_round * rq
            if stopping:  # after the sweep's first cell
                end = i + 1 if i < len(live) and live[i] == row_lo else i
            else:
                end = bisect_right(live, row_hi, i)
            for row in live[i:end]:
                j = base - step * row
                for q_lo, q_hi, h_lo, h_hi in columns:
                    if q_lo[row] > h_lo[j] or h_hi[j] > q_hi[row]:
                        break
                else:
                    continue  # idle
                tally_idle(row, j - 1)
                round_index = first + j
                self.scan_cell(row, round_index)
                idle_from[row] = j + 1
                if len(candidates) >= k:
                    kth_distance = candidates[k - 1][0]
                    if kth_distance <= round_index * rq:
                        self.vertical_scan(row + 1, kth_distance)
                        close(live, base, row)
                        return head_round
                # Only a cell that acted can have located somebody.
                if len(located) != n_located:
                    n_located = len(located)
                    found = [r for r in live if uids[r] in located]
                    close(found, base, row)
                    for r in found:
                        live.remove(r)
                        # What is left of this sweep passes it as idle.
                        for q_lo, q_hi in self._quiet:
                            q_lo[r], q_hi[r] = -1, max_z + 1
                    if not live:
                        return head_round  # no window can add more
            if stopping:
                self.vertical_scan(row_lo + 1, candidates[k - 1][0])
                close(live, base, row_lo)
                return head_round
        close(live, last - first, rows - 1)
        return max_rounds

    def _finish(self) -> PKNNResult:
        for strata, skipped in zip(self._strata, self._skipped):
            for resident, pieces in zip(strata or (), skipped):
                if pieces:
                    resident.count_quiet(pieces)
        self.result.neighbors = self.candidates[: self.k]
        self.result.candidates_examined = self.verifier.candidates_examined
        return self.result


def pknn(
    tree: PEBTree,
    q_uid: int,
    qx: float,
    qy: float,
    k: int,
    t_query: float,
    order: str = "triangular",
) -> PKNNResult:
    """Run a PkNN ``(qID, qLoc=(qx, qy), k, tq)`` on the PEB-tree.

    ``order`` selects the search-matrix traversal: the paper's
    ``"triangular"`` (Figure 9) or the naive ``"column"`` sweep kept for
    the ablation benchmark.  ``k = 0`` is the empty answer; a negative
    ``k`` or a non-finite ``qx``/``qy``/``t_query`` raises
    :class:`ValueError` before anything is planned or read.  A finite
    query point outside the space is answered like any other; one a
    quarantined shard cut short raises (:func:`check_complete`).
    """
    dropped = tree.bands_dropped
    result = _MatrixSearch(tree, q_uid, qx, qy, k, t_query).run(order)
    check_complete(tree, dropped)
    return result
