"""Privacy-aware aggregate queries (Section 8 future work).

Two aggregates frequently requested of location services:

* :func:`pcount` — how many policy-qualifying users are inside a range
  right now?  Runs the PRQ search but returns only the count, never
  materializing user states for the issuer; with ``at_least`` it turns
  *existential* ("is any friend nearby?") and stops scanning the moment
  the threshold is reached — skipping whole SV bands is where the
  PEB-tree layout pays off.
* :func:`pdensity_grid` — the count per cell of a coarse grid over a
  range, the building block of privacy-respecting heat maps: the issuer
  learns how many of their visible friends are in each cell, not where
  exactly each friend stands.

Both are thin adapters over :class:`repro.engine.QueryEngine`: the
scanning, skip rules, and verification are the PRQ pipeline; only the
per-match action (count, bucket) and the early-stop predicate differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.peb_tree import PEBTree
from repro.core.prq import check_range_arguments
from repro.engine import QueryEngine
from repro.spatial.geometry import Rect


@dataclass
class CountResult:
    """Outcome of a privacy-aware count.

    Attributes:
        count: qualifying users found (exact unless terminated early).
        candidates_examined: entries fetched and verified.
        terminated_early: True when an ``at_least`` threshold stopped the
            scan — ``count`` is then a certified lower bound, not a total.
    """

    count: int = 0
    candidates_examined: int = 0
    terminated_early: bool = False


def pcount(
    tree: PEBTree,
    q_uid: int,
    window: Rect,
    t_query: float,
    at_least: int | None = None,
) -> CountResult:
    """Count users satisfying both Definition-2 conditions in ``window``.

    Args:
        tree: the PEB-tree.
        q_uid: the query issuer.
        window: the counted rectangle.
        t_query: evaluation time.
        at_least: optional threshold; scanning stops as soon as this many
            qualifying users are confirmed.  ``at_least=1`` is the
            existential query.

    A non-finite ``t_query`` raises :class:`ValueError` before anything
    is planned or read.
    """
    if at_least is not None and at_least < 1:
        raise ValueError(f"at_least must be positive, got {at_least}")
    check_range_arguments(t_query)
    result = CountResult()

    def tally(obj, x, y) -> bool:
        result.count += 1
        return at_least is not None and result.count >= at_least

    execution = QueryEngine(tree).execute_range(q_uid, window, t_query, tally)
    result.candidates_examined = execution.candidates_examined
    result.terminated_early = execution.stopped_early
    return result


@dataclass
class DensityResult:
    """Per-cell counts of qualifying users over a range.

    Attributes:
        cells: ``(row, column) -> count`` for non-empty cells; ``row``
            indexes y (bottom-up), ``column`` indexes x (left-right).
        total: total qualifying users (sum of the cells).
        candidates_examined: entries fetched and verified.
    """

    rows: int
    columns: int
    cells: dict[tuple[int, int], int] = field(default_factory=dict)
    total: int = 0
    candidates_examined: int = 0

    def count_at(self, row: int, column: int) -> int:
        """Count of one cell (0 when empty or out of range)."""
        return self.cells.get((row, column), 0)


def pdensity_grid(
    tree: PEBTree,
    q_uid: int,
    window: Rect,
    t_query: float,
    rows: int = 4,
    columns: int = 4,
) -> DensityResult:
    """Histogram of qualifying users over an ``rows x columns`` grid.

    The scan is the PRQ search; each qualifying user increments exactly
    one bucket, determined by its *verified* position at query time.
    A non-finite ``t_query`` raises :class:`ValueError` before anything
    is planned or read.
    """
    if rows < 1 or columns < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{columns}")
    if window.width <= 0 or window.height <= 0:
        raise ValueError("density window must have positive area")
    check_range_arguments(t_query)
    result = DensityResult(rows=rows, columns=columns)
    cell_width = window.width / columns
    cell_height = window.height / rows

    def bucket(obj, x, y) -> bool:
        column = min(int((x - window.x_lo) / cell_width), columns - 1)
        row = min(int((y - window.y_lo) / cell_height), rows - 1)
        result.cells[(row, column)] = result.cells.get((row, column), 0) + 1
        result.total += 1
        return False

    execution = QueryEngine(tree).execute_range(q_uid, window, t_query, bucket)
    result.candidates_examined = execution.candidates_examined
    return result
