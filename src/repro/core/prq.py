"""The privacy-aware range query (Definition 2, Section 5.3, Figure 7).

Four steps, all implemented by :mod:`repro.engine`:

1. Per live time partition, enlarge the query window (as in the Bx-tree)
   — the planner.
2. Fetch the query issuer's friend list — the users holding a policy
   about the issuer — sorted ascending by sequence value, keeping only
   the friends with a policy that holds at the query time over a region
   meeting the window (nobody else can qualify).
3. Combine: the paper searches, for each friend SV and each partition,
   the PEB-key range ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]`` of the
   enlarged window.  The update memo names each friend's live key, and
   with it the one partition and cell that range could find the friend
   in, so the planner applies the enlargement to the friend instead: a
   friend whose cell lies inside its partition's enlarged window gets
   the point range ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕ ZV]`` at that key, and
   every other friend provably stands outside the window at the query
   time — the band scanner.
4. Verify every candidate's actual location at query time and its policy
   — the verifier.

Skip rules of Section 5.3 ("once a candidate user is found, the remaining
search intervals formed by this user's SV value are skipped ... a user
has only one location"): every user whose entry has been seen is tracked,
and a friend already located is never searched again — in later
Z-intervals *or* later partitions.  The executor applies the rule once
for every query type.

The Figure 7 procedure itself — coarse Z-intervals of the enlarged
window over the whole ``[SV_min ; SV_max]`` friend range — is the span
scan ablation (:func:`repro.core.ablation.prq_span_scan`).

This module is a thin adapter: it owns the public :func:`prq` signature
and the :class:`PRQResult` type, and delegates execution to
:class:`repro.engine.QueryEngine`.  Batches of concurrent PRQs should go
through :meth:`repro.engine.QueryEngine.execute_batch`, which shares
physical band scans across issuers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.peb_tree import PEBTree
from repro.engine import QueryEngine
from repro.motion.objects import MovingObject
from repro.spatial.geometry import Rect


@dataclass
class PRQResult:
    """Result of one privacy-aware range query.

    Attributes:
        users: qualifying users' states (Definition 2 conditions met).
        candidates_examined: entries fetched and verified — the size of
            the intermediate result the PEB-tree is designed to keep small.
    """

    users: list[MovingObject] = field(default_factory=list)
    candidates_examined: int = 0

    @property
    def uids(self) -> set[int]:
        return {obj.uid for obj in self.users}


def check_range_arguments(t_query: float) -> None:
    """Refuse a range-shaped query no plan can answer, naming the field.

    A NaN or infinite ``t_query`` folds to no instant of the policies'
    time domain, so no policy would hold and the planner would drop
    every friend: a silent empty answer instead of an error.  The
    window needs no check here — :class:`Rect` refuses NaN bounds, and
    an infinite bound is a window over the whole space.
    """
    if not math.isfinite(t_query):
        raise ValueError(f"t_query must be finite, got {t_query}")


def prq_from_plan(engine, plan, scanner=None) -> PRQResult:
    """Materialize a :class:`PRQResult` from one planned range scan.

    The single adapter between the engine and the PRQ result type:
    :func:`prq` runs it with a fresh per-query scanner, and the batch
    executor replays it per spec against the batch's shared scanner —
    so batched results cannot drift from the one-at-a-time path.
    """
    result = PRQResult()

    def collect(obj: MovingObject, x: float, y: float) -> bool:
        result.users.append(obj)
        return False

    execution = engine.run_range_plan(plan, collect, scanner)
    result.candidates_examined = execution.candidates_examined
    return result


def prq(tree: PEBTree, q_uid: int, window: Rect, t_query: float) -> PRQResult:
    """Run a PRQ ``(qID=q_uid, R=window, tq=t_query)`` on the PEB-tree.

    A non-finite ``t_query`` raises :class:`ValueError` before anything
    is planned or read.
    """
    check_range_arguments(t_query)
    engine = QueryEngine(tree)
    return prq_from_plan(engine, engine.planner.plan_range(q_uid, window, t_query))
