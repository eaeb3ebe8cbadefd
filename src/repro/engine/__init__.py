"""The unified privacy-aware query engine.

Every query type the reproduction supports runs the same Section 5.3
pipeline: fetch the issuer's friend list, enlarge the window per live
time partition (Figure 2), convert it to curve-value windows, scan the
per-(partition, SV) key bands of the PEB-tree, and locate-and-verify
each candidate against the policy store.  This package implements that
pipeline exactly once, in four layers (plus the write-path twin):

1. :mod:`repro.engine.plan` — the **planner**: query spec in,
   :class:`~repro.engine.plan.QueryPlan` of ``(live key, friend)``
   pairs out, read off the update memo, with the paper's skip rules
   expressed once as plan metadata.
2. :mod:`repro.engine.scanner` — the **scanner**: fetches a served
   plan's keys (one lookup when a batch's key multi-get already fetched
   them, one descent otherwise), and scans the bands the Section 5.4
   walk, registration and the span ablation request on demand, keeping
   per ``(tid, sv_q)`` stratum what those scans have *proven* (the
   Z-intervals they covered, widened to the keys the touched leaves
   showed around them, with their rows) so later bands inside a proof
   never reach the tree.
3. :mod:`repro.engine.executor` — the **executor**: drives plans in the
   paper's iteration order, and batches many concurrent query specs so
   one fetch of a key serves every query that names it, returning
   per-query results plus :class:`~repro.engine.executor.ExecutionStats`.
4. :mod:`repro.engine.verify` — the **verifier**: centralizes
   ``position_at`` + ``store.evaluate`` + once-per-user deduplication.
5. :mod:`repro.engine.updater` — the **update pipeline**: buffers
   location updates and flushes them as key-sorted, leaf-ordered
   batches through :meth:`repro.core.peb_tree.PEBTree.update_batch`,
   amortizing write I/O the way the scanner amortizes reads, and
   fanning applied states out to continuous-query monitors.

The public query functions (:func:`repro.core.prq.prq`,
:func:`repro.core.pknn.pknn`, :func:`repro.core.aggregate.pcount`, …)
keep their signatures; they are thin adapters over
:class:`~repro.engine.executor.QueryEngine`.
"""

from repro.engine.executor import (
    BatchReport,
    ExecutionStats,
    QueryEngine,
    RangeExecution,
)
from repro.engine.plan import (
    BandRequest,
    PartitionContext,
    QueryPlan,
    QueryPlanner,
)
from repro.engine.scanner import BandScanner
from repro.engine.updater import UpdateBuffer, UpdatePipeline, UpdateStats
from repro.engine.verify import CandidateVerifier

__all__ = [
    "BandRequest",
    "BandScanner",
    "BatchReport",
    "CandidateVerifier",
    "ExecutionStats",
    "PartitionContext",
    "QueryPlan",
    "QueryPlanner",
    "QueryEngine",
    "RangeExecution",
    "UpdateBuffer",
    "UpdatePipeline",
    "UpdateStats",
]
