"""The unified privacy-aware query engine.

Every query type the reproduction supports runs the same Section 5.3
pipeline: fetch the issuer's friend list, enlarge the window per live
time partition (Figure 2), convert it to curve-value windows, scan the
per-(partition, SV) key bands of the PEB-tree, and locate-and-verify
each candidate against the policy store.  This package implements that
pipeline exactly once, in four layers (plus the write-path twin):

1. :mod:`repro.engine.plan` — the **planner**: query spec in,
   :class:`~repro.engine.plan.QueryPlan` of band requests out, with the
   paper's skip rules expressed once as plan metadata.
2. :mod:`repro.engine.scanner` — the **band scanner**: executes band
   requests against the tree, keeping per ``(tid, sv_q)`` stratum what
   its scans have *proven* (the Z-intervals they covered, widened to
   the keys the touched leaves showed around them, with their rows) so
   later requests inside a proof never reach the tree — whether the
   proof came from a batch prefetch that merged overlapping requests
   across issuers or from an earlier on-demand scan.
3. :mod:`repro.engine.executor` — the **executor**: drives plans in the
   paper's iteration order, and batches many concurrent query specs so
   one physical scan serves every query that needs it, returning
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
    PlannedBand,
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
    "PlannedBand",
    "QueryPlan",
    "QueryPlanner",
    "QueryEngine",
    "RangeExecution",
    "UpdateBuffer",
    "UpdatePipeline",
    "UpdateStats",
]
