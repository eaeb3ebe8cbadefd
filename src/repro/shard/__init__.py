"""Sharded multi-tree deployments of the PEB-tree index.

The single PEB-tree caps throughput at one buffer pool and one descent
path no matter how many concurrent issuers the engine batches.  This
package partitions the ``TID ⊕ SV ⊕ ZV`` key space across N independent
:class:`repro.core.peb_tree.PEBTree` instances — each with its own
buffer pool and disk — and keeps every observable output identical to
the single tree:

* :class:`~repro.shard.router.ShardRouter` — pure key-space routing:
  SV-range partitioning (a user's shard never changes), band splitting
  at boundary keys, order-preserving sorted-run splitting.
* :class:`~repro.shard.tree.ShardedPEBTree` — the N-shard
  :class:`repro.engine.deployment.Deployment`: hands the engine its
  scatter scanner, cuts the updater's globally sorted sweeps into
  per-shard ready-to-apply runs, merges I/O counters into one live
  :class:`repro.storage.stats.StatsView`.
* :class:`~repro.shard.engine.ShardScatterScanner` — the deployment's
  one reader: scatter/gather scans under the shard supervisor, batch
  prefetching per shard, plus verification pipelined against
  still-running shard scans (its ``VerifyTimeline``) on simulated-latency
  devices (:mod:`repro.simio`).  The one
  :class:`repro.engine.QueryEngine` runs on it.
* :class:`~repro.shard.stats.ShardStats` — per-shard entry/I/O
  breakdown and balance skew, surfaced on ``ExecutionStats`` /
  ``UpdateStats``.
* :class:`~repro.shard.recovery.ShardCheckpointer` — per-shard
  checkpoints with replay logs; rebuilds a quarantined shard in place
  and closes its breaker (the durable half of :mod:`repro.fault`).
"""

from repro.engine import QueryEngine
from repro.shard.engine import ShardScatterScanner
from repro.shard.recovery import ShardCheckpointer
from repro.shard.router import ShardRouter
from repro.shard.stats import ShardStats
from repro.shard.tree import ShardedPEBTree

#: The one engine under its former sharded name, kept only because
#: ``perf/workloads.py`` imports it; it goes when that import does.
ShardedQueryEngine = QueryEngine

__all__ = [
    "ShardCheckpointer",
    "ShardRouter",
    "ShardScatterScanner",
    "ShardStats",
    "ShardedPEBTree",
    "ShardedQueryEngine",
]
