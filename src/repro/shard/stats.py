"""Per-shard accounting for the sharded multi-tree deployment.

A sharded deployment spreads one logical PEB-tree index across several
physical trees, each with its own buffer pool and disk.  The merged I/O
counters (:class:`repro.storage.stats.StatsView`) answer "what did the
deployment cost"; :class:`ShardStats` answers "how evenly" — the entry
and I/O distribution across shards, and the balance skew that tells an
operator when a partitioning policy has collapsed onto a hot shard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import CounterSet, counter, derived, gauge, snapshot_only


@dataclass(frozen=True)
class ShardStats(CounterSet, prefix="shard."):
    """A point-in-time per-shard breakdown of one sharded deployment.

    All tuples are indexed by shard, in router order.

    ``entries`` is always point-in-time.  The I/O tuples are cumulative
    pool counters when taken via
    :meth:`repro.shard.tree.ShardedPEBTree.shard_stats`, or the I/O of
    one measured span when produced by :meth:`delta_from` — which is
    how the engine and update pipeline attach them to
    ``ExecutionStats`` / ``UpdateStats``, so the breakdown sums to the
    sibling delta counters it rides with.

    Attributes:
        entries: indexed user entries per shard.
        physical_reads: physical page reads per shard's pool.
        physical_writes: physical page writes per shard's pool.
        leaves: leaf pages per shard's B+-tree (empty when not taken).
        leaf_capacity: entries one leaf page holds (0 when not taken).
    """

    entries: tuple[int, ...] = gauge()
    physical_reads: tuple[int, ...] = counter()
    physical_writes: tuple[int, ...] = counter()
    leaves: tuple[int, ...] = gauge(())
    leaf_capacity: int = gauge(0)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("ShardStats needs at least one shard")
        if not (
            len(self.entries) == len(self.physical_reads) == len(self.physical_writes)
        ) or len(self.leaves) not in (0, len(self.entries)):
            raise ValueError("per-shard tuples must have equal length")

    @snapshot_only
    def n_shards(self) -> int:
        return len(self.entries)

    @property
    def total_entries(self) -> int:
        return sum(self.entries)

    @property
    def total_reads(self) -> int:
        return sum(self.physical_reads)

    @property
    def total_writes(self) -> int:
        return sum(self.physical_writes)

    @derived
    def balance_skew(self) -> float:
        """Largest shard's entry count over the even-split ideal.

        1.0 is a perfectly balanced deployment; N is everything on one
        of N shards.  An empty deployment reports 1.0 — no data, no
        imbalance.
        """
        total = self.total_entries
        if total == 0:
            return 1.0
        return max(self.entries) / (total / self.n_shards)

    @derived
    def leaf_fill(self) -> float:
        """Entries over leaf slots, deployment-wide: how full the leaf
        pages a query reads are (split-only B+-trees settle near ln 2).
        0.0 when the leaf counts were not taken."""
        slots = sum(self.leaves) * self.leaf_capacity
        return self.total_entries / slots if slots else 0.0


__all__ = ["ShardStats"]
