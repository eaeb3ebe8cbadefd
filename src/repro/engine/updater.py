"""Batch update pipeline (the engine's write path).

The read path amortizes I/O by merging many queries' band scans into
few physical sweeps; this module is its write-side twin.  Location
updates are not applied as they arrive — each costing a full
root-to-leaf descent (two for a moved entry) against whatever page
happens to be buffered — but accumulate in an :class:`UpdateBuffer`
and flush as one :meth:`repro.core.peb_tree.PEBTree.update_batch`
call: the buffered states are partitioned into in-place rewrites and
moved entries, sorted by PEB-key, and swept leaf-ordered through the
tree so every op landing in the same leaf shares one descent, one
page pin, and at most one split or rebalance.

Three pieces, mirroring the scanner/executor split of the read path:

* :class:`UpdateBuffer` — pure accumulation with last-write-wins
  semantics per user (what a server's update queue does anyway).
* :class:`UpdatePipeline` — owns a buffer for one tree, decides *when*
  to flush (buffer full, or an update's time partition rolling over —
  partition-pure runs are what the sharded multi-tree will route), and
  fans each applied state out to attached monitors (continuous
  queries re-registering their tracked motion functions).
* :class:`UpdateStats` — flush-level accounting symmetric with the
  read path's :class:`repro.engine.executor.ExecutionStats`: ops,
  in-place hits, leaf descents saved, physical reads and writes.

Updates applied through the pipeline are observationally identical to
calling ``tree.update`` per state in arrival order; only the I/O
schedule changes.  Queries and updates remain phase-separated: flush
(or close the pipeline) before scanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING, Iterable, Protocol

from repro.counters import CounterSet, counter, derived, nested

if TYPE_CHECKING:
    from repro.core.peb_tree import PEBTree
    from repro.fault.stats import FaultStats
    from repro.motion.objects import MovingObject
    from repro.shard.stats import ShardStats


class UpdateMonitor(Protocol):
    """Anything that wants to see applied updates (continuous queries)."""

    def refresh(self, obj: "MovingObject") -> bool: ...


@dataclass
class UpdateStats(CounterSet, prefix="update."):
    """Write-path accounting across one pipeline's lifetime.

    Attributes:
        ops: distinct user states applied (post buffer dedup).
        in_place_hits: same-key updates served by a leaf rewrite.
        moved: entries relocated (delete at old key + insert at new).
        inserted: users indexed for the first time.
        flushes: batches the buffer released.
        leaves_visited: leaf visits the batched sweeps paid.
        descents_saved: root-to-leaf descents one-at-a-time application
            would have added on top of those visits.
        physical_reads: pages the buffer pool had to fetch during
            flushes.
        physical_writes: pages written back during flushes (dirty
            evictions; a final pool flush is the harness's business).
        deferred: states a flush re-buffered because their shard was
            quarantined (each re-buffering counts; the state applies —
            and lands in ``ops`` — on a later flush once the shard
            recovers).
        shard_stats: per-shard I/O of the pipeline's flushes when it
            writes to a sharded deployment (None on a single tree);
            entries are point-in-time.
        fault_stats: fault-handling events of the pipeline's flushes
            (:class:`repro.fault.stats.FaultStats` deltas, summed) when
            the deployment carries a shard supervisor; None otherwise.
        virtual_time_us: simulated elapsed time of the flushes in
            virtual microseconds, when the tree runs on timed devices
            (:mod:`repro.simio`); 0.0 on untimed storage.  Per-shard
            sweeps overlapping on distinct devices shrink this number
            while the physical counters stay identical.
    """

    ops: int = 0
    in_place_hits: int = 0
    moved: int = 0
    inserted: int = 0
    flushes: int = 0
    leaves_visited: int = 0
    descents_saved: int = 0
    deferred: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    shard_stats: "ShardStats | None" = nested()
    fault_stats: "FaultStats | None" = nested()
    virtual_time_us: float = counter(0.0, as_gauge=True)

    @property
    def total_io(self) -> int:
        """Physical reads plus writes across all flushes."""
        return self.physical_reads + self.physical_writes

    @derived
    def io_per_update(self) -> float:
        """Amortized physical I/O per applied update (0.0 when idle)."""
        if self.ops == 0:
            return 0.0
        return self.total_io / self.ops

    @derived
    def in_place_ratio(self) -> float:
        """Fraction of ops that never left their leaf (0.0 when idle)."""
        if self.ops == 0:
            return 0.0
        return self.in_place_hits / self.ops


def _accrued(delta, so_far):
    """One flush's breakdown added onto the earlier flushes'."""
    return delta if so_far is None else delta + so_far


class UpdateBuffer:
    """Accumulates pending states with last-write-wins per user."""

    def __init__(self) -> None:
        self._pending: dict[int, tuple["MovingObject", int]] = {}

    def add(self, obj: "MovingObject", pntp: int = 0) -> None:
        """Buffer one state; a newer state for the same user wins.

        A re-added user moves to the *end* of the buffer, so
        last-write-wins also means last-arrival ordering: the position
        :meth:`drain` reports is that of the state actually kept, not
        of a superseded one.
        """
        self._pending.pop(obj.uid, None)
        self._pending[obj.uid] = (obj, pntp)

    def drain(self) -> list[tuple["MovingObject", int]]:
        """Remove and return everything buffered, in arrival order."""
        drained = list(self._pending.values())
        self._pending.clear()
        return drained

    def restore(self, batch: Iterable[tuple["MovingObject", int]]) -> None:
        """Put a failed flush's drained states back, ahead of newer ones.

        The drained states predate anything buffered since the drain,
        so they re-enter at the head of arrival order — except where a
        newer state for the same user has arrived meanwhile, which wins
        (and keeps its later position), exactly as if the drain had
        never happened.
        """
        merged: dict[int, tuple["MovingObject", int]] = {}
        for obj, pntp in batch:
            merged[obj.uid] = (obj, pntp)
        for uid, entry in self._pending.items():
            merged.pop(uid, None)
            merged[uid] = entry
        self._pending = merged

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, uid: int) -> bool:
        return uid in self._pending


class UpdatePipeline:
    """Buffered, leaf-ordered application of updates to one PEB-tree.

    Args:
        tree: the deployment (one tree or a sharded one) it writes to.
        capacity: flush when this many distinct users are buffered.

    The buffer also flushes whenever an arriving update's time partition
    differs from the previous one's, so every batch is partition-pure and
    the old partition's leaves are swept while still hot.

    Usable as a context manager; leaving the ``with`` block flushes.
    """

    def __init__(self, tree: "PEBTree", capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.tree = tree
        self.capacity = capacity
        self.buffer = UpdateBuffer()
        self.stats = UpdateStats()
        self._monitors: list[UpdateMonitor] = []
        self._last_tid: int | None = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, obj: "MovingObject", pntp: int = 0) -> None:
        """Buffer one update, flushing first if a trigger fires.

        A state with a NaN or infinite coordinate, velocity or
        ``t_update`` raises :class:`ValueError` here, before any
        trigger or the buffer sees it: buffered, it would fail every
        flush in key planning and be restored with the batch each time.
        """
        # NaN and the infinities survive addition, so a finite sum
        # clears all five fields at once; only a rejection pays for
        # finding the field (a finite state whose sum overflows has
        # none, and passes).
        if not isfinite(obj.x + obj.y + obj.vx + obj.vy + obj.t_update):
            for name in ("x", "y", "vx", "vy", "t_update"):
                if not isfinite(getattr(obj, name)):
                    raise ValueError(
                        f"update for user {obj.uid} rejected: "
                        f"{name}={getattr(obj, name)!r} is not finite"
                    )
        tid = self.tree.partitioner.partition(obj.t_update)
        if self._last_tid is not None and tid != self._last_tid and len(self.buffer):
            self.flush()
        self._last_tid = tid
        self.buffer.add(obj, pntp)
        if len(self.buffer) >= self.capacity:
            self.flush()

    def extend(
        self,
        objs: "Iterable[MovingObject | tuple[MovingObject, int]]",
        pntps: Iterable[int] | None = None,
    ) -> None:
        """Submit many updates (a drained server queue).

        Accepts bare states, ``(state, pntp)`` pairs, or — via
        ``pntps`` — a parallel iterable of previous-partition labels
        (must match ``objs`` in length).  Bare states without ``pntps``
        keep the default label of 0.
        """
        if pntps is not None:
            for obj, pntp in zip(objs, pntps, strict=True):
                self.submit(obj, pntp)
            return
        for item in objs:
            if isinstance(item, tuple):
                obj, pntp = item
                self.submit(obj, pntp)
            else:
                self.submit(item)

    def flush(self) -> int:
        """Apply everything buffered as one batch; returns ops applied.

        A failing batch keeps its states: if ``tree.update_batch``
        raises (an injected :class:`repro.storage.faults.DiskFaultError`,
        a torn page, ...), the drained states are restored to the buffer
        before the exception propagates.  A retry after the fault clears
        applies them exactly once only when the fault struck before the
        batch's first page mutation, or inside a supervised deployment's
        guarded shard sweep (below).  A fault after the first mutation
        of an unsupervised batch leaves it partly applied, and every
        retry then raises ``KeyError`` on an op that already applied.
        No stats are recorded and no monitor sees a state from a failed
        flush.

        A fault-tolerant sharded deployment guards every shard's sweep
        and defers at shard granularity: ``update_batch`` returns
        normally with the quarantined shards' states in
        ``result.deferred``, which are restored to the buffer (ahead of
        newer arrivals, same last-write-wins merge) and excluded from
        stats and monitor fan-out — they apply exactly once, on a flush
        after the shard recovers.
        """
        batch = self.buffer.drain()
        if not batch:
            return 0
        tree = self.tree
        stats = tree.stats
        reads_before = stats.physical_reads
        writes_before = stats.physical_writes
        clock = tree.sim_clock
        elapsed_before = clock.elapsed if clock is not None else 0.0
        # Baselined at every flush: whatever runs between two flushes
        # (a served stream's query batches) is not this pipeline's I/O.
        shards_before = tree.shard_stats() if tree.router is not None else None
        supervisor = tree.supervisor
        faults_before = supervisor.stats.copy() if supervisor is not None else None
        recorder = tree.recorder
        tracing = recorder is not None and recorder.enabled
        if tracing:
            t_flush0 = clock.cursor() if clock is not None else 0.0
        try:
            result = tree.update_batch(batch)
        except BaseException:
            self.buffer.restore(batch)
            raise
        if tracing:
            recorder.span(
                "engine/update",
                "update.flush",
                t_flush0,
                clock.cursor() if clock is not None else 0.0,
                category="engine",
                args={
                    "ops": result.ops,
                    "batch": len(batch),
                    "deferred": len(result.deferred),
                },
            )
        deferred_uids: set[int] = set()
        deferred = result.deferred
        if deferred:
            pairs = [
                item if isinstance(item, tuple) else (item, 0) for item in deferred
            ]
            deferred_uids = {obj.uid for obj, _ in pairs}
            self.buffer.restore(pairs)
            self.stats.deferred += len(pairs)
        self.stats.flushes += 1
        self.stats.ops += result.ops
        self.stats.in_place_hits += result.in_place
        self.stats.moved += result.moved
        self.stats.inserted += result.inserted
        self.stats.leaves_visited += result.leaves_visited
        self.stats.descents_saved += result.descents_saved
        self.stats.physical_reads += stats.physical_reads - reads_before
        self.stats.physical_writes += stats.physical_writes - writes_before
        if clock is not None:
            self.stats.virtual_time_us += clock.elapsed - elapsed_before
        if shards_before is not None:
            # Delta on the left: its entries are the current ones.
            self.stats.shard_stats = _accrued(
                tree.shard_stats().delta_from(shards_before), self.stats.shard_stats
            )
        if faults_before is not None:
            self.stats.fault_stats = _accrued(
                supervisor.stats.delta_from(faults_before), self.stats.fault_stats
            )
        for obj, _ in batch:
            if obj.uid in deferred_uids:
                continue  # not applied; the monitor sees it post-recovery
            for monitor in self._monitors:
                monitor.refresh(obj)
        return result.ops

    # ------------------------------------------------------------------
    # Monitors (continuous-query re-registration)
    # ------------------------------------------------------------------

    def attach_monitor(self, monitor: UpdateMonitor) -> None:
        """Fan applied updates out to a continuous query's tracker.

        The monitor's ``refresh`` sees every state the pipeline applies
        (after the flush, so index and tracker agree); monitors ignore
        users they do not care about, as
        :meth:`repro.core.continuous.ContinuousPRQ.refresh` does.
        """
        if monitor not in self._monitors:
            self._monitors.append(monitor)

    def detach_monitor(self, monitor: UpdateMonitor) -> bool:
        """Stop notifying a monitor; True if it was attached."""
        try:
            self._monitors.remove(monitor)
        except ValueError:
            return False
        return True

    @property
    def pending(self) -> int:
        """Distinct users currently buffered, not yet applied."""
        return len(self.buffer)

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------

    def __enter__(self) -> "UpdatePipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()


__all__ = ["UpdateBuffer", "UpdateMonitor", "UpdatePipeline", "UpdateStats"]
