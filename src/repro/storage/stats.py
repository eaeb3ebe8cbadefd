"""I/O statistics counters shared by the disk and buffer layers.

:class:`IOStats` is the mutable counter bundle one disk/pool pair
shares; :class:`StatsView` is a *live* read-side aggregate over several
bundles, for deployments that spread one logical index across many
pools (the sharded multi-tree) but must report one coherent set of
counters — harness code reads ``view.physical_reads`` exactly as it
would a single pool's, instead of hand-summing per-shard counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.counters import CounterSet, LiveSum, published_only


@dataclass
class IOStats(CounterSet, prefix="io."):
    """Mutable bundle of I/O counters.

    The paper's experiments report the *average I/O cost per query*, where
    one I/O is one physical page read that the LRU buffer could not serve.
    Physical writes are tracked as well (dirty evictions and explicit
    flushes) so that update experiments can report complete numbers.

    Attributes:
        physical_reads: pages fetched from the simulated disk (buffer misses).
        physical_writes: pages written back to the simulated disk.
        logical_reads: page requests made by the index code, hit or miss.
        logical_writes: page dirty-markings made by the index code.
    """

    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    logical_writes: int = 0
    _marks: dict[str, tuple[int, int]] = field(default_factory=dict, repr=False)

    def reset(self) -> None:
        """Zero every counter (marks survive so old deltas become invalid)."""
        super().reset()
        self._marks.clear()

    @property
    def total_io(self) -> int:
        """Physical reads plus physical writes."""
        return self.physical_reads + self.physical_writes

    @published_only
    def hit_ratio(self) -> float:
        """Fraction of logical reads served by the buffer (1.0 if idle)."""
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads

    def mark(self, label: str = "default") -> None:
        """Remember the current counters under ``label`` for later deltas."""
        self._marks[label] = (self.physical_reads, self.physical_writes)

    def reads_since(self, label: str = "default") -> int:
        """Physical reads accumulated since :meth:`mark` was called."""
        return self.physical_reads - self._marks.get(label, (0, 0))[0]

    def writes_since(self, label: str = "default") -> int:
        """Physical writes accumulated since :meth:`mark` was called."""
        return self.physical_writes - self._marks.get(label, (0, 0))[1]


class StatsView(LiveSum):
    """A live aggregate over several :class:`IOStats` bundles.

    Every counter access recomputes the sum from the underlying
    bundles, so a view taken once (e.g. as a sharded deployment's
    ``stats`` attribute) stays current as the member pools keep doing
    I/O — callers can take before/after deltas on the view exactly as
    they do on a single pool's :class:`IOStats`.

    The view mirrors the read-side surface of :class:`IOStats`
    (counters, :attr:`total_io`, :attr:`hit_ratio`, :meth:`snapshot`)
    plus :meth:`reset`, which fans out to every member.  Per-bundle
    ``mark``/``*_since`` bookkeeping stays on the members — a deadline
    mark on an aggregate of moving parts would silently mix scopes.

    Deployments on simulated-latency devices additionally carry a
    ``latency`` aggregate (a :class:`repro.simio.stats.LatencyView`
    over the devices' virtual-time bundles, duck-typed here so the
    storage layer needs no simio import); it rides along so harness
    code finds counters and times on one object, and :meth:`reset`
    fans out to it too.
    """

    def __init__(
        self,
        parts: Sequence[IOStats] | Iterable[IOStats],
        latency=None,
    ):
        super().__init__(parts)
        self.latency = latency

    def reset(self) -> None:
        """Zero every member bundle's counters (latency bundles too)."""
        super().reset()
        if self.latency is not None:
            self.latency.reset()

    def snapshot(self) -> dict:
        """Return an immutable merged view of the counters for reporting."""
        merged = super().snapshot()
        if self.latency is not None:
            merged["latency"] = self.latency.snapshot()
        return merged

    def publish(self, registry, **labels) -> None:
        """Publish the merged counters (same ``io.<field>`` names a
        single bundle uses; the latency aggregate rides along)."""
        super().publish(registry, **labels)
        if self.latency is not None:
            self.latency.publish(registry, **labels)


def merge_stats(parts: Iterable[IOStats], latency=None) -> StatsView:
    """One coherent live view over several counter bundles."""
    return StatsView(tuple(parts), latency=latency)
