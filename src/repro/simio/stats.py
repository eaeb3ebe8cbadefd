"""Virtual-time accounting bundles, mirroring the I/O counter design.

:class:`LatencyStats` is to device *busy time* what
:class:`repro.storage.stats.IOStats` is to access counts: one mutable
bundle per timed device, charged by :class:`repro.simio.disk.TimedDisk`
on every completed access.  :class:`LatencyView` is the live read-side
aggregate over several bundles (one per shard disk), exactly parallel
to :class:`repro.storage.stats.StatsView` — benchmark code reads
``view.busy_us`` on a sharded deployment the same way it reads a single
device's.

Busy time is *device-serialized* time: the sum over accesses of their
individual costs.  It deliberately ignores overlap, which is the
point — comparing summed busy time against the
:class:`repro.simio.clock.SimClock`'s elapsed horizon yields the
**overlap factor** (busy / elapsed): 1.0 means fully serial I/O, N
means N devices were genuinely kept busy concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import CounterSet, LiveSum, derived


@dataclass
class LatencyStats(CounterSet, prefix="device."):
    """Mutable virtual-time counters for one simulated device.

    Attributes:
        reads: completed page reads charged to the device.
        writes: completed page writes charged to the device.
        read_us: total virtual microseconds spent in reads.
        write_us: total virtual microseconds spent in writes.
        seeks: accesses that paid the positioning cost.
        sequential_hits: accesses that rode a sequential run instead.
    """

    reads: int = 0
    writes: int = 0
    read_us: float = 0.0
    write_us: float = 0.0
    seeks: int = 0
    sequential_hits: int = 0

    @derived
    def busy_us(self) -> float:
        """Total device-serialized virtual time (reads plus writes)."""
        return self.read_us + self.write_us

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @derived
    def sequential_ratio(self) -> float:
        """Fraction of accesses that skipped the seek (0.0 when idle)."""
        total = self.accesses
        if total == 0:
            return 0.0
        return self.sequential_hits / total

    def record(self, kind: str, cost_us: float, sequential: bool) -> None:
        """Charge one completed access."""
        if kind == "read":
            self.reads += 1
            self.read_us += cost_us
        else:
            self.writes += 1
            self.write_us += cost_us
        if sequential:
            self.sequential_hits += 1
        else:
            self.seeks += 1


class LatencyView(LiveSum):
    """A live aggregate over several :class:`LatencyStats` bundles.

    Every property access recomputes the sum, so a view taken once (a
    sharded deployment's merged latency surface) stays current as the
    member devices keep charging time.
    """


__all__ = ["LatencyStats", "LatencyView"]
