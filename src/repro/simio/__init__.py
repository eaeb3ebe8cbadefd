"""Simulated-latency I/O: virtual time over the counted storage stack.

The storage layer counts physical accesses; this package prices them.
Four pieces turn counts into measurable *time*, which is what makes
overlapped scheduling visible at all (overlap never changes a count):

* :mod:`repro.simio.model` — :class:`~repro.simio.model.LatencyModel`
  over hdd/ssd/nvme :class:`~repro.simio.model.DeviceProfile`\\ s: seek
  plus per-page transfer, with a sequential-run discount.
* :mod:`repro.simio.clock` — :class:`~repro.simio.clock.SimClock`:
  virtual time where concurrent accesses to distinct devices overlap
  and same-device accesses serialize on a per-device timeline;
  fork/join contexts make overlap deterministic without any real
  concurrency.
* :mod:`repro.simio.disk` — :class:`~repro.simio.disk.TimedDisk`: a
  delegating wrapper composing with ``SimulatedDisk`` / ``FaultyDisk``
  / ``ChecksummedDisk``, charging completed accesses into
  :class:`~repro.simio.stats.LatencyStats`.
* :mod:`repro.simio.scheduler` —
  :class:`~repro.simio.scheduler.IOScheduler`: fork/join execution of
  independent per-shard jobs (prefetch scans, update sweeps), run
  inline in job order and overlapped on the virtual schedule only.

The shard layer (:mod:`repro.shard`) is the subsystem's main consumer:
``ShardedPEBTree.build(..., latency="hdd")`` gives
every shard its own timed device on one shared clock, and the
scatter/gather engine and batch updater drive them overlapped.
"""

from repro.simio.clock import SimClock
from repro.simio.disk import TimedDisk
from repro.simio.model import (
    DEFAULT_VERIFY_US,
    DeviceProfile,
    LatencyModel,
    PROFILES,
    make_latency_model,
)
from repro.simio.scheduler import IOScheduler
from repro.simio.stats import LatencyStats, LatencyView

__all__ = [
    "DEFAULT_VERIFY_US",
    "DeviceProfile",
    "IOScheduler",
    "LatencyModel",
    "LatencyStats",
    "LatencyView",
    "PROFILES",
    "SimClock",
    "TimedDisk",
    "make_latency_model",
]
