"""The fields the engine, the write path and the service read off an index.

A :class:`repro.core.peb_tree.PEBTree` is the one-shard deployment, a
:class:`repro.shard.tree.ShardedPEBTree` the N-shard one; both carry
these fields, so no layer probes for attributes.
"""

from __future__ import annotations

from repro.simio.disk import TimedDisk
from repro.simio.stats import LatencyView


class Deployment:
    """The fields every deployment carries.

    Attributes:
        sim_clock, latency_model, latency_stats: the clock, pricing model
            and merged device counters of the deployment's
            :class:`repro.simio.disk.TimedDisk` devices (:meth:`_time_on`,
            the one rule); None on untimed storage.
        router: the key-space partition across shards; None on one tree.
        supervisor: a fault-tolerant deployment's
            :class:`repro.fault.supervisor.ShardSupervisor`, else None.
        recorder: the :class:`repro.obs.trace.TraceRecorder` the layers
            trace into, else None; setting it sets the supervisor's too.
    """

    sim_clock = latency_model = latency_stats = None
    router = supervisor = _recorder = None

    def _time_on(self, disks) -> None:
        timed = [disk for disk in disks if isinstance(disk, TimedDisk)]
        if timed:
            self.sim_clock = timed[0].clock
            self.latency_model = timed[0].model
            self.latency_stats = LatencyView([disk.latency for disk in timed])

    @property
    def bands_dropped(self) -> int:
        """Sub-bands a quarantined shard has dropped so far."""
        return self.supervisor.stats.bands_dropped if self.supervisor is not None else 0

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, recorder) -> None:
        self._recorder = recorder
        if self.supervisor is not None:  # its retry loop runs in scheduler jobs
            self.supervisor.recorder = recorder


__all__ = ["Deployment"]
