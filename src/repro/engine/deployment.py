"""The fields the engine, the write path and the service read off an index.

A :class:`repro.core.peb_tree.PEBTree` is the one-shard deployment, a
:class:`repro.shard.tree.ShardedPEBTree` the N-shard one; both carry
these fields, so no layer probes for attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.simio.disk import TimedDisk
from repro.simio.stats import LatencyView


@dataclass(slots=True)
class LiveState:
    """One per deployment: the update memo ``keys`` (uid -> live key,
    the Bx-tree's memo of Section 5.2, which both served plans find
    each friend through) and the greatest |vx| and |vy| indexed, which
    enlarge every query (Figure 2) — maxima below an indexed velocity
    silently drop results.  Every shard tree of a sharded deployment is
    bound to the deployment's and writes it directly."""

    keys: dict[int, int] = field(default_factory=dict)
    max_speed_x: float = 0.0
    max_speed_y: float = 0.0


class Deployment:
    """The fields every deployment carries.

    Attributes:
        live: the deployment's :class:`LiveState` (memo and speed maxima).
        trees: the shard trees, in router order; a lone tree is its own
            single shard.
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

    live: LiveState
    trees: tuple
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

    def __len__(self) -> int:
        """Indexed entries, over every shard tree."""
        return sum(tree.btree.entry_count for tree in self.trees)

    # ------------------------------------------------------------------
    # Membership: one memo probe each
    # ------------------------------------------------------------------

    def live_key(self, uid: int) -> int | None:
        """The user's live key from the update memo, or None."""
        return self.live.keys.get(uid)

    def live_keys_of(self, uids: Iterable[int]) -> Iterator[int | None]:
        """:meth:`live_key` of each uid in turn: no Python call per uid
        (a plan probes a whole policy row)."""
        return map(self.live.keys.get, uids)

    def contains(self, uid: int) -> bool:
        return uid in self.live.keys

    def live_keys(self) -> dict[int, int]:
        """A copy of the update memo (uid -> live key), in memo order."""
        return dict(self.live.keys)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def check_consistency(self, repair: bool = False) -> list[str]:
        """Audit the memo and the speed maxima against the index itself.

        One walk over every entry of every shard tree reports, as
        problem strings (empty means consistent), entries the memo does
        not know or knows under another key, entries in a shard their
        key does not route to, memoized users with no entry, and speed
        maxima below an indexed velocity — the stale-checkpoint hazard
        that silently shrinks the Figure 2 enlargements.  ``repair=True``
        raises the maxima; memo divergence is never repaired (the index
        and its metadata are from different worlds).
        """
        live = self.live
        route = self.router.shard_of_key if self.router is not None else None
        problems: list[str] = []
        seen: set[int] = set()
        max_vx = max_vy = 0.0
        for shard, tree in enumerate(self.trees):
            unpack_records = tree.records.unpack_records
            for keys, run in tree.btree.leaf_runs():
                for (key, uid), rec in zip(keys, unpack_records(keys, run)):
                    seen.add(uid)
                    max_vx = max(max_vx, abs(rec[3]))
                    max_vy = max(max_vy, abs(rec[4]))
                    memo_key = live.keys.get(uid)
                    if memo_key is None:
                        problems.append(f"entry for user {uid} missing from the memo")
                    elif memo_key != key:
                        problems.append(
                            f"user {uid} indexed under key {key} "
                            f"but memoized as {memo_key}"
                        )
                    if route is not None and route(key) != shard:
                        problems.append(
                            f"user {uid} lives in shard {shard} but key {key} "
                            f"routes to shard {route(key)}"
                        )
        for uid in live.keys.keys() - seen:
            problems.append(f"memoized user {uid} has no index entry")
        if max_vx > live.max_speed_x:
            problems.append(f"max_speed_x={live.max_speed_x} below indexed |vx|={max_vx}")
        if max_vy > live.max_speed_y:
            problems.append(f"max_speed_y={live.max_speed_y} below indexed |vy|={max_vy}")
        if repair:
            live.max_speed_x = max(live.max_speed_x, max_vx)
            live.max_speed_y = max(live.max_speed_y, max_vy)
        return problems


__all__ = ["Deployment", "LiveState"]
