"""The sharded multi-tree deployment: N PEB-trees as one deployment.

:class:`ShardedPEBTree` spreads one logical index across several
:class:`repro.core.peb_tree.PEBTree` instances, each with its own
buffer pool and simulated disk, partitioned by a
:class:`repro.shard.router.ShardRouter`.  It is a
:class:`repro.engine.deployment.Deployment`, as a single tree is, and
holds the shared geometry (``grid`` / ``partitioner`` / ``store`` /
``codec`` / speed maxima) once, so :class:`repro.engine.QueryEngine`
and :class:`repro.engine.UpdatePipeline` run unchanged on it,
observationally identical to a single tree.

Read path: one reader, the scanner the deployment hands the engine
(:meth:`ShardedPEBTree.new_scanner`), splits a band request at shard
boundaries, scans the owning shards under the supervisor, if any, and
concatenates their rows in key order, for a single query and a batch
alike.  Write path: the deployment plans a batch exactly as
:meth:`PEBTree.update_batch` does — dedup, classify against the
merged live-key memo, sort one op run globally — then cuts the sorted
run at shard-key boundaries (one stable pass, order preserved) and
hands every shard a ready-to-apply sorted run for
:meth:`repro.btree.BPlusTree.apply_sorted_batch`.  No re-sorting, and
each shard's sweep touches only its own pool, so per-shard application
is embarrassingly parallel (the read side already exploits this; see
:class:`repro.shard.engine.ShardScatterScanner`).
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.peb_key import DEFAULT_SV_BITS, PEBKeyCodec, derive_sv_scale
from repro.core.peb_tree import (
    BatchUpdateResult,
    PEBTree,
    UpdateItem,
    plan_update_batch,
)
from repro.engine.deployment import Deployment
from repro.fault.breaker import BreakerPolicy
from repro.fault.retry import RetryPolicy
from repro.fault.supervisor import ShardSupervisor
from repro.motion.objects import MovingObject
from repro.shard.engine import ShardScatterScanner
from repro.shard.router import ShardRouter
from repro.shard.stats import ShardStats
from repro.simio.clock import SimClock
from repro.simio.disk import TimedDisk
from repro.simio.model import LatencyModel, make_latency_model
from repro.simio.scheduler import IOScheduler
from repro.storage.buffer import DEFAULT_BUFFER_PAGES, BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import StatsView, merge_stats

if TYPE_CHECKING:
    from repro.motion.partitions import TimePartitioner
    from repro.policy.store import PolicyStore
    from repro.spatial.grid import Grid


class ShardedPEBTree(Deployment):
    """One logical PEB-tree index over N physical shard trees.

    Args:
        trees: the shard trees, in router order.  All must share the
            same policy store, grid, partitioner, and codec geometry —
            a key composed by one shard must mean the same thing in
            every other.
        router: the key-space partitioning.

    It holds the shared geometry once (``grid``, ``partitioner``,
    ``store``, ``codec``, ``records``, the speed maxima) and the
    scheduler :attr:`io`.  On :class:`repro.simio.disk.TimedDisk`
    shards (see :meth:`build`'s ``latency``), independent per-shard
    work (scatter prefetch, update sweeps) *overlaps in virtual time*.
    """

    def __init__(
        self,
        trees: Sequence[PEBTree],
        router: ShardRouter,
        fault_policy: RetryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
    ):
        if len(trees) != router.n_shards:
            raise ValueError(
                f"router expects {router.n_shards} shards, got {len(trees)} trees"
            )
        first = trees[0]
        for tree in trees[1:]:
            if (
                tree.store is not first.store
                or tree.grid is not first.grid
                or tree.partitioner is not first.partitioner
                or tree.codec != first.codec
            ):
                raise ValueError(
                    "shard trees must share store, grid, partitioner, and codec"
                )
        if first.codec != router.codec:
            raise ValueError("router codec differs from the shard trees' codec")
        self.trees = tuple(trees)
        self.router = router
        self.grid = first.grid
        self.partitioner = first.partitioner
        self.store = first.store
        self.codec = first.codec
        self.records = first.records
        #: Greatest |vx| and |vy| the deployment has seen (Figure 2 input).
        self.max_speed_x = max(tree.max_speed_x for tree in self.trees)
        self.max_speed_y = max(tree.max_speed_y for tree in self.trees)
        self._time_on(tree.btree.pool.disk for tree in self.trees)
        self.io = IOScheduler(self.sim_clock)
        self._stats = merge_stats(
            (tree.btree.pool.stats for tree in self.trees), latency=self.latency_stats
        )
        # Fault tolerance is opt-in: without a supervisor every path —
        # including physical I/O patterns — is byte-identical to the
        # pre-fault-layer deployment.
        self.supervisor: ShardSupervisor | None = None
        if fault_policy is not None or breaker_policy is not None:
            self.supervisor = ShardSupervisor(
                router.n_shards,
                retry=fault_policy,
                breaker=breaker_policy,
                clock=self.sim_clock,
            )
        #: Attached by :class:`repro.shard.recovery.ShardCheckpointer`.
        self.checkpointer = None
        #: The merged update memo: uid -> live key, whichever shard holds
        #: it.  Written wherever a shard's memo is (:meth:`insert`,
        #: :meth:`delete`, :meth:`update_batch`, and
        #: :meth:`reload_live_keys` after a shard is restored), so a
        #: lookup is one probe, not a route.
        self._live_keys: dict[int, int] = {}
        self.reload_live_keys()

    @classmethod
    def build(
        cls,
        n_shards: int,
        grid: "Grid",
        partitioner: "TimePartitioner",
        store: "PolicyStore",
        uids: Iterable[int],
        page_size: int = 4096,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        buffer_policy: str = "lru",
        sv_bits: int = DEFAULT_SV_BITS,
        sv_scale: int | None = None,
        latency: "LatencyModel | str | None" = None,
        parallel_io: bool = False,
        disk_factory=None,
        fault_policy: RetryPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        clock: SimClock | None = None,
    ) -> "ShardedPEBTree":
        """An empty deployment: N fresh trees, each on its own disk.

        ``uids`` seeds the router's balance-aware boundaries (SV
        quantiles of the population); it does *not* insert anything.

        ``latency`` (a profile name — ``"hdd"`` / ``"ssd"`` /
        ``"nvme"`` — or a :class:`repro.simio.model.LatencyModel`)
        wraps every shard's disk in a
        :class:`repro.simio.disk.TimedDisk` on one shared
        :class:`repro.simio.clock.SimClock`, so per-shard work overlaps
        in virtual time.  ``disk_factory(shard) -> disk`` overrides the
        inner disk (fault-injection tests compose ``TimedDisk`` over a
        ``FaultyDisk`` this way); the timed wrapper still applies.

        ``fault_policy`` / ``breaker_policy`` attach a
        :class:`repro.fault.supervisor.ShardSupervisor` — retry with
        virtual-time backoff at every per-shard job boundary plus a
        circuit breaker per shard; without them (the default) fault
        handling is absent and behavior is byte-identical to earlier
        builds.  ``clock`` shares an existing
        :class:`repro.simio.clock.SimClock` (so a
        :class:`repro.storage.faults.FaultWindowSchedule` can watch the
        same timeline a ``disk_factory`` disk faults on); a fresh clock
        is created otherwise.  ``parallel_io`` is accepted and ignored —
        per-shard jobs always run inline on the virtual fork/join; it
        stays only because ``perf/workloads.py`` still passes it, and
        goes when that call does.

        ``sv_scale`` defaults to the one :class:`PEBTree` derives from
        the store, derived once here for the router and every shard.
        """
        if sv_scale is None:
            sv_scale = derive_sv_scale(store.max_sequence_value(), sv_bits)
        codec = PEBKeyCodec(
            tid_count=partitioner.num_partitions,
            sv_bits=sv_bits,
            zv_bits=grid.zv_bits,
            sv_scale=sv_scale,
        )
        router = ShardRouter.for_store(n_shards, codec, store, uids)
        model = make_latency_model(latency) if latency is not None else None
        if model is not None and clock is None:
            clock = SimClock()

        def make_disk(shard: int):
            disk = (
                disk_factory(shard)
                if disk_factory is not None
                else SimulatedDisk(page_size=page_size)
            )
            if model is not None:
                disk = TimedDisk(disk, clock, model, name=f"shard{shard}")
            return disk

        trees = [
            PEBTree(
                BufferPool(
                    make_disk(shard),
                    capacity=buffer_pages,
                    policy=buffer_policy,
                ),
                grid,
                partitioner,
                store,
                sv_bits=sv_bits,
                sv_scale=sv_scale,
            )
            for shard in range(n_shards)
        ]
        return cls(
            trees,
            router,
            fault_policy=fault_policy,
            breaker_policy=breaker_policy,
        )

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    @property
    def pools(self) -> tuple[BufferPool, ...]:
        """Every shard's buffer pool, in router order."""
        return tuple(tree.btree.pool for tree in self.trees)

    @property
    def stats(self) -> StatsView:
        """One live merged I/O counter view over every shard's pool."""
        return self._stats

    def shard_stats(self) -> ShardStats:
        """Point-in-time per-shard entry, leaf and I/O breakdown."""
        return ShardStats(
            entries=tuple(len(tree) for tree in self.trees),
            physical_reads=tuple(tree.stats.physical_reads for tree in self.trees),
            physical_writes=tuple(tree.stats.physical_writes for tree in self.trees),
            leaves=tuple(tree.btree.leaf_count for tree in self.trees),
            leaf_capacity=self.trees[0].btree.config.leaf_capacity,
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def live_key(self, uid: int) -> int | None:
        """The user's live key from the merged update memo, or None."""
        return self._live_keys.get(uid)

    def live_keys_of(self, uids: Iterable[int]) -> Iterator[int | None]:
        """:meth:`live_key` of each uid in turn: one merged-memo probe
        each, and no Python call per uid."""
        return map(self._live_keys.get, uids)

    def contains(self, uid: int) -> bool:
        return uid in self._live_keys

    def __len__(self) -> int:
        return sum(len(tree) for tree in self.trees)

    def live_keys(self) -> dict[int, int]:
        """A copy of the merged update memo (uid -> current key)."""
        return dict(self._live_keys)

    def reload_live_keys(self) -> None:
        """Rebuild the merged memo from the shards' memos: for a shard
        whose memo was written behind the facade (a checkpoint restore,
        a replay through the shard tree itself)."""
        self._live_keys.clear()
        for tree in self.trees:
            self._live_keys.update(tree._live_keys)

    def key_for(self, obj: MovingObject) -> int:
        """The PEB-key for the object's current state (Equation 5)."""
        return self.trees[0].key_for(obj)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj: MovingObject, pntp: int = 0) -> None:
        """Index a user's state in its key's owning shard."""
        if obj.uid in self._live_keys:
            raise KeyError(f"user {obj.uid} is already indexed; use update()")
        key = self.key_for(obj)
        self.trees[self.router.shard_of_key(key)]._insert_at(key, obj, pntp)
        self._live_keys[obj.uid] = key
        self.max_speed_x = max(self.max_speed_x, abs(obj.vx))
        self.max_speed_y = max(self.max_speed_y, abs(obj.vy))

    def delete(self, uid: int) -> bool:
        """Remove a user's entry; True if the user was indexed."""
        key = self._live_keys.pop(uid, None)
        return key is not None and self.trees[self.router.shard_of_key(key)].delete(uid)

    def update(self, obj: MovingObject, pntp: int = 0) -> None:
        """Replace a user's entry (single-state batch; same semantics)."""
        self.update_batch([(obj, pntp)])

    def update_batch(self, updates: Iterable[UpdateItem]) -> BatchUpdateResult:
        """Apply a buffer of updates as per-shard leaf-ordered sweeps.

        The classification and the sorted op run come from the same
        :func:`repro.core.peb_tree.plan_update_batch` the single tree
        uses, over the deployment's merged live-key memo.  The final hop
        differs: the globally sorted run is cut at shard-key boundaries
        (:meth:`ShardRouter.split_sorted_run`, order preserved, no
        re-sort) and each cut is applied by one
        :meth:`repro.btree.BPlusTree.apply_sorted_batch` call, one job
        per involved shard through the deployment's
        :class:`repro.simio.scheduler.IOScheduler` — within a shard the
        rewrites and deletes sweep before the inserts, as on the single
        tree, and different shards' jobs touch disjoint trees and pools,
        so they overlap in virtual time.  The merged
        result and the final ``fetch_all`` state are observationally
        identical to a single tree applying the same buffer.

        A user's shard is fixed by its sequence value, so every move is
        shard-local and nothing ever migrates.  That is a checked
        precondition: each user's shard is read off the cut run (every
        op is routed once), and if a moved user's new key routes to
        another shard than its live key (its SV was re-assigned across
        a router boundary under the live deployment) the batch raises
        :class:`ValueError` before any shard is touched.

        With a :attr:`supervisor` attached, each shard's sweep becomes
        an independently retryable job: the sweep runs inside the
        pool's sweep guard (all-or-nothing at the shard granularity),
        retryable faults back off in virtual time and re-run, and a
        shard that exhausts its retries is quarantined — its updates
        come back in :attr:`BatchUpdateResult.deferred` (for
        re-buffering) while every other shard's sweep lands normally.
        """
        updates = list(updates)
        live_keys = self._live_keys
        plan = plan_update_batch(
            updates,
            live_keys.get,
            self.key_for,
            self.records.pack,
            self.max_speed_x,
            self.max_speed_y,
        )
        result = plan.result
        runs = self.router.split_sorted_run(plan.ops)
        # The cut routes every op once.  A user whose ops land in two
        # shards moved across a boundary: its live key was composed
        # under an SV since re-assigned into another shard's range.
        shard_of_uid: dict[int, int] = {}
        for shard, run in runs:
            uids = dict.fromkeys(map(itemgetter(2), run), shard)
            if not shard_of_uid.keys().isdisjoint(uids):
                uid = min(shard_of_uid.keys() & uids.keys())
                raise ValueError(
                    f"user {uid}'s live key and new key route to two "
                    f"shards ({shard_of_uid[uid]} and {shard}): a user's "
                    "sequence value may not cross a shard boundary"
                )
            shard_of_uid.update(uids)
        runs = dict(runs)

        if self.supervisor is None:
            self._apply_runs(result, runs)
            dead: set[int] = set()
        else:
            dead = self._apply_runs_supervised(
                updates, plan, shard_of_uid, result, runs
            )

        for uid, new_key in plan.new_keys.items():
            shard = shard_of_uid[uid]
            if shard not in dead:  # a deferred user keeps its pre-batch key
                self.trees[shard]._live_keys[uid] = new_key
                live_keys[uid] = new_key
        self.max_speed_x = plan.max_vx
        self.max_speed_y = plan.max_vy
        for tree in self.trees:
            # Raised to the deployment-wide bound so each shard stays
            # individually consistent (larger maxima are always safe).
            tree.max_speed_x = max(tree.max_speed_x, plan.max_vx)
            tree.max_speed_y = max(tree.max_speed_y, plan.max_vy)
        return result

    def _apply_runs(self, result, runs) -> None:
        """The unsupervised application path (no fault handling)."""

        def sweep(shard: int) -> int:
            return self.trees[shard].btree.apply_sorted_batch(runs[shard]).leaves_visited

        shards = sorted(runs)
        jobs = [(lambda shard=shard: sweep(shard)) for shard in shards]
        visits, _ = self.io.run_timed(
            jobs,
            recorder=self.recorder,
            span_name="update.sweep",
            labels=[f"shard{shard}" for shard in shards],
            category="device",
        )
        for visited in visits:
            result.leaves_visited += visited

    def _apply_runs_supervised(
        self, updates, plan, shard_of_uid, result, runs
    ) -> set[int]:
        """Per-shard guarded, retried sweeps; returns the dead shards.

        A dead shard (quarantined before the batch, or newly
        quarantined by retry exhaustion inside it) contributes nothing:
        the sweep guard rolled its pool and B+-tree back to the
        pre-batch state, and its updates land in ``result.deferred``
        with the result counters decremented to match what was applied.
        """
        supervisor = self.supervisor
        sweep_states: dict[int, dict] = {}

        def make_job(shard: int):
            tree = self.trees[shard].btree
            pool = tree.pool
            state = sweep_states.setdefault(shard, {"visited": None})

            def job() -> int:
                if state["visited"] is not None:
                    # This batch's sweep already applied on an earlier
                    # attempt; only the commit write-back faulted.
                    pool.commit_sweep_guard()
                    return state["visited"]
                if pool.guard_active:
                    # A *previous* batch's commit faulted past its retry
                    # budget; its frames hold that batch fully applied.
                    # Complete the outstanding write-back first.
                    pool.commit_sweep_guard()
                pool.flush()
                pool.begin_sweep_guard()
                meta = (
                    tree.root_id,
                    tree.first_leaf_id,
                    tree.height,
                    tree.entry_count,
                    tree.leaf_count,
                )
                try:
                    visited = tree.apply_sorted_batch(runs[shard]).leaves_visited
                except BaseException:
                    pool.rollback_sweep_guard()
                    (
                        tree.root_id,
                        tree.first_leaf_id,
                        tree.height,
                        tree.entry_count,
                        tree.leaf_count,
                    ) = meta
                    raise
                state["visited"] = visited
                pool.commit_sweep_guard()
                return visited

            return job

        shards = sorted(runs)
        denied = {shard for shard in shards if not supervisor.admits(shard)}
        active = [shard for shard in shards if shard not in denied]
        jobs = [
            (lambda shard=shard, job=make_job(shard): (shard, *supervisor.run(shard, job)))
            for shard in active
        ]
        dead = set(denied)
        outcomes, _ = self.io.run_timed(
            jobs,
            recorder=self.recorder,
            span_name="update.sweep",
            labels=[f"shard{shard}" for shard in active],
            category="device",
        )
        for shard, ok, visited in outcomes:
            if ok:
                result.leaves_visited += visited
            elif sweep_states[shard]["visited"] is not None:
                # The sweep landed in the pool; only the durable commit
                # write-back is outstanding (the guard stays active and a
                # later job on this shard resumes it).  Logically the
                # batch applied — count it and keep the memo updates.
                result.leaves_visited += sweep_states[shard]["visited"]
            else:
                dead.add(shard)

        if dead:
            last_item: dict[int, UpdateItem] = {}
            for item in updates:
                obj = item[0] if isinstance(item, tuple) else item
                last_item[obj.uid] = item
            for uid, new_key in plan.new_keys.items():
                if shard_of_uid[uid] not in dead:
                    continue
                result.deferred.append(last_item[uid])
                result.ops -= 1
                old_key = plan.old_keys[uid]
                if old_key is None:
                    result.inserted -= 1
                elif old_key == new_key:
                    result.in_place -= 1
                else:
                    result.moved -= 1
            supervisor.note_deferred_updates(len(result.deferred))
        if self.checkpointer is not None:
            applied: dict[int, list[UpdateItem]] = {}
            for item in updates:
                uid = (item[0] if isinstance(item, tuple) else item).uid
                shard = shard_of_uid[uid]
                if shard not in dead:
                    applied.setdefault(shard, []).append(item)
            for shard in sorted(applied):
                self.checkpointer.log_applied(shard, applied[shard])
        return dead

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def new_scanner(self) -> ShardScatterScanner:
        """The deployment's reader: one scatter/gather deduplication scope."""
        return ShardScatterScanner(self)

    def items(self):
        """Every ``(key, uid, payload)`` entry merged in global key order."""
        return heapq.merge(
            *(tree.btree.items() for tree in self.trees),
            key=lambda entry: (entry[0], entry[1]),
        )

    def fetch_all(self) -> list[MovingObject]:
        """Every indexed object state, in global key order.

        Each shard decodes its leaves in batched ``iter_unpack`` runs;
        the per-shard streams merge by composite key, so no entry pays
        a per-payload unpack or a discarded ``(obj, pntp)`` tuple.
        """

        def shard_entries(tree):
            unpack_many = tree.records.unpack_many
            for keys, run in tree.btree.leaf_runs():
                yield from zip(keys, (obj for obj, _ in unpack_many(keys, run)))

        merged = heapq.merge(
            *(shard_entries(tree) for tree in self.trees),
            key=lambda entry: entry[0],
        )
        return [obj for _, obj in merged]

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------

    def check_consistency(self, repair: bool = False) -> list[str]:
        """Per-shard audits plus cross-shard ownership checks, and the
        merged memo against the shards' memos."""
        problems: list[str] = []
        for shard, tree in enumerate(self.trees):
            problems.extend(
                f"shard {shard}: {problem}"
                for problem in tree.check_consistency(repair=repair)
            )
        if repair:
            # The planner reads the deployment's maxima, not a shard's.
            for tree in self.trees:
                self.max_speed_x = max(self.max_speed_x, tree.max_speed_x)
                self.max_speed_y = max(self.max_speed_y, tree.max_speed_y)
        seen: dict[int, int] = {}
        for shard, tree in enumerate(self.trees):
            for uid, key in tree._live_keys.items():
                if uid in seen:
                    problems.append(
                        f"user {uid} owned by shards {seen[uid]} and {shard}"
                    )
                elif self.router.shard_of_key(key) != shard:
                    problems.append(
                        f"user {uid} lives in shard {shard} but key {key} "
                        f"routes to shard {self.router.shard_of_key(key)}"
                    )
                seen[uid] = shard
        for uid, shard in seen.items():
            key = self.trees[shard]._live_keys[uid]
            merged = self._live_keys.get(uid)
            if merged != key:
                problems.append(
                    f"user {uid} memoized as {key} in shard {shard} "
                    f"but as {merged} by the deployment"
                )
        for uid in self._live_keys.keys() - seen.keys():
            problems.append(f"user {uid} memoized by the deployment but by no shard")
        return problems

    def check_invariants(self) -> None:
        """Structural B+-tree invariants, every shard."""
        for tree in self.trees:
            tree.btree.check_invariants()


__all__ = ["ShardedPEBTree"]
