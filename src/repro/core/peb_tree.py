"""The Policy-Embedded Bx-tree (Section 5.2).

A leaf entry is ``<PEB_key, UID, x, y, vx, vy, t, Pntp>``; the key packs
``[TID]2 ⊕ [SV]2 ⊕ [ZV]2`` so "users who have policies related to one
another will tend to be stored close to each other, which reduces the
cost of processing privacy-aware queries".

Insertion and deletion are plain B+-tree operations — "the PEB-tree has
similarly efficient update performance as the B+-tree" — with the same
in-memory update memo the Bx-tree keeps (uid -> current key) so an update
deletes exactly the stale entry.

Queries read the tree through :meth:`PEBTree.scan_bands_rows`, a lazy
sweep that answers many single-SV search ranges
``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]`` in one call — a batch prefetch
hands it every band of a shard job — returning each as packed columns
together with the Z-interval of the stratum the scan proved
(:meth:`PEBTree.scan_band_rows` is its one-band form).  The per-entry
:meth:`PEBTree.scan_band` is the paper-literal primitive: no engine
path calls it, the tests pin the rows to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.btree.tree import MAX_UID, BatchOp, BPlusTree, BTreeConfig
from repro.core.peb_key import DEFAULT_SV_BITS, PEBKeyCodec, derive_sv_scale
from repro.engine.deployment import Deployment
from repro.engine.scanner import BandScanner
from repro.motion.objects import MovingObject, ObjectRecordCodec
from repro.motion.rows import BandRows
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool

#: One buffered update: a bare object state, or ``(state, pntp)``.
UpdateItem = MovingObject | tuple[MovingObject, int]


@dataclass
class BatchUpdateResult:
    """Outcome of one :meth:`PEBTree.update_batch` call.

    ``descents_saved`` is the amortization headline: sequential
    application pays one root-to-leaf descent per op (two per moved
    entry — delete plus insert), the batch pays one leaf visit per
    *leaf*, however many ops land in it.
    """

    ops: int = 0
    in_place: int = 0
    moved: int = 0
    inserted: int = 0
    leaves_visited: int = 0
    #: Updates NOT applied because their shard was quarantined (the
    #: original :data:`UpdateItem` values, for re-buffering); the
    #: counters above exclude them.
    deferred: list = field(default_factory=list)

    @property
    def sequential_descents(self) -> int:
        """Descents the same updates cost applied one at a time."""
        return self.in_place + 2 * self.moved + self.inserted

    @property
    def descents_saved(self) -> int:
        return max(0, self.sequential_descents - self.leaves_visited)


@dataclass
class BatchUpdatePlan:
    """The classified, key-sorted schedule of one update buffer.

    Produced by :func:`plan_update_batch` and consumed by
    :meth:`PEBTree.update_batch` (one sorted run over one tree) and the
    sharded facade (the same run cut at shard-key boundaries) —
    classification lives in exactly one place so the two application
    paths cannot drift.
    """

    result: BatchUpdateResult
    #: Every op of the flush, strictly ascending by ``(key, uid)``.
    ops: list[BatchOp] = field(default_factory=list)
    #: uid -> key the user's entry ends at.
    new_keys: dict[int, int] = field(default_factory=dict)
    #: uid -> key the user's entry started at (None for first inserts).
    old_keys: dict[int, "int | None"] = field(default_factory=dict)
    max_vx: float = 0.0
    max_vy: float = 0.0


def plan_update_batch(
    updates: Iterable[UpdateItem],
    lookup_key: Callable[[int], "int | None"],
    key_for: Callable[[MovingObject], int],
    pack: Callable[[MovingObject, int], bytes],
    max_vx: float,
    max_vy: float,
) -> BatchUpdatePlan:
    """Classify and sort one update buffer into one key-sorted op run.

    The buffer is deduplicated last-write-wins per user, then each
    surviving state is partitioned against the live-key ``lookup_key``:
    same-key re-reports become in-place leaf rewrites, moved entries a
    delete at the old key plus an insert at the new one, unindexed
    users plain inserts.  The ops are sorted by ``(key, uid)``, and no
    two share that pair: a moved user's delete and insert sit at
    different keys.  :meth:`repro.btree.BPlusTree.apply_sorted_batch`
    runs the rewrites and deletes before the inserts.  The speed maxima
    (seeded with the caller's current bounds) are monotone safety
    bounds for the Figure 2 enlargements: even a state superseded
    within the batch raises them, exactly as sequential application
    would.
    """
    latest: dict[int, tuple[MovingObject, int]] = {}
    for item in updates:
        if isinstance(item, MovingObject):
            obj, pntp = item, 0
        else:
            obj, pntp = item
        latest[obj.uid] = (obj, pntp)
        max_vx = max(max_vx, abs(obj.vx))
        max_vy = max(max_vy, abs(obj.vy))

    plan = BatchUpdatePlan(
        result=BatchUpdateResult(ops=len(latest)), max_vx=max_vx, max_vy=max_vy
    )
    for uid, (obj, pntp) in latest.items():
        old_key = lookup_key(uid)
        new_key = key_for(obj)
        payload = pack(obj, pntp)
        if old_key is None:
            plan.ops.append(("insert", new_key, uid, payload))
            plan.result.inserted += 1
        elif new_key == old_key:
            plan.ops.append(("replace", old_key, uid, payload))
            plan.result.in_place += 1
        else:
            plan.ops.append(("delete", old_key, uid, None))
            plan.ops.append(("insert", new_key, uid, payload))
            plan.result.moved += 1
        plan.new_keys[uid] = new_key
        plan.old_keys[uid] = old_key

    plan.ops.sort(key=lambda op: (op[1], op[2]))
    return plan


class PEBTree(Deployment):
    """Moving-object index over PEB-keys: the one-shard deployment
    (no router, scheduler or supervisor).

    Args:
        pool: buffer pool (and disk) this index owns.
        grid: space grid for the Z-curve mapping.
        partitioner: time partitioning (Δt_mu and n).
        store: policy directory; must already carry the sequence values
            produced by :func:`repro.core.sequencing.assign_sequence_values`.
        sv_bits, sv_scale: sequence-value packing parameters; the scale
            defaults to :func:`repro.core.peb_key.derive_sv_scale` of the
            store's largest SV, so each raw SV is a stratum of its own.
    """

    def __init__(
        self,
        pool: BufferPool,
        grid: Grid,
        partitioner: TimePartitioner,
        store: PolicyStore,
        sv_bits: int = DEFAULT_SV_BITS,
        sv_scale: int | None = None,
    ):
        if sv_scale is None:
            sv_scale = derive_sv_scale(store.max_sequence_value(), sv_bits)
        self.grid = grid
        self.partitioner = partitioner
        self.store = store
        self.codec = PEBKeyCodec(
            tid_count=partitioner.num_partitions,
            sv_bits=sv_bits,
            zv_bits=grid.zv_bits,
            sv_scale=sv_scale,
        )
        self.records = ObjectRecordCodec()
        config = BTreeConfig(
            key_bytes=self.codec.key_bytes,
            value_bytes=ObjectRecordCodec.SIZE,
            page_size=pool.disk.page_size,
        )
        self.btree = BPlusTree(pool, config)
        self._live_keys: dict[int, int] = {}
        self.max_speed_x = 0.0
        self.max_speed_y = 0.0
        self._time_on((pool.disk,))

    @classmethod
    def attach(
        cls,
        btree: BPlusTree,
        grid: Grid,
        partitioner: TimePartitioner,
        store: PolicyStore,
        codec: PEBKeyCodec,
        live_keys: dict[int, int],
        max_speed_x: float,
        max_speed_y: float,
        recompute_speeds: bool = False,
    ) -> "PEBTree":
        """Bind to an already-built index (the checkpoint-restore path).

        No pages are allocated; the supplied B+-tree, codec, and update
        memo are adopted verbatim.  See :mod:`repro.core.checkpoint`.

        The supplied speed maxima are a *correctness* input, not a mere
        statistic: query planning enlarges windows by them (Figure 2),
        so maxima smaller than any indexed velocity silently drop
        results.  Pass ``recompute_speeds=True`` to rescan the indexed
        entries and derive the maxima from them instead of trusting the
        caller's values (one full leaf-chain read), or run
        :meth:`check_consistency` afterwards to audit without the scan
        cost being mandatory.
        """
        tree = cls.__new__(cls)
        tree.grid = grid
        tree.partitioner = partitioner
        tree.store = store
        tree.codec = codec
        tree.records = ObjectRecordCodec()
        tree.btree = btree
        tree._live_keys = dict(live_keys)
        tree.max_speed_x = max_speed_x
        tree.max_speed_y = max_speed_y
        tree._time_on((btree.pool.disk,))
        if recompute_speeds:
            max_vx, max_vy = tree._scan_speed_maxima()
            tree.max_speed_x = max(tree.max_speed_x, max_vx)
            tree.max_speed_y = max(tree.max_speed_y, max_vy)
        return tree

    def _scan_speed_maxima(self) -> tuple[float, float]:
        """Greatest |vx| and |vy| among the indexed entries."""
        max_vx = max_vy = 0.0
        unpack_records = self.records.unpack_records
        for keys, run in self.btree.leaf_runs():
            for rec in unpack_records(keys, run):
                vx = abs(rec[3])
                vy = abs(rec[4])
                if vx > max_vx:
                    max_vx = vx
                if vy > max_vy:
                    max_vy = vy
        return max_vx, max_vy

    def check_consistency(self, repair: bool = False) -> list[str]:
        """Audit the memo and speed maxima against the index itself.

        Walks every leaf entry once and reports (as human-readable
        problem strings; empty list means consistent):

        * entries the ``_live_keys`` memo does not know, or knows under
          a different key;
        * memoized users with no entry in the tree;
        * speed maxima smaller than an indexed velocity — the stale-
          checkpoint hazard that silently shrinks the Figure 2 window
          enlargements and drops query results.

        With ``repair=True`` the speed maxima are raised to cover the
        indexed velocities (memo divergence is never auto-repaired —
        it means the index and its metadata are from different worlds).
        """
        problems: list[str] = []
        seen: dict[int, int] = {}
        max_vx = max_vy = 0.0
        unpack_records = self.records.unpack_records
        for keys, run in self.btree.leaf_runs():
            for (key, uid), rec in zip(keys, unpack_records(keys, run)):
                seen[uid] = key
                max_vx = max(max_vx, abs(rec[3]))
                max_vy = max(max_vy, abs(rec[4]))
        for uid, key in seen.items():
            memo_key = self._live_keys.get(uid)
            if memo_key is None:
                problems.append(f"entry for user {uid} missing from the memo")
            elif memo_key != key:
                problems.append(
                    f"user {uid} indexed under key {key} but memoized as {memo_key}"
                )
        for uid in self._live_keys.keys() - seen.keys():
            problems.append(f"memoized user {uid} has no index entry")
        if max_vx > self.max_speed_x:
            problems.append(
                f"max_speed_x={self.max_speed_x} below indexed |vx|={max_vx}"
            )
        if max_vy > self.max_speed_y:
            problems.append(
                f"max_speed_y={self.max_speed_y} below indexed |vy|={max_vy}"
            )
        if repair:
            self.max_speed_x = max(self.max_speed_x, max_vx)
            self.max_speed_y = max(self.max_speed_y, max_vy)
        return problems

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj: MovingObject, pntp: int = 0) -> None:
        """Index a user's state as of its label timestamp."""
        if obj.uid in self._live_keys:
            raise KeyError(f"user {obj.uid} is already indexed; use update()")
        self._insert_at(self.key_for(obj), obj, pntp)

    def _insert_at(self, key: int, obj: MovingObject, pntp: int) -> None:
        """Index an unindexed user's state under its already computed
        key: the one insert path of :meth:`insert`, :meth:`update` and
        the sharded facade's ``insert``, none of which keys it twice."""
        self.btree.insert(key, obj.uid, self.records.pack(obj, pntp))
        self._live_keys[obj.uid] = key
        self.max_speed_x = max(self.max_speed_x, abs(obj.vx))
        self.max_speed_y = max(self.max_speed_y, abs(obj.vy))

    def delete(self, uid: int) -> bool:
        """Remove a user's entry; True if the user was indexed."""
        key = self._live_keys.pop(uid, None)
        if key is None:
            return False
        removed = self.btree.delete(key, uid)
        if not removed:
            raise RuntimeError(f"update memo out of sync for user {uid}")
        return True

    def update(self, obj: MovingObject, pntp: int = 0) -> None:
        """Replace a user's entry with a new state.

        The new PEB-key is computed once.  When it equals the memoized
        live key — the user re-reported from the same grid cell within
        the same time partition, a common case for slow or stationary
        users — the leaf payload is rewritten in place: one descent, no
        structural delete/reinsert, no rebalancing.  Otherwise the entry
        moves: a delete at the live key and an insert at the new one
        (an unindexed user is only inserted).
        """
        old_key = self._live_keys.get(obj.uid)
        new_key = self.key_for(obj)
        if new_key == old_key:
            if not self.btree.replace(old_key, obj.uid, self.records.pack(obj, pntp)):
                raise RuntimeError(f"update memo out of sync for user {obj.uid}")
            self.max_speed_x = max(self.max_speed_x, abs(obj.vx))
            self.max_speed_y = max(self.max_speed_y, abs(obj.vy))
            return
        if old_key is not None:
            self.delete(obj.uid)
        self._insert_at(new_key, obj, pntp)

    def update_batch(self, updates: Iterable[UpdateItem]) -> BatchUpdateResult:
        """Apply a buffer of updates as one key-sorted run of tree ops.

        Args:
            updates: object states, or ``(state, pntp)`` pairs.  When a
                user appears more than once, the last state wins (the
                buffer semantics of a server's update queue).

        The schedule comes from :func:`plan_update_batch` (shared with
        the sharded facade): same-key re-reports become in-place leaf
        rewrites, moved entries a delete at the old key plus an insert
        at the new one, unindexed users plain inserts, all sorted by key.
        The run feeds :meth:`repro.btree.BPlusTree.apply_sorted_batch`,
        which validates it whole, then sweeps the rewrites and deletes
        and then the inserts, applying every op landing in the same
        leaf during a single visit — one descent and at most one split
        or rebalance per *leaf* instead of per *op*.  The final index
        is observationally identical to calling :meth:`update` once per
        buffered state, in any order.
        """
        plan = plan_update_batch(
            updates,
            self._live_keys.get,
            self.key_for,
            self.records.pack,
            self.max_speed_x,
            self.max_speed_y,
        )
        plan.result.leaves_visited = self.btree.apply_sorted_batch(
            plan.ops
        ).leaves_visited
        self._live_keys.update(plan.new_keys)
        self.max_speed_x = plan.max_vx
        self.max_speed_y = plan.max_vy
        return plan.result

    def key_for(self, obj: MovingObject) -> int:
        """The PEB-key for the object's current state (Equation 5)."""
        label = self.partitioner.label_timestamp(obj.t_update)
        tid = self.partitioner.partition_of_label(label)
        x, y = obj.position_at(label)
        zv = self.grid.z_value(x, y)
        sv = self.store.sequence_value(obj.uid)
        return self.codec.compose(tid, sv, zv)

    def live_key(self, uid: int) -> int | None:
        """The user's live key from the update memo, or None."""
        return self._live_keys.get(uid)

    def live_keys_of(self, uids: Iterable[int]) -> Iterator[int | None]:
        """:meth:`live_key` of each uid in turn: one memo probe each, and
        no Python call per uid (a plan probes a whole policy row)."""
        return map(self._live_keys.get, uids)

    def contains(self, uid: int) -> bool:
        return uid in self._live_keys

    def __len__(self) -> int:
        return len(self._live_keys)

    @property
    def stats(self):
        """I/O counters of the underlying disk."""
        return self.btree.pool.stats

    def fetch_all(self) -> list[MovingObject]:
        """Every indexed object state (diagnostic full scan).

        Decodes each leaf's payload run in one ``iter_unpack`` pass —
        no per-entry unpack or ``(obj, pntp)`` tuple allocations.
        """
        unpack_many = self.records.unpack_many
        out: list[MovingObject] = []
        for keys, run in self.btree.leaf_runs():
            out.extend(obj for obj, _ in unpack_many(keys, run))
        return out

    # ------------------------------------------------------------------
    # Scan primitives shared by the query engine
    # ------------------------------------------------------------------

    def new_scanner(self) -> BandScanner:
        """The tree's reader: one :class:`BandScanner` deduplication scope."""
        return BandScanner(self)

    def scan_band(self, tid: int, sv_lo_q: int, sv_hi_q: int, z_lo: int, z_hi: int):
        """Yield ``(zv, object)`` for one key-contiguous band.

        The generalized search range
        ``[TID ⊕ SV_lo ⊕ ZV_lo ; TID ⊕ SV_hi ⊕ ZV_hi]`` over *quantized*
        sequence-value bounds: equal bounds give the per-friend ranges
        of Section 5.3, distinct bounds the coarse whole-friend-list
        span of Figure 7's pseudo-code.  One ``struct.unpack`` and one
        :class:`MovingObject` per entry: what :meth:`scan_band_rows`
        must equal row for row, and what nothing in the engine calls.
        """
        lo = self.codec.compose_quantized(tid, sv_lo_q, z_lo)
        hi = self.codec.compose_quantized(tid, sv_hi_q, z_hi)
        unpack = self.records.unpack
        zv_of = self.codec.zv_of
        for key, uid, payload in self.btree.scan_range(lo, hi):
            yield zv_of(key), unpack(uid, payload)[0]

    def scan_band_rows(
        self, tid: int, sv_lo_q: int, sv_hi_q: int, z_lo: int, z_hi: int
    ) -> BandRows:
        """One band as packed columns (:class:`repro.motion.rows.BandRows`).

        The entries, order and page traffic of :meth:`scan_band` (both
        walk the identical leaf chain), but decoded per leaf run — one
        masked comprehension extracts the ZV column from each key
        slice, one ``struct.iter_unpack`` pass decodes the payload run
        — and the returned rows materialize :class:`MovingObject`
        states lazily, only for entries a consumer actually touches.

        A single-SV band is :meth:`scan_bands_rows` over that one band,
        fence proof included — what the engine's on-demand scans call;
        a batch prefetch hands the sweep a whole shard job instead.  A
        multi-SV span (the Figure 7 ablation) is not one stratum and
        reports no proof.
        """
        if sv_lo_q == sv_hi_q:
            return next(self.scan_bands_rows(((tid, sv_lo_q, z_lo, z_hi),)))
        lo = self.codec.compose_quantized(tid, sv_lo_q, z_lo)
        hi = self.codec.compose_quantized(tid, sv_hi_q, z_hi)
        return self._decode(self.btree.scan_chunks((lo, 0), (hi, MAX_UID)))

    def scan_bands_rows(
        self, bands: Iterable[tuple[int, int, int, int]]
    ) -> Iterator[BandRows]:
        """Sweep many single-SV bands: one :class:`BandRows` per band.

        ``bands`` are ``(tid, sv_q, z_lo, z_hi)`` — one search range
        ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]`` of Section 5.3 each —
        and are scanned in the order given, each from the root through
        :meth:`repro.btree.BPlusTree.scan_fenced`: the rows, the page
        touches and their order are those of one :meth:`scan_band_rows`
        call per band.  What the sweep saves is the call chain — a
        shard job's hundred bands are one loop here instead of a
        hundred trips down from the scanner.

        Lazy: a band is scanned when its result is pulled, so the
        consumer accounts for each result as it arrives and a disk
        fault at band *k* leaves exactly bands ``< k`` scanned.

        On the SV-major layout each result also reports how much of its
        ``(tid, sv_q)`` stratum the scan *proved*
        (:attr:`BandRows.proven`): the stratum is key-contiguous and
        ordered by ZV, so the entries the touched leaves hold just
        below and just above the band bound an interval that contains
        exactly the returned rows.  The upper bracket may instead be
        the landing leaf's upper separator (the scan stops there rather
        than read the next leaf): no entry lies between the band and
        it, and every entry right of it is at least it, so a proof
        ending just below it is sound, if shorter than the true
        successor would allow.  A bracket in another stratum (or past
        either end of the leaf chain) extends the proof to the
        stratum's edge; a band that starts on a leaf edge proves
        nothing below what was asked, and an empty ``z_lo > z_hi`` band
        proves nothing.  On the ZV-first ablation layout a stratum is
        not key-contiguous and no proof is reported.
        """
        codec = self.codec
        compose = codec.compose_quantized
        scan_fenced = self.btree.scan_fenced
        decode = self._decode
        empty = BandRows.empty
        prove = codec.sv_major
        stratum_size = 1 << codec.zv_bits
        for tid, sv_q, z_lo, z_hi in bands:
            lo = compose(tid, sv_q, z_lo)
            hi = compose(tid, sv_q, z_hi)
            chunks, below, above = scan_fenced((lo, 0), (hi, MAX_UID))
            rows = decode(chunks) if chunks else empty()
            if prove and above is not None:
                stratum_lo = lo - z_lo
                stratum_end = stratum_lo + stratum_size
                if below is not None:
                    z_lo = below[0] - stratum_lo + 1 if below[0] >= stratum_lo else 0
                end = above[0] if above[0] < stratum_end else stratum_end
                rows.proven = (z_lo, end - stratum_lo - 1)
            yield rows

    def _decode(self, chunks: Iterable[tuple[list, bytes]]) -> BandRows:
        """Per-leaf ``(keys, payload run)`` chunks as one :class:`BandRows`."""
        zvs_of = self.codec.zvs_of
        unpack_records = self.records.unpack_records
        zvs: list[int] = []
        records: list[tuple] = []
        for keys, run in chunks:
            zvs += zvs_of(keys)
            records += unpack_records(keys, run)
        return BandRows(zvs, records)

    def scan_sv_zrange(self, tid: int, sv: float, z_lo: int, z_hi: int):
        """Yield object states with this exact (quantized) SV and a
        Z-value in ``[z_lo, z_hi]`` inside partition ``tid``.

        One search range of Section 5.3:
        ``[TID ⊕ SV ⊕ ZV_lo ; TID ⊕ SV ⊕ ZV_hi]``.  Decoded one leaf
        run at a time through the batched codec (still lazy per leaf).
        """
        sv_q = self.codec.quantize_sv(sv)
        lo = self.codec.compose_quantized(tid, sv_q, z_lo)
        hi = self.codec.compose_quantized(tid, sv_q, z_hi)
        unpack_many = self.records.unpack_many
        for keys, run in self.btree.scan_chunks((lo, 0), (hi, MAX_UID)):
            for obj, _ in unpack_many(keys, run):
                yield obj
