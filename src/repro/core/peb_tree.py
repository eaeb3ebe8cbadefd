"""The Policy-Embedded Bx-tree (Section 5.2).

A leaf entry is ``<PEB_key, UID, x, y, vx, vy, t, Pntp>``; the key packs
``[TID]2 ⊕ [SV]2 ⊕ [ZV]2`` so "users who have policies related to one
another will tend to be stored close to each other, which reduces the
cost of processing privacy-aware queries".

Insertion and deletion are plain B+-tree operations — "the PEB-tree has
similarly efficient update performance as the B+-tree" — with the same
in-memory update memo the Bx-tree keeps (uid -> current key) so an update
deletes exactly the stale entry.

Every served search range is a point ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕
ZV]`` at a friend's live key, so a batch reads the tree through
:meth:`PEBTree.get_many`, a lazy key multi-get: one descent per key, in
the order given, each result as packed columns.  A single query, the
Section 5.4 walk and the span ablation scan one search range at a time
(:meth:`PEBTree.scan_band_rows`), which also reports the Z-interval of
its stratum the scan proved.  The per-entry :meth:`PEBTree.scan_band`
is the paper-literal primitive: no engine path calls it, the tests pin
the rows to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.btree.tree import MAX_UID, BatchOp, BPlusTree, BTreeConfig
from repro.core.peb_key import DEFAULT_SV_BITS, PEBKeyCodec, derive_sv_scale
from repro.engine.deployment import Deployment, LiveState
from repro.engine.scanner import BandScanner
from repro.motion.objects import MovingObject, ObjectRecordCodec
from repro.motion.rows import BandRows
from repro.motion.partitions import LABEL_EPS, TimePartitioner
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
    live: LiveState,
    key_for: Callable[[MovingObject], int],
    pack: Callable[[MovingObject, int], bytes],
) -> BatchUpdatePlan:
    """Classify and sort one update buffer into one key-sorted op run.

    The buffer is deduplicated last-write-wins per user, then each
    surviving state is partitioned against the update memo ``live.keys``:
    same-key re-reports become in-place leaf rewrites, moved entries a
    delete at the old key plus an insert at the new one, unindexed
    users plain inserts.  The ops are sorted by ``(key, uid)``, and no
    two share that pair: a moved user's delete and insert sit at
    different keys.  :meth:`repro.btree.BPlusTree.apply_sorted_batch`
    runs the rewrites and deletes before the inserts.  The speed maxima
    (seeded with ``live``'s current bounds) are monotone safety
    bounds for the Figure 2 enlargements: even a state superseded
    within the batch raises them, exactly as sequential application
    would.
    """
    lookup_key = live.keys.get
    max_vx, max_vy = live.max_speed_x, live.max_speed_y
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
        self.live = LiveState()
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
        results.  Pass ``recompute_speeds=True`` to raise them to the
        indexed velocities (:meth:`check_consistency` with ``repair``,
        one full leaf-chain read), or run that audit afterwards without
        the scan cost being mandatory.
        """
        tree = cls.__new__(cls)
        tree.grid = grid
        tree.partitioner = partitioner
        tree.store = store
        tree.codec = codec
        tree.records = ObjectRecordCodec()
        tree.btree = btree
        tree.live = LiveState(dict(live_keys), max_speed_x, max_speed_y)
        tree._time_on((btree.pool.disk,))
        if recompute_speeds:
            tree.check_consistency(repair=True)
        return tree

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj: MovingObject, pntp: int = 0) -> None:
        """Index a user's state as of its label timestamp."""
        if obj.uid in self.live.keys:
            raise KeyError(f"user {obj.uid} is already indexed; use update()")
        self._insert_at(self.key_for(obj), obj, pntp)

    def _insert_at(self, key: int, obj: MovingObject, pntp: int) -> None:
        """Index an unindexed user's state under its already computed
        key: the one insert path of :meth:`insert`, :meth:`update` and
        the sharded facade's ``insert``, none of which keys it twice."""
        self.btree.insert(key, obj.uid, self.records.pack(obj, pntp))
        live = self.live
        live.keys[obj.uid] = key
        live.max_speed_x = max(live.max_speed_x, abs(obj.vx))
        live.max_speed_y = max(live.max_speed_y, abs(obj.vy))

    def delete(self, uid: int) -> bool:
        """Remove a user's entry; True if the user was indexed."""
        key = self.live.keys.pop(uid, None)
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
        live = self.live
        old_key = live.keys.get(obj.uid)
        new_key = self.key_for(obj)
        if new_key == old_key:
            if not self.btree.replace(old_key, obj.uid, self.records.pack(obj, pntp)):
                raise RuntimeError(f"update memo out of sync for user {obj.uid}")
            live.max_speed_x = max(live.max_speed_x, abs(obj.vx))
            live.max_speed_y = max(live.max_speed_y, abs(obj.vy))
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
        live = self.live
        plan = plan_update_batch(updates, live, self.key_for, self.records.pack)
        plan.result.leaves_visited = self.btree.apply_sorted_batch(
            plan.ops
        ).leaves_visited
        live.keys.update(plan.new_keys)
        live.max_speed_x = plan.max_vx
        live.max_speed_y = plan.max_vy
        return plan.result

    def key_for(self, obj: MovingObject) -> int:
        """The PEB-key for the object's current state (Equation 5).

        One function, run once per indexed state: the label timestamp
        and its TID (Equation 2), the position at the label, its cell
        clamped into the grid and the cell's curve value, the quantized
        SV with the codec's range checks, and the three fields shifted
        into place per ``codec.layout`` (so the ZV-first ablation codec
        keys alike).  Equal, and refusing alike, to composing
        ``partitioner.label_timestamp``, ``partition_of_label``,
        ``obj.position_at``, ``grid.z_value``, ``store.sequence_value``
        and ``codec.compose``.
        """
        partitioner = self.partitioner
        phase = partitioner.max_update_interval / partitioner.n
        shifted = obj.t_update / phase + 1.0
        index = int(shifted)
        if shifted - index > LABEL_EPS:
            index += 1
        label = index * phase
        tid = (round(label / phase) - 1) % (partitioner.n + 1)
        dt = label - obj.t_update
        x = obj.x + obj.vx * dt
        y = obj.y + obj.vy * dt
        grid = self.grid
        side = grid.space_side
        top = grid.cells_per_axis - 1
        if x <= 0.0:
            ix = 0
        elif x >= side:
            ix = top
        else:
            ix = min(int(x / grid.cell_size), top)
        if y <= 0.0:
            iy = 0
        elif y >= side:
            iy = top
        else:
            iy = min(int(y / grid.cell_size), top)
        zv = grid.curve.encode(ix, iy, grid.bits)
        sv = self.store.sequence_value(obj.uid)
        codec = self.codec
        if sv < 0:
            raise ValueError(f"sequence values must be non-negative, got {sv}")
        sv_q = round(sv * codec.sv_scale)
        if sv_q.bit_length() > codec.sv_bits:
            raise ValueError(
                f"sequence value {sv} does not fit in {codec.sv_bits} bits "
                f"at scale {codec.sv_scale}"
            )
        if tid >= codec.tid_count or zv.bit_length() > codec.zv_bits:
            # A codec narrower than the partitioner or the grid: let
            # compose name the field.
            return codec.compose_quantized(tid, sv_q, zv)
        tid_shift, sv_shift, _, zv_shift, _ = codec.layout
        return tid << tid_shift | sv_q << sv_shift | zv << zv_shift

    @property
    def trees(self) -> tuple["PEBTree"]:
        """A lone tree is its own single shard."""
        return (self,)

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

        A single-SV band on the SV-major layout also reports how much
        of its ``(tid, sv_q)`` stratum the scan *proved*
        (:attr:`BandRows.proven`): the stratum is key-contiguous and
        ordered by ZV, so the entries the touched leaves hold just
        below and just above the band
        (:meth:`repro.btree.BPlusTree.scan_fenced`) bound an interval
        that contains exactly the returned rows.  The upper bracket may
        instead be the landing leaf's upper separator (the scan stops
        there rather than read the next leaf): no entry lies between
        the band and it, and every entry right of it is at least it, so
        a proof ending just below it is sound, if shorter than the true
        successor would allow.  A bracket in another stratum (or past
        either end of the leaf chain) extends the proof to the
        stratum's edge; a band that starts on a leaf edge proves
        nothing below what was asked, and an empty ``z_lo > z_hi`` band
        proves nothing.  A multi-SV span (the Figure 7 ablation) is not
        one stratum, and on the ZV-first ablation layout a stratum is
        not key-contiguous: neither reports a proof.
        """
        compose = self.codec.compose_quantized
        lo = compose(tid, sv_lo_q, z_lo)
        hi = compose(tid, sv_hi_q, z_hi)
        if sv_lo_q != sv_hi_q:
            return self._decode(self.btree.scan_chunks((lo, 0), (hi, MAX_UID)))
        chunks, below, above = self.btree.scan_fenced((lo, 0), (hi, MAX_UID))
        rows = self._decode(chunks) if chunks else BandRows.empty()
        if self.codec.sv_major and above is not None:
            stratum_lo = lo - z_lo
            stratum_end = stratum_lo + (1 << self.codec.zv_bits)
            if below is not None:
                z_lo = below[0] - stratum_lo + 1 if below[0] >= stratum_lo else 0
            end = above[0] if above[0] < stratum_end else stratum_end
            rows.proven = (z_lo, end - stratum_lo - 1)
        return rows

    def get_many(self, keys: Iterable[int]) -> Iterator[BandRows]:
        """The entries at each of many keys: one :class:`BandRows` per key.

        Each key is one point search range ``[TID ⊕ SV ⊕ ZV ; TID ⊕ SV ⊕
        ZV]`` (raw-tie twins share one), fetched in the order given from
        the root: the page touches and their order are those of one
        :meth:`scan_band_rows` call per key — one descent, and the next
        leaf only where :meth:`repro.btree.BPlusTree.scan_fenced` reads
        it — but no fence proof is derived.  Lazy: a key is fetched when
        its result is pulled, so the consumer keeps each result as it
        arrives and a disk fault at key *k* leaves exactly keys ``< k``
        fetched.
        """
        scan_fenced = self.btree.scan_fenced
        decode = self._decode
        empty = BandRows.empty
        for key in keys:
            chunks = scan_fenced((key, 0), (key, MAX_UID))[0]
            yield decode(chunks) if chunks else empty()

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
