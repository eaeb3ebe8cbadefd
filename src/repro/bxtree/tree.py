"""The Bx-tree: a B+-tree of moving objects keyed by Bx-values.

"The Bx-tree inherits the B+-tree's efficiency of insertions and
deletions" (Section 2.1).  An update is a delete of the object's previous
entry followed by an insert under the key derived from the new state; the
tree keeps an in-memory *update memo* (uid -> current key) so deletes are
exact.  The memo models the object record a real server keeps per
subscriber and is charged no I/O — identically for the PEB-tree, so the
comparison stays fair.
"""

from __future__ import annotations

from repro.btree.tree import BPlusTree, BTreeConfig
from repro.bxtree.keys import BxKeyCodec
from repro.motion.objects import MovingObject, ObjectRecordCodec
from repro.motion.partitions import TimePartitioner
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool


class BxTree:
    """Moving-object index over Bx-values.

    Args:
        pool: buffer pool (and disk) this index owns.
        grid: space grid used for the Z-curve mapping.
        partitioner: time partitioning (Δt_mu and n).
    """

    def __init__(self, pool: BufferPool, grid: Grid, partitioner: TimePartitioner):
        self.grid = grid
        self.partitioner = partitioner
        self.codec = BxKeyCodec(partitioner.num_partitions, grid.zv_bits)
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

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, obj: MovingObject, pntp: int = 0) -> None:
        """Index an object state as of its label timestamp."""
        if obj.uid in self._live_keys:
            raise KeyError(f"user {obj.uid} is already indexed; use update()")
        key = self.key_for(obj)
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
        """Replace a user's entry with a new state (delete + insert)."""
        self.delete(obj.uid)
        self.insert(obj, pntp)

    def key_for(self, obj: MovingObject) -> int:
        """The Bx-value the object's current state maps to (Equations 1-3)."""
        label = self.partitioner.label_timestamp(obj.t_update)
        tid = self.partitioner.partition_of_label(label)
        x, y = obj.position_at(label)
        return self.codec.compose(tid, self.grid.z_value(x, y))

    def contains(self, uid: int) -> bool:
        return uid in self._live_keys

    def __len__(self) -> int:
        return len(self._live_keys)

    @property
    def stats(self):
        """I/O counters of the underlying disk."""
        return self.btree.pool.stats

    def fetch_all(self) -> list[MovingObject]:
        """Every indexed object state (diagnostic full scan)."""
        unpack = self.records.unpack
        return [unpack(uid, value)[0] for _, uid, value in self.btree.items()]
