"""Buffer pool over the simulated disk.

Section 7.1 of the paper: *"a 50-page LRU buffer is simulated"*.  The pool
caches deserialized node objects keyed by page id.  A request that misses
costs one physical read; evicting a dirty page costs one physical write.

The pool supports *resizing between experiment phases*: the benchmark
harness builds indexes with a large buffer (builds are not part of the
reported numbers) and then shrinks to the paper's 50 pages and resets the
counters before replaying queries.

Victim selection is delegated to a pluggable
:class:`repro.storage.replacement.ReplacementPolicy` (LRU by default, per
the paper; FIFO/CLOCK/LFU available for the buffer-policy ablation).

**Decode once, not once per miss.**  Which pages are resident is the
modelled quantity; turning a page image back into a Python node is a
cost of this simulator alone.  So the pool remembers, per page id, the
last ``(image, node)`` pair it *exchanged with its disk* — recorded when
a miss parses, rewritten when a write-back packs (after ``disk.write``
returned) — and a miss whose ``disk.read`` comes back with that same
image admits the remembered node instead of parsing it again.  Nothing
about residency changes: the physical read runs through the whole disk
stack first (it is timed, counted, checksummed and may fault exactly as
before), victims, replacement order and write-backs are decided as
before, and the image comparison (an identity test in CPython when the
disk hands back the object it was given) sends every page rewritten
behind the pool's back — recovery, a second pool on the same disk,
:meth:`repro.storage.faults.ChecksummedDisk.corrupt` — down the parse
path.  A pair is dropped where its node stops describing the disk's
image: :meth:`BufferPool.discard` (and with it sweep-guard rollback),
:meth:`BufferPool.invalidate`, and a write-back whose ``disk.write``
raised.  :meth:`BufferPool.clear` therefore means cold *residency*, not
cold decode; and while ``capacity`` bounds the simulated memory, the
process holds one decoded node per page the pool has read or written —
the same order as the images :class:`SimulatedDisk` keeps anyway.  A
pool that writes back already assumes one serializer for all its pages;
retention assumes the same of a page id's reads.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.storage.disk import SimulatedDisk
from repro.storage.page import PageSerializer
from repro.storage.replacement import ReplacementPolicy, make_policy
from repro.storage.stats import StatsView, merge_stats

#: Paper default (Table 1): a 50-page LRU buffer.
DEFAULT_BUFFER_PAGES = 50


class BufferPool:
    """Page cache with write-back semantics and pluggable eviction.

    Args:
        disk: backing simulated disk.
        capacity: maximum number of resident pages.
        serializer: packs/parses node objects; may be swapped per tree if
            several trees share one pool (each ``get`` names its serializer).
        policy: replacement policy instance or registered name
            (default ``"lru"``, the paper's configuration).  It may be
            swapped later by assigning :attr:`policy`.

    The disk's ``stats`` bundle is bound at construction (every page
    access counts into it), so neither ``disk`` nor ``disk.stats`` may
    be replaced afterwards.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = DEFAULT_BUFFER_PAGES,
        serializer: PageSerializer | None = None,
        policy: ReplacementPolicy | str = "lru",
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self.serializer = serializer
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        # The disk's counter bundle, bound once (a wrapper's is its
        # inner disk's, for the disk's lifetime).
        self._io = disk.stats
        # page id -> resident node; a node is never None.
        self._frames: dict[int, Any] = {}
        self._dirty: set[int] = set()
        self._guard_base: int | None = None
        self._guard_freed: list[int] = []
        # page id -> the (image, node) pair last exchanged with the disk.
        self._exchanged: dict[int, tuple[bytes, Any]] = {}

    @property
    def stats(self):
        """The disk's shared I/O counter bundle."""
        return self._io

    @staticmethod
    def merged_stats(pools: "Iterable[BufferPool]") -> StatsView:
        """One live counter view over several pools' I/O statistics.

        Multi-pool deployments (one pool per shard of a sharded index)
        report through this instead of hand-summing per-pool counters:
        the returned :class:`repro.storage.stats.StatsView` recomputes
        on every access, so before/after deltas work exactly as on a
        single pool's stats.
        """
        return merge_stats(pool.stats for pool in pools)

    # ------------------------------------------------------------------
    # Core page API
    # ------------------------------------------------------------------

    def get(self, page_id: int, serializer: PageSerializer | None = None) -> Any:
        """Return the cached object for ``page_id``, reading disk on a miss.

        A miss always pays the physical read; it parses only when the
        image read is not the one this pool last exchanged for the page.
        """
        self._io.logical_reads += 1
        obj = self._frames.get(page_id)
        if obj is not None:
            self.policy.on_access(page_id)
            return obj
        codec = serializer if serializer is not None else self.serializer
        if codec is None:
            raise RuntimeError("BufferPool has no serializer configured")
        image = self.disk.read(page_id)
        pair = self._exchanged.get(page_id)
        if pair is not None and pair[0] == image:
            obj = pair[1]
        else:
            obj = codec.parse(image)
            self._exchanged[page_id] = (image, obj)
        self._admit(page_id, obj)
        return obj

    def put(self, page_id: int, obj: Any, dirty: bool = True) -> None:
        """Install a (typically brand-new) object for ``page_id``."""
        if page_id in self._frames:
            self.policy.on_access(page_id)
            self._frames[page_id] = obj
        else:
            self._admit(page_id, obj)
        if dirty:
            self.mark_dirty(page_id)

    def mark_dirty(self, page_id: int) -> None:
        """Record that the cached object diverges from its disk image."""
        if page_id not in self._frames:
            raise KeyError(f"page {page_id} is not resident")
        self._io.logical_writes += 1
        self._dirty.add(page_id)

    def discard(self, page_id: int) -> None:
        """Drop a page from the pool without writing it back (for deletes).

        The remembered decode goes too: a discarded frame may have been
        modified, and it is the same object the pair holds.
        """
        if self._frames.pop(page_id, None) is not None:
            self.policy.on_remove(page_id)
        self._dirty.discard(page_id)
        self._exchanged.pop(page_id, None)

    def free(self, page_id: int) -> None:
        """Discard a page and release it on the disk (a merged-away node).

        Under a sweep guard the disk keeps the image until commit: it is
        the undo state a rollback re-reads.
        """
        self.discard(page_id)
        if self._guard_base is not None:
            self._guard_freed.append(page_id)
        else:
            self.disk.free(page_id)

    def flush(self) -> None:
        """Write back every dirty page; the pool stays populated."""
        for page_id in sorted(self._dirty):
            self._write_back(page_id)
        self._dirty.clear()

    def clear(self) -> None:
        """Flush and then empty the pool (cold residency: every next
        access is a physical read, though not necessarily a parse)."""
        self.flush()
        for page_id in list(self._frames):
            self.policy.on_remove(page_id)
        self._frames.clear()

    def resize(self, capacity: int) -> None:
        """Change capacity, evicting policy victims if shrinking."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        while len(self._frames) > self.capacity:
            self._evict()

    def invalidate(self) -> None:
        """Empty the pool *without* write-back (cached state is abandoned).

        Recovery uses this after restoring page images directly on the
        disk: the cached objects no longer describe any on-disk page, so
        flushing them (as :meth:`clear` would) would clobber the
        restored state.  Any active sweep guard is abandoned with the
        frames it was protecting, and every remembered decode is
        forgotten with the frames it may share a node with.
        """
        for page_id in list(self._frames):
            self.policy.on_remove(page_id)
        self._frames.clear()
        self._dirty.clear()
        self._exchanged.clear()
        self._guard_base = None
        self._guard_freed.clear()

    # ------------------------------------------------------------------
    # Sweep guard: a no-steal window for retryable write sweeps
    # ------------------------------------------------------------------
    #
    # A batch sweep that faults mid-way leaves some leaves rewritten and
    # others not — unretryable against the disk alone.  The guard makes
    # the sweep all-or-nothing at the pool layer: while active, dirty
    # frames are never evicted (clean frames still are; the pool may
    # exceed capacity when everything resident is dirty), so the disk
    # keeps its pre-sweep images for every *pre-existing* page and only
    # guard-allocated pages (splits) carry new images; a page the sweep
    # frees (merges) keeps its image until commit.  Rollback then
    # discards every dirtied frame and frees the guard allocations,
    # restoring the exact pre-sweep logical state; commit flushes.

    @property
    def guard_active(self) -> bool:
        return self._guard_base is not None

    def begin_sweep_guard(self) -> None:
        """Open a no-steal window.  Requires a clean pool (flush first)."""
        if self._guard_base is not None:
            raise RuntimeError("sweep guard already active")
        if self._dirty:
            raise RuntimeError(
                f"sweep guard needs a clean pool; {len(self._dirty)} dirty pages"
            )
        self._guard_base = self.disk.allocated_count

    def rollback_sweep_guard(self) -> None:
        """Undo the guarded sweep: drop dirtied frames, free new pages."""
        if self._guard_base is None:
            raise RuntimeError("no sweep guard active")
        base = self._guard_base
        self._guard_base = None
        self._guard_freed.clear()
        for page_id in list(self._dirty):
            self.discard(page_id)
        for page_id in range(base, self.disk.allocated_count):
            self.discard(page_id)
            self.disk.free(page_id)

    def commit_sweep_guard(self) -> None:
        """Close the window, flushing the sweep's writes to disk.

        The flush runs *before* the guard clears: a write fault leaves
        the guard active with ``_dirty`` intact, so a retried commit
        resumes the write-back (rewriting an already-flushed page is
        idempotent) without ever re-applying the sweep.
        """
        if self._guard_base is None:
            raise RuntimeError("no sweep guard active")
        self.flush()
        self._guard_base = None
        for page_id in self._guard_freed:
            self.disk.free(page_id)
        self._guard_freed.clear()
        while len(self._frames) > self.capacity:
            self._evict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def resident_pages(self) -> list[int]:
        """Resident page ids in admission order (oldest first)."""
        return list(self._frames)

    @property
    def dirty_pages(self) -> set[int]:
        """Ids of resident pages awaiting write-back."""
        return set(self._dirty)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _admit(self, page_id: int, obj: Any) -> None:
        if self._guard_base is not None:
            # No-steal: evict clean victims only; overflow capacity when
            # every resident frame is dirty rather than lose undo state.
            while len(self._frames) >= self.capacity:
                if not self._evict_clean():
                    break
        else:
            while len(self._frames) >= self.capacity:
                self._evict()
        self._frames[page_id] = obj
        self.policy.on_admit(page_id)

    def _evict_clean(self) -> bool:
        for page_id in self._frames:
            if page_id not in self._dirty:
                self._frames.pop(page_id)
                self.policy.on_remove(page_id)
                return True
        return False

    def _evict(self) -> None:
        page_id = self.policy.victim()
        if page_id in self._dirty:
            # Write back first: a write fault must leave the frame, its
            # dirty mark and its place in the policy where they were.
            self._write_back(page_id)
            self._dirty.discard(page_id)
        del self._frames[page_id]
        self.policy.on_remove(page_id)

    def _write_back(self, page_id: int) -> None:
        codec = self.serializer
        if codec is None:
            raise RuntimeError("BufferPool has no serializer configured")
        obj = self._frames[page_id]
        image = codec.pack(obj)
        # The old pair's node has moved on from the old image, which is
        # what the disk still holds if this write raises.
        self._exchanged.pop(page_id, None)
        self.disk.write(page_id, image)
        self._exchanged[page_id] = (image, obj)
