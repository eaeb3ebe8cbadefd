"""Binary snapshots of the simulated disk.

Building a paper-scale index (60 K users × 50 policies) costs minutes of
pure Python; a snapshot turns that into a one-time cost.  The format is
deliberately dumb — a versioned header followed by raw page images —
because the disk itself is a flat page map:

    magic:8s  version:u32  page_size:u32  next_page_id:u64  page_count:u64
    page_count * [page_id:u64  length:u32  image:length bytes]
    digest:32 bytes           -- SHA-256 of every byte before it

Integers are big-endian.  The page images carry no redundancy of their
own — one flipped bit inside a record is a different, perfectly
parseable motion function — so :func:`load_disk` refuses any file whose
digest does not match.  The *buffer pool* is not part of a snapshot:
callers flush before saving (:func:`save_disk` refuses dirty state it
cannot see, so use :func:`save_pool` when a pool is in play) and start
cold after loading.
"""

from __future__ import annotations

import hashlib
import struct

from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IOStats

MAGIC = b"REPRODSK"
#: Snapshot format version.  Bumped to 2 when leaf pages switched from
#: interleaved entries to packed key/uid/value columns: raw page images
#: written by version-1 builds parse into garbage under the columnar
#: layout, so old snapshots must be rejected, not misread.  Bumped to 3
#: when the trailing digest was added: a version-2 file has none, and is
#: refused here rather than loaded unverified.
VERSION = 3

_HEADER = struct.Struct(">8sIIQQ")
_PAGE_HEADER = struct.Struct(">QI")
_DIGEST_SIZE = hashlib.sha256().digest_size


class SnapshotError(ValueError):
    """A snapshot file is malformed or incompatible."""


def save_disk(disk: SimulatedDisk, path: str) -> int:
    """Write every written page to ``path``; returns bytes written.

    The caller is responsible for having flushed any buffer pool in
    front of ``disk`` — unflushed dirty pages are invisible here.
    Delegating wrappers (:class:`repro.simio.disk.TimedDisk`) are
    unwrapped: a snapshot captures the page store, not the timing or
    fault layers around it.
    """
    while hasattr(disk, "inner"):
        disk = disk.inner
    pages = sorted(disk._pages.items())
    parts = [
        _HEADER.pack(
            MAGIC, VERSION, disk.page_size, disk.allocated_count, len(pages)
        )
    ]
    for page_id, image in pages:
        parts.append(_PAGE_HEADER.pack(page_id, len(image)))
        parts.append(image)
    blob = b"".join(parts)
    blob += hashlib.sha256(blob).digest()
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def save_pool(pool: BufferPool, path: str) -> int:
    """Flush the pool, then snapshot its disk."""
    pool.flush()
    return save_disk(pool.disk, path)


def load_disk(path: str, stats: IOStats | None = None) -> SimulatedDisk:
    """Reconstruct a :class:`SimulatedDisk` from a snapshot file.

    The returned disk has fresh (or caller-supplied) I/O counters; the
    restore itself charges nothing, as with a machine rebooting with its
    disk intact.  Raises :class:`SnapshotError` for a file that is
    malformed, of another version, or whose digest does not match its
    contents (a flipped bit, a truncation).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, version, page_size, next_page_id, page_count = _HEADER.unpack_from(
        blob, 0
    )
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a disk snapshot (magic {magic!r})")
    if version != VERSION:
        raise SnapshotError(
            f"{path}: snapshot version {version}, this build reads {VERSION}"
        )

    disk = SimulatedDisk(page_size=page_size, stats=stats)
    offset = _HEADER.size
    for _ in range(page_count):
        if offset + _PAGE_HEADER.size > len(blob):
            raise SnapshotError(f"{path}: truncated page table")
        page_id, length = _PAGE_HEADER.unpack_from(blob, offset)
        offset += _PAGE_HEADER.size
        if offset + length > len(blob):
            raise SnapshotError(f"{path}: truncated page {page_id}")
        if page_id >= next_page_id:
            raise SnapshotError(
                f"{path}: page {page_id} beyond allocation count {next_page_id}"
            )
        disk._pages[page_id] = blob[offset : offset + length]
        offset += length
    digest = blob[offset:]
    if len(digest) < _DIGEST_SIZE:
        raise SnapshotError(f"{path}: truncated digest")
    if len(digest) > _DIGEST_SIZE:
        raise SnapshotError(
            f"{path}: {len(digest) - _DIGEST_SIZE} trailing bytes"
        )
    if digest != hashlib.sha256(memoryview(blob)[:offset]).digest():
        raise SnapshotError(f"{path}: digest mismatch, the snapshot is corrupt")
    disk._next_page_id = next_page_id
    return disk
