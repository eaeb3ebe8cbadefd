"""Checkpoint and restore of a complete PEB-tree deployment.

A deployment is three artefacts: the page images (the index), the policy
directory (with its sequence values), and the structural metadata tying
them together (B+-tree root and counters, key-codec geometry, grid,
time partitioning, the update memo, the speed maxima).
:func:`save_peb_tree` writes them as two files in a directory::

    <dir>/disk.bin      — binary page snapshot (repro.storage.persistence)
    <dir>/meta.json.gz  — everything else, gzip-compressed JSON

:func:`load_peb_tree` reassembles a fully operational tree: queries,
updates, and I/O accounting continue exactly where they left off (the
buffer starts cold, as after a restart).

The metadata is gzip-compressed JSON — the policy records dominate it
and compress ~15x.
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import tempfile
import zlib

from repro.btree.tree import BPlusTree, BTreeConfig
from repro.core.peb_key import PEBKeyCodec
from repro.core.peb_tree import PEBTree
from repro.motion.objects import ObjectRecordCodec
from repro.motion.partitions import TimePartitioner
from repro.policy.serialization import store_from_dict, store_to_dict
from repro.spatial.curves import make_curve
from repro.spatial.grid import Grid
from repro.storage.buffer import DEFAULT_BUFFER_PAGES, BufferPool
from repro.storage.persistence import load_disk, save_pool

FORMAT = "repro-peb-checkpoint"
#: Version 2: leaf payloads are the 44-byte record without the UID
#: (version 1 stored it twice, in 48 bytes); a version-1 disk image
#: would parse at the wrong stride, so it is refused like any other.
VERSION = 2

DISK_FILE = "disk.bin"
META_FILE = "meta.json.gz"


class CheckpointError(ValueError):
    """A checkpoint directory could not be read as a valid checkpoint.

    Raised for a wrong format marker, an unsupported version, or a
    truncated/corrupted metadata file.  Loading never leaves a partial
    tree behind: the error is raised before any tree object exists.
    """


def _read_meta(directory: str) -> dict:
    """Parse and validate a checkpoint's metadata file."""
    path = os.path.join(directory, META_FILE)
    try:
        with open(path, "rb") as handle:
            meta = json.loads(gzip.decompress(handle.read()))
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint metadata at {path}") from None
    except (
        OSError, EOFError, gzip.BadGzipFile, zlib.error,
        UnicodeDecodeError, json.JSONDecodeError,
    ) as exc:
        raise CheckpointError(
            f"unreadable checkpoint metadata at {path}: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"malformed checkpoint metadata at {path}")
    if meta.get("format") != FORMAT:
        raise CheckpointError(f"not a PEB checkpoint: {meta.get('format')!r}")
    if meta.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('version')}, this build reads {VERSION}"
        )
    return meta


def save_peb_tree(
    tree: PEBTree, directory: str, live_keys: dict[int, int] | None = None
) -> None:
    """Write a restorable checkpoint of ``tree`` into ``directory``.

    The directory is created if missing; existing checkpoint files in it
    are overwritten.  The tree's buffer pool is flushed (its cached
    state is unaffected otherwise).  ``live_keys`` are the memo entries
    recorded: the tree's whole memo by default; a shard of a deployment
    records only its own users' (:class:`repro.shard.recovery.ShardCheckpointer`),
    with the deployment's speed maxima.
    """
    if live_keys is None:
        live_keys = tree.live.keys
    os.makedirs(directory, exist_ok=True)
    save_pool(tree.btree.pool, os.path.join(directory, DISK_FILE))
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "btree": {
            "root_id": tree.btree.root_id,
            "first_leaf_id": tree.btree.first_leaf_id,
            "height": tree.btree.height,
            "entry_count": tree.btree.entry_count,
            "leaf_count": tree.btree.leaf_count,
        },
        "codec": {
            "tid_count": tree.codec.tid_count,
            "sv_bits": tree.codec.sv_bits,
            "zv_bits": tree.codec.zv_bits,
            "sv_scale": tree.codec.sv_scale,
        },
        "grid": {
            "space_side": tree.grid.space_side,
            "bits": tree.grid.bits,
            "curve": tree.grid.curve.name,
        },
        "partitioner": {
            "max_update_interval": tree.partitioner.max_update_interval,
            "n": tree.partitioner.n,
        },
        "max_speed": {"x": tree.live.max_speed_x, "y": tree.live.max_speed_y},
        "live_keys": {str(uid): key for uid, key in sorted(live_keys.items())},
        "store": store_to_dict(tree.store),
    }
    blob = gzip.compress(json.dumps(meta).encode("utf-8"), compresslevel=1)
    with open(os.path.join(directory, META_FILE), "wb") as handle:
        handle.write(blob)


def load_peb_tree(
    directory: str,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    recompute_speeds: bool = False,
) -> PEBTree:
    """Reassemble the PEB-tree checkpointed in ``directory``.

    Args:
        directory: checkpoint location written by :func:`save_peb_tree`.
        buffer_pages: capacity of the (cold) buffer pool to start with.
        recompute_speeds: derive the speed maxima from the restored
            entries instead of trusting the checkpoint's values (one
            full leaf-chain scan).  The maxima feed the Figure 2 window
            enlargements, so stale values silently drop query results;
            see :meth:`repro.core.peb_tree.PEBTree.check_consistency`.
    """
    meta = _read_meta(directory)
    disk = load_disk(os.path.join(directory, DISK_FILE))
    pool = BufferPool(disk, capacity=buffer_pages)
    # Rebuilding the store allocates objects by the hundred thousand and
    # keeps every one, so the collections those allocations trigger
    # free nothing: the cyclic collector is paused for the rebuild and
    # left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        store = store_from_dict(meta["store"])
    finally:
        if collecting:
            gc.enable()
    grid = Grid(
        meta["grid"]["space_side"],
        meta["grid"]["bits"],
        curve=make_curve(meta["grid"]["curve"]),
    )
    partitioner = TimePartitioner(
        meta["partitioner"]["max_update_interval"],
        meta["partitioner"]["n"],
    )
    codec = PEBKeyCodec(
        tid_count=meta["codec"]["tid_count"],
        sv_bits=meta["codec"]["sv_bits"],
        zv_bits=meta["codec"]["zv_bits"],
        sv_scale=meta["codec"]["sv_scale"],
    )
    btree_meta = meta["btree"]
    config = BTreeConfig(
        key_bytes=codec.key_bytes,
        value_bytes=ObjectRecordCodec.SIZE,
        page_size=disk.page_size,
    )
    btree = BPlusTree.attach(
        pool,
        config,
        root_id=btree_meta["root_id"],
        first_leaf_id=btree_meta["first_leaf_id"],
        height=btree_meta["height"],
        entry_count=btree_meta["entry_count"],
        leaf_count=btree_meta["leaf_count"],
    )
    return PEBTree.attach(
        btree,
        grid,
        partitioner,
        store,
        codec,
        live_keys={int(uid): key for uid, key in meta["live_keys"].items()},
        max_speed_x=meta["max_speed"]["x"],
        max_speed_y=meta["max_speed"]["y"],
        recompute_speeds=recompute_speeds,
    )


def restore_peb_tree_state(
    directory: str, tree: PEBTree, live_keys: dict[int, int] | None = None
) -> None:
    """Restore a *live* tree in place from a checkpoint of itself.

    Unlike :func:`load_peb_tree`, nothing is rebuilt: the tree keeps
    its pool, its disk (with whatever wrapper stack — timing, fault
    injection, checksums — it runs under), and its shared policy
    store/grid/partitioner, which are read-only during operation and
    assumed unchanged since the checkpoint.  What restores is the
    mutable state: every page image is rewritten *through* the wrapper
    stack (so checksums refresh and the recovery I/O is honestly
    priced), pages allocated after the checkpoint are freed, the pool
    is invalidated (its cached frames describe the abandoned state),
    and the B+-tree metadata rolls back to the checkpointed values.
    In the update memo, the entries ``live_keys`` names — the whole
    memo by default; on a shard, the users whose keys route to it, so
    a user inserted after the checkpoint goes too — are replaced by the
    checkpoint's.  The speed maxima are raised to the checkpoint's and
    never lowered: a larger maximum only enlarges a query, and a
    shard's deployment has other users that rely on its maxima.

    This is the quarantined-shard recovery primitive
    (:class:`repro.shard.recovery.ShardCheckpointer`): a shard whose
    on-disk state is corrupt gets its images rewritten wholesale.
    Raises :class:`CheckpointError` for an unreadable or mismatched
    checkpoint and :class:`~repro.storage.persistence.SnapshotError`
    for a page snapshot that fails its digest, both before the live
    tree is touched; write faults from a still-unhealthy disk propagate.
    """
    meta = _read_meta(directory)
    codec_meta = meta["codec"]
    if (
        codec_meta["tid_count"] != tree.codec.tid_count
        or codec_meta["sv_bits"] != tree.codec.sv_bits
        or codec_meta["zv_bits"] != tree.codec.zv_bits
        or codec_meta["sv_scale"] != tree.codec.sv_scale
    ):
        raise CheckpointError(
            "checkpoint codec geometry does not match the live tree"
        )
    snapshot = load_disk(os.path.join(directory, DISK_FILE))

    pool = tree.btree.pool
    pool.invalidate()
    disk = pool.disk
    base = disk
    while hasattr(base, "inner"):
        base = base.inner
    # Allocation counters only grow; a snapshot can never reference a
    # page the live disk has not allocated, but post-checkpoint pages
    # the snapshot lacks must be freed.
    base._next_page_id = max(base._next_page_id, snapshot.allocated_count)
    for page_id in range(base.allocated_count):
        if base.contains(page_id) and not snapshot.contains(page_id):
            disk.free(page_id)
    for page_id, image in sorted(snapshot._pages.items()):
        disk.write(page_id, image)

    btree_meta = meta["btree"]
    tree.btree.root_id = btree_meta["root_id"]
    tree.btree.first_leaf_id = btree_meta["first_leaf_id"]
    tree.btree.height = btree_meta["height"]
    tree.btree.entry_count = btree_meta["entry_count"]
    tree.btree.leaf_count = btree_meta["leaf_count"]
    live = tree.live
    if live_keys is None:
        live.keys.clear()
    else:
        for uid in live_keys:
            del live.keys[uid]
    live.keys.update({int(uid): key for uid, key in meta["live_keys"].items()})
    live.max_speed_x = max(live.max_speed_x, meta["max_speed"]["x"])
    live.max_speed_y = max(live.max_speed_y, meta["max_speed"]["y"])


def clone_peb_tree(
    tree: PEBTree, buffer_pages: int = DEFAULT_BUFFER_PAGES
) -> PEBTree:
    """A physically identical, fully independent copy of ``tree``.

    A checkpoint round-trip through a temporary directory: the clone's
    disk holds the same page images at the same ids, so two copies of
    one index can run *competing* workloads — e.g. sequential vs.
    batched application of the same update round — with every I/O
    difference attributable to the workload, not to layout drift.  The
    clone starts with a cold ``buffer_pages``-page pool.
    """
    with tempfile.TemporaryDirectory(prefix="peb-clone-") as scratch:
        save_peb_tree(tree, scratch)
        return load_peb_tree(scratch, buffer_pages=buffer_pages)
