"""Regression tests: checkpoint restore vs the speed-maxima invariant.

``PEBTree.attach`` adopts the checkpoint's ``max_speed_x/y`` verbatim.
Those maxima feed the Figure 2 window enlargements, so values stale
relative to the indexed entries (a hand-edited checkpoint, a partial
restore, metadata from an older snapshot of the same disk) silently
shrink query windows and drop results.  These tests pin the guard
rails: ``check_consistency`` detects the divergence, ``repair=True``
and ``attach(recompute_speeds=True)`` / ``load_peb_tree(...,
recompute_speeds=True)`` heal it, and a faithful round-trip through
:mod:`repro.core.checkpoint` is clean.
"""

import gc
import gzip
import json
import os
import zlib
from dataclasses import replace

import pytest

from repro.core.checkpoint import (
    DISK_FILE,
    META_FILE,
    VERSION,
    CheckpointError,
    clone_peb_tree,
    load_peb_tree,
    restore_peb_tree_state,
    save_peb_tree,
)
from repro.core.peb_tree import PEBTree
from repro.core.prq import prq
from repro.policy.serialization import store_to_dict
from repro.spatial.geometry import Rect
from repro.storage.buffer import BufferPool
from repro.storage.faults import ChecksummedDisk
from repro.storage.persistence import SnapshotError
from tests.conftest import build_world
from tests.test_peb_tree import make_peb, mover


def populated_tree(n=12, speed=2.5):
    tree = make_peb(range(n))
    for uid in range(n):
        tree.insert(
            mover(
                uid,
                x=(uid * 83.0) % 1000,
                y=(uid * 47.0) % 1000,
                vx=speed if uid == 3 else 0.5,
                vy=-speed if uid == 7 else 0.25,
            )
        )
    return tree


def test_faithful_round_trip_is_consistent(tmp_path):
    tree = populated_tree()
    save_peb_tree(tree, str(tmp_path))
    restored = load_peb_tree(str(tmp_path), buffer_pages=50)
    assert restored.check_consistency() == []
    assert restored.live.max_speed_x == tree.live.max_speed_x
    assert restored.live.max_speed_y == tree.live.max_speed_y
    assert list(restored.btree.items()) == list(tree.btree.items())


def test_load_pauses_the_cyclic_collector_only_for_the_store(tmp_path, monkeypatch):
    """The store rebuild runs with the collector paused; afterwards, and
    after a rebuild that raises, the collector is as it was found."""
    import repro.core.checkpoint as checkpoint

    save_peb_tree(populated_tree(), str(tmp_path))
    seen = []
    rebuild = checkpoint.store_from_dict

    def spy(payload):
        seen.append(gc.isenabled())
        return rebuild(payload)

    monkeypatch.setattr(checkpoint, "store_from_dict", spy)
    was = gc.isenabled()
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            assert load_peb_tree(str(tmp_path)).check_consistency() == []
            assert gc.isenabled() == collecting

        def broken(payload):
            raise ValueError("corrupt store")

        monkeypatch.setattr(checkpoint, "store_from_dict", broken)
        gc.enable()
        with pytest.raises(ValueError, match="corrupt store"):
            load_peb_tree(str(tmp_path))
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def test_stale_speed_checkpoint_is_detected_and_recomputable(tmp_path):
    tree = populated_tree(speed=2.5)
    save_peb_tree(tree, str(tmp_path))

    # Corrupt the checkpoint the realistic way: metadata from before
    # the fast users were indexed, pages from after.
    meta_path = os.path.join(str(tmp_path), META_FILE)
    with open(meta_path, "rb") as handle:
        meta = json.loads(gzip.decompress(handle.read()))
    meta["max_speed"] = {"x": 0.1, "y": 0.1}
    with open(meta_path, "wb") as handle:
        handle.write(gzip.compress(json.dumps(meta).encode("utf-8")))

    stale = load_peb_tree(str(tmp_path), buffer_pages=50)
    problems = stale.check_consistency()
    assert any("max_speed_x" in problem for problem in problems)
    assert any("max_speed_y" in problem for problem in problems)

    # repair=True raises the maxima to cover the indexed velocities.
    stale.check_consistency(repair=True)
    assert stale.check_consistency() == []
    assert stale.live.max_speed_x == pytest.approx(2.5)
    assert stale.live.max_speed_y == pytest.approx(2.5)

    # The recompute option heals at load time instead.
    healed = load_peb_tree(str(tmp_path), buffer_pages=50, recompute_speeds=True)
    assert healed.check_consistency() == []
    assert healed.live.max_speed_x == pytest.approx(2.5)


def test_stale_speeds_change_query_results_and_recompute_restores_them(tmp_path):
    """The enlargement hazard made concrete: a fast mover near the
    window edge is found by the healthy tree, missed by the stale one,
    and found again after recompute."""
    tree = make_peb(range(8))
    # uid 3 races left at speed 8: at t=60 (the label) it sits near
    # x=519, at query time t=90 near x=279 — inside the window only if
    # the enlargement accounts for the speed.
    for uid in range(8):
        fast = uid == 3
        tree.insert(
            mover(
                uid,
                x=999.0 if fast else (uid * 29.0) % 250 + 700,
                y=100.0,
                vx=-8.0 if fast else 0.0,
                vy=0.0,
            )
        )
    window = Rect(0.0, 400.0, 0.0, 400.0)
    issuer = 4  # make_store chains uid -> uid+1, so uid 3's policy names 4
    healthy = {obj.uid for obj in prq(tree, issuer, window, 90.0).users}

    save_peb_tree(tree, str(tmp_path))
    meta_path = os.path.join(str(tmp_path), META_FILE)
    with open(meta_path, "rb") as handle:
        meta = json.loads(gzip.decompress(handle.read()))
    meta["max_speed"] = {"x": 0.0, "y": 0.0}
    with open(meta_path, "wb") as handle:
        handle.write(gzip.compress(json.dumps(meta).encode("utf-8")))

    stale = load_peb_tree(str(tmp_path), buffer_pages=50)
    stale_found = {obj.uid for obj in prq(stale, issuer, window, 90.0).users}
    healed = load_peb_tree(str(tmp_path), buffer_pages=50, recompute_speeds=True)
    healed_found = {obj.uid for obj in prq(healed, issuer, window, 90.0).users}

    assert 3 in healthy
    assert 3 not in stale_found  # the silent loss the check guards against
    assert healed_found == healthy


def test_check_consistency_flags_memo_divergence():
    tree = populated_tree(n=8)
    # Remove an entry behind the memo's back (index/metadata mismatch).
    victim = 5
    key = tree.live.keys[victim]
    tree.btree.delete(key, victim)
    problems = tree.check_consistency()
    assert any(f"memoized user {victim}" in problem for problem in problems)
    # Memo divergence is never auto-repaired.
    assert tree.check_consistency(repair=True)


def test_clone_is_independent_and_identical():
    tree = populated_tree()
    twin = clone_peb_tree(tree, buffer_pages=50)
    assert list(twin.btree.items()) == list(tree.btree.items())
    assert twin.live.keys == tree.live.keys
    assert twin.check_consistency() == []
    # Divergence after cloning stays local to each copy.
    twin.update(mover(0, x=999.0, y=999.0, vx=0.0, vy=0.0, t=30.0))
    assert tree.fetch_all() != twin.fetch_all()
    tree.btree.check_invariants()
    twin.btree.check_invariants()


# ----------------------------------------------------------------------
# Failure paths: a bad checkpoint is a CheckpointError, never a
# partial tree (the loader validates metadata before building anything)
# ----------------------------------------------------------------------


def _rewrite_meta(directory, mutate):
    path = os.path.join(directory, META_FILE)
    with open(path, "rb") as handle:
        meta = json.loads(gzip.decompress(handle.read()))
    mutate(meta)
    with open(path, "wb") as handle:
        handle.write(gzip.compress(json.dumps(meta).encode("utf-8")))


def test_load_missing_metadata_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint metadata"):
        load_peb_tree(str(tmp_path))


def test_load_rejects_a_foreign_format_marker(tmp_path):
    save_peb_tree(populated_tree(), str(tmp_path))
    _rewrite_meta(str(tmp_path), lambda meta: meta.update(format="some-other-tool"))
    with pytest.raises(CheckpointError, match="not a PEB checkpoint"):
        load_peb_tree(str(tmp_path))


def test_load_rejects_a_future_version(tmp_path):
    save_peb_tree(populated_tree(), str(tmp_path))
    _rewrite_meta(str(tmp_path), lambda meta: meta.update(version=VERSION + 1))
    with pytest.raises(CheckpointError, match=f"this build reads {VERSION}"):
        load_peb_tree(str(tmp_path))


def test_a_previous_version_is_refused_before_the_live_tree_is_touched(tmp_path):
    """Version 1 stored the UID inside the leaf payload too: its pages
    would parse at the wrong stride, so neither entry point may read
    them — and a live tree asked to restore from one stays as it was."""
    live = populated_tree(n=12)
    save_peb_tree(live, str(tmp_path))
    _rewrite_meta(str(tmp_path), lambda meta: meta.update(version=VERSION - 1))
    with pytest.raises(CheckpointError, match=f"version {VERSION - 1}, this build"):
        load_peb_tree(str(tmp_path))
    live.update(mover(0, x=999.0, y=999.0, vx=0.0, vy=0.0, t=30.0))
    live.btree.pool.flush()
    before = _whole_tree(live), dict(live.btree.pool.disk._pages)
    with pytest.raises(CheckpointError, match=f"version {VERSION - 1}, this build"):
        restore_peb_tree_state(str(tmp_path), live)
    assert (_whole_tree(live), dict(live.btree.pool.disk._pages)) == before


def test_load_rejects_truncated_metadata(tmp_path):
    save_peb_tree(populated_tree(), str(tmp_path))
    path = os.path.join(str(tmp_path), META_FILE)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])  # torn mid-write
    with pytest.raises(CheckpointError, match="unreadable checkpoint metadata"):
        load_peb_tree(str(tmp_path))


def test_load_rejects_corrupted_metadata(tmp_path):
    save_peb_tree(populated_tree(), str(tmp_path))
    path = os.path.join(str(tmp_path), META_FILE)
    with open(path, "wb") as handle:
        handle.write(gzip.compress(b"{not json at all"))
    with pytest.raises(CheckpointError, match="unreadable checkpoint metadata"):
        load_peb_tree(str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(gzip.compress(b"[1, 2, 3]"))  # valid JSON, wrong shape
    with pytest.raises(CheckpointError, match="malformed checkpoint metadata"):
        load_peb_tree(str(tmp_path))


def test_restore_rejects_mismatched_codec_geometry(tmp_path):
    tree = populated_tree(n=12)
    save_peb_tree(tree, str(tmp_path))
    # A checkpoint from a deployment with different key geometry.
    _rewrite_meta(
        str(tmp_path),
        lambda meta: meta["codec"].update(zv_bits=meta["codec"]["zv_bits"] + 2),
    )
    before = list(tree.btree.items())
    with pytest.raises(CheckpointError, match="codec geometry"):
        restore_peb_tree_state(str(tmp_path), tree)
    # The mismatch is detected before anything is rewritten.
    assert list(tree.btree.items()) == before


# ----------------------------------------------------------------------
# Bit flips: a damaged checkpoint never restores, silently or otherwise
# ----------------------------------------------------------------------


def _whole_tree(tree):
    """Everything a checkpoint carries, comparably."""
    return (
        list(tree.btree.items()),
        dict(tree.live.keys),
        (tree.live.max_speed_x, tree.live.max_speed_y),
        store_to_dict(tree.store),
        tree.check_consistency(),
    )


def bit_flips(path, step=97, also=()):
    """Write ``path`` with one bit flipped — the lowest, then the
    highest, of every ``step``-th byte and of the ``also`` offsets that
    exist — yielding after each; the intact file is written last."""
    blob = open(path, "rb").read()
    offsets = {*range(0, len(blob), step), *(o for o in also if o < len(blob))}
    for offset in sorted(offsets):
        for mask in (0x01, 0x80):
            damaged = bytearray(blob)
            damaged[offset] ^= mask
            with open(path, "wb") as handle:
                handle.write(damaged)
            yield offset, mask
    with open(path, "wb") as handle:
        handle.write(blob)


def _decoded(path):
    """A gzip file's decompressed bytes; None when it does not decode."""
    try:
        with open(path, "rb") as handle:
            return gzip.decompress(handle.read())
    except (OSError, EOFError, zlib.error):
        return None


def test_a_bit_flipped_disk_snapshot_never_loads(tmp_path):
    """Byte 6010 sits inside user 47's ``vx``: flipped, the checkpoint
    used to load, pass ``check_consistency()`` with ``[]`` and move the
    user — and every policy decision about them — ever after."""
    world = build_world(n_users=120, n_policies=6, seed=5)
    save_peb_tree(world.peb, str(tmp_path))
    path = os.path.join(str(tmp_path), DISK_FILE)
    for _ in bit_flips(path, also=(6010,)):
        with pytest.raises(SnapshotError):
            load_peb_tree(str(tmp_path))
    assert _whole_tree(load_peb_tree(str(tmp_path))) == _whole_tree(world.peb)


def test_a_bit_flipped_metadata_file_never_loads_a_different_tree(tmp_path):
    """Deflate data and the gzip trailer are covered by gzip's own CRC;
    what it raises must surface as ``CheckpointError``.  A header byte
    that carries no data (mtime, OS) may load — the identical tree — and
    so may a deflate bit that does not change what the stream decodes
    to (the CRC then has nothing to catch)."""
    world = build_world(n_users=120, n_policies=6, seed=5)
    save_peb_tree(world.peb, str(tmp_path))
    saved = _whole_tree(world.peb)
    path = os.path.join(str(tmp_path), META_FILE)
    intact = _decoded(path)
    rejected = loaded = 0
    for offset, _ in bit_flips(path, also=range(10)):
        try:
            restored = load_peb_tree(str(tmp_path))
        except CheckpointError:
            rejected += 1
        else:
            loaded += 1
            assert offset < 10 or _decoded(path) == intact, (
                "only a bit that carries no data may go unnoticed"
            )
            assert _whole_tree(restored) == saved
    assert rejected > loaded


def test_load_rejects_metadata_that_is_not_text(tmp_path):
    save_peb_tree(populated_tree(), str(tmp_path))
    with open(os.path.join(str(tmp_path), META_FILE), "wb") as handle:
        handle.write(gzip.compress(b'{"format": "\xff"}'))
    with pytest.raises(CheckpointError, match="unreadable checkpoint metadata"):
        load_peb_tree(str(tmp_path))


@pytest.mark.parametrize("damaged", (DISK_FILE, META_FILE))
def test_a_failed_restore_leaves_the_live_tree_untouched(tmp_path, damaged):
    """Recovery must not launder corruption: ``restore_peb_tree_state``
    used to accept a flipped ``disk.bin`` and rewrite it *through* the
    checksumming disk, which stamped the damage with a valid CRC."""
    world = build_world(n_users=120, n_policies=6, seed=5)
    disk = ChecksummedDisk(page_size=1024)
    live = PEBTree(
        BufferPool(disk, capacity=64), world.grid, world.partitioner, world.store
    )
    for uid in sorted(world.states):
        live.insert(world.states[uid])
    save_peb_tree(live, str(tmp_path))
    # The live tree moves on after its checkpoint.
    for uid in sorted(world.states)[:20]:
        live.update(replace(world.states[uid], x=500.0, y=500.0, t_update=3.0))
    live.btree.pool.flush()

    def state():
        return (
            _whole_tree(live),
            dict(disk._pages),
            dict(disk._checksums),
            disk.allocated_count,
            live.btree.root_id,
            live.btree.entry_count,
        )

    before = state()
    path = os.path.join(str(tmp_path), damaged)
    intact = _decoded(path)
    for flip in bit_flips(path, also=(6010,)):
        if intact is not None and _decoded(path) == intact:
            continue  # the deflate stream still spells the same metadata
        with pytest.raises((SnapshotError, CheckpointError)):
            restore_peb_tree_state(str(tmp_path), live)
        assert state() == before, flip
    # Intact again, the same checkpoint does restore.
    restore_peb_tree_state(str(tmp_path), live)
    assert _whole_tree(live) == _whole_tree(world.peb)


def test_repair_raises_a_deployments_one_pair_of_speed_maxima():
    """A sharded deployment keeps one pair of speed maxima, which every
    shard tree writes and the planner enlarges windows by: a stale pair
    is flagged once, and ``repair=True`` raises that pair."""
    world = build_world(n_users=60, n_policies=4, seed=5)
    stale = world.deploy(2)
    stale.live.max_speed_x = stale.live.max_speed_y = 0.0
    assert all(tree.live is stale.live for tree in stale.trees)
    problems = stale.check_consistency()
    assert [p.split("=")[0] for p in problems] == ["max_speed_x", "max_speed_y"]

    stale.check_consistency(repair=True)
    assert stale.check_consistency() == []
    assert stale.live.max_speed_x == max(abs(obj.vx) for obj in world.states.values())
    assert stale.live.max_speed_y == max(abs(obj.vy) for obj in world.states.values())
