"""Tests for disk snapshots, policy-store serialization, and the
full PEB-tree checkpoint/restore path."""

import json
import random
import struct

import pytest

from repro.core.checkpoint import load_peb_tree, save_peb_tree
from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn
from repro.core.prq import prq
from repro.core.sequencing import assign_sequence_values
from repro.motion.partitions import TimePartitioner
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.serialization import store_from_dict, store_to_dict
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.persistence import SnapshotError, load_disk, save_disk, save_pool
from repro.workloads.policies import MultiPolicyGenerator, PolicyGenerator
from repro.workloads.queries import QueryGenerator
from repro.workloads.uniform import UniformMovement
from tests.test_checkpoint_consistency import bit_flips


# ----------------------------------------------------------------------
# Disk snapshots
# ----------------------------------------------------------------------


def test_disk_roundtrip(tmp_path):
    disk = SimulatedDisk(page_size=128)
    pages = [disk.allocate() for _ in range(5)]
    for index, page in enumerate(pages[:4]):  # leave one allocated-unwritten
        disk.write(page, bytes([index]) * (index + 1))
    path = str(tmp_path / "disk.bin")
    written = save_disk(disk, path)
    assert written > 0

    restored = load_disk(path)
    assert restored.page_size == 128
    assert restored.allocated_count == 5
    assert restored.page_count == 4
    for index, page in enumerate(pages[:4]):
        assert restored.read(page) == bytes([index]) * (index + 1)
    # The unwritten page stays unwritten.
    with pytest.raises(KeyError):
        restored.read(pages[4])
    # Allocation continues after the snapshot's high-water mark.
    assert restored.allocate() == 5


def test_disk_roundtrip_empty(tmp_path):
    path = str(tmp_path / "empty.bin")
    save_disk(SimulatedDisk(page_size=64), path)
    restored = load_disk(path)
    assert restored.page_count == 0
    assert restored.allocated_count == 0


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTADISK" + b"\x00" * 32)
    with pytest.raises(SnapshotError, match="magic"):
        load_disk(str(path))


def test_load_rejects_truncation(tmp_path):
    disk = SimulatedDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"x" * 40)
    path = tmp_path / "disk.bin"
    save_disk(disk, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(SnapshotError, match="truncated"):
        load_disk(str(path))


def test_load_rejects_trailing_garbage(tmp_path):
    disk = SimulatedDisk(page_size=64)
    path = tmp_path / "disk.bin"
    save_disk(disk, str(path))
    path.write_bytes(path.read_bytes() + b"zz")
    with pytest.raises(SnapshotError, match="trailing"):
        load_disk(str(path))


def test_load_rejects_a_flipped_bit_anywhere(tmp_path):
    """Header, page table, images, digest: no byte may change unseen."""
    disk = SimulatedDisk(page_size=64)
    for index in range(3):
        disk.write(disk.allocate(), bytes([index + 1]) * (20 + index))
    path = tmp_path / "disk.bin"
    save_disk(disk, str(path))
    for _ in bit_flips(str(path), step=1):
        with pytest.raises(SnapshotError):
            load_disk(str(path))


def test_load_refuses_an_undigested_version_2_file(tmp_path):
    """What a version-2 build wrote — no digest — is refused by the
    version test, never loaded unverified."""
    disk = SimulatedDisk(page_size=64)
    disk.write(disk.allocate(), b"x" * 40)
    path = tmp_path / "disk.bin"
    save_disk(disk, str(path))
    blob = bytearray(path.read_bytes()[:-32])
    struct.pack_into(">I", blob, 8, 2)
    path.write_bytes(blob)
    with pytest.raises(SnapshotError, match="version 2, this build reads"):
        load_disk(str(path))


def test_save_pool_flushes_dirty_pages(tmp_path):
    from repro.storage.page import RawBytesSerializer

    disk = SimulatedDisk(page_size=64)
    pool = BufferPool(disk, capacity=8, serializer=RawBytesSerializer())
    page = disk.allocate()
    pool.put(page, b"dirty-bytes")  # resident + dirty, not yet on disk
    path = str(tmp_path / "disk.bin")
    save_pool(pool, path)
    assert load_disk(path).read(page) == b"dirty-bytes"


# ----------------------------------------------------------------------
# Policy-store serialization
# ----------------------------------------------------------------------


def test_single_store_roundtrip_json():
    store = PolicyGenerator(1000.0, 1440.0, random.Random(3)).generate(
        list(range(40)), 5, 0.7
    )
    report = assign_sequence_values(list(range(40)), store, 1000.0**2)
    store.set_sequence_values(report.sequence_values)

    payload = json.loads(json.dumps(store_to_dict(store)))
    restored = store_from_dict(payload)

    assert type(restored) is PolicyStore
    assert restored.time_domain == store.time_domain
    assert restored.policy_count() == store.policy_count()
    for uid in range(40):
        assert restored.friend_list(uid) == store.friend_list(uid)
    # Spot-check evaluation equivalence on a grid of probes.
    rng = random.Random(4)
    for _ in range(200):
        owner, viewer = rng.sample(range(40), 2)
        x, y, t = rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 2880)
        assert restored.evaluate(owner, viewer, x, y, t) == store.evaluate(
            owner, viewer, x, y, t
        )


def test_multi_store_roundtrip():
    generator = MultiPolicyGenerator(1000.0, 1440.0, random.Random(5))
    store = generator.generate(list(range(30)), 4, 0.7)
    report = assign_sequence_values(list(range(30)), store, 1000.0**2)
    store.set_sequence_values(report.sequence_values)

    restored = store_from_dict(store_to_dict(store))
    assert isinstance(restored, MultiPolicyStore)
    assert restored.policy_count() == store.policy_count()
    assert restored.pair_count() == store.pair_count()
    rng = random.Random(6)
    for _ in range(150):
        owner, viewer = rng.sample(range(30), 2)
        x, y, t = rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, 1440)
        assert restored.evaluate(owner, viewer, x, y, t) == store.evaluate(
            owner, viewer, x, y, t
        )


def test_timeset_policy_survives_roundtrip():
    store = PolicyStore(time_domain=1440.0)
    tint = TimeSet([TimeInterval(0, 60), TimeInterval(600, 720)])
    store.add_policy(
        LocationPrivacyPolicy(
            owner=1, role="friend", locr=Rect(0, 100, 0, 100), tint=tint
        ),
        [2],
    )
    restored = store_from_dict(store_to_dict(store))
    policy = restored.policy_for(1, 2)
    assert isinstance(policy.tint, TimeSet)
    assert policy.tint.duration == pytest.approx(180.0)


def test_store_payload_rejects_bad_format():
    with pytest.raises(ValueError, match="not a policy-store"):
        store_from_dict({"format": "something-else"})
    with pytest.raises(ValueError, match="version"):
        store_from_dict({"format": "repro-policy-store", "version": 99})


# ----------------------------------------------------------------------
# Full PEB-tree checkpoint
# ----------------------------------------------------------------------


def build_world(n_users=200, seed=9, page_size=1024):
    movement = UniformMovement(1000.0, 3.0, random.Random(seed))
    states = {obj.uid: obj for obj in movement.initial_objects(n_users, t=0.0)}
    store = PolicyGenerator(1000.0, 1440.0, random.Random(seed + 1)).generate(
        sorted(states), 8, 0.7
    )
    report = assign_sequence_values(sorted(states), store, 1000.0**2)
    store.set_sequence_values(report.sequence_values)
    pool = BufferPool(SimulatedDisk(page_size=page_size), capacity=512)
    tree = PEBTree(pool, Grid(1000.0, 10), TimePartitioner(120.0, 2), store)
    for obj in states.values():
        tree.insert(obj)
    return states, store, tree


def test_checkpoint_roundtrip_queries_identical(tmp_path):
    states, store, tree = build_world()
    directory = str(tmp_path / "ckpt")
    save_peb_tree(tree, directory)
    restored = load_peb_tree(directory, buffer_pages=512)

    assert len(restored) == len(tree)
    assert restored.btree.leaf_count == tree.btree.leaf_count
    assert restored.btree.entry_count == tree.btree.entry_count

    queries = QueryGenerator(1000.0, random.Random(11)).range_queries(
        sorted(states), 10, 300.0, 0.0
    )
    for query in queries:
        original = prq(tree, query.q_uid, query.window, query.t_query).uids
        revived = prq(restored, query.q_uid, query.window, query.t_query).uids
        assert revived == original

    knn_queries = QueryGenerator(1000.0, random.Random(12)).knn_queries(
        states, 6, 3, 0.0
    )
    for query in knn_queries:
        original = pknn(tree, query.q_uid, query.qx, query.qy, query.k, query.t_query)
        revived = pknn(
            restored, query.q_uid, query.qx, query.qy, query.k, query.t_query
        )
        assert [
            (round(d, 9), obj.uid) for d, obj in revived.neighbors
        ] == [(round(d, 9), obj.uid) for d, obj in original.neighbors]


def test_restored_tree_accepts_updates(tmp_path):
    states, _, tree = build_world(n_users=120)
    directory = str(tmp_path / "ckpt")
    save_peb_tree(tree, directory)
    restored = load_peb_tree(directory, buffer_pages=256)

    # Update half the users on the restored tree; queries stay exact.
    rng = random.Random(13)
    for uid in rng.sample(sorted(states), 60):
        obj = states[uid]
        x, y = obj.position_at(30.0)
        moved = obj.moved_to(x % 1000, y % 1000, -obj.vx, -obj.vy, 30.0)
        restored.update(moved)
        states[uid] = moved
    window = Rect(250, 750, 250, 750)
    expected = {
        uid
        for uid, obj in states.items()
        if window.contains(*obj.position_at(30.0))
        and restored.store.evaluate(
            uid, sorted(states)[0], *obj.position_at(30.0), 30.0
        )
    }
    answer = prq(restored, sorted(states)[0], window, 30.0).uids
    assert answer == expected


def test_restored_tree_starts_cold(tmp_path):
    _, _, tree = build_world(n_users=150)
    directory = str(tmp_path / "ckpt")
    save_peb_tree(tree, directory)
    restored = load_peb_tree(directory, buffer_pages=64)
    assert len(restored.btree.pool) == 0  # no resident pages
    assert restored.stats.physical_reads == 0
    restored.fetch_all()
    assert restored.stats.physical_reads > 0


def test_checkpoint_rejects_foreign_meta(tmp_path):
    import gzip

    _, _, tree = build_world(n_users=50)
    directory = tmp_path / "ckpt"
    save_peb_tree(tree, str(directory))
    meta_path = directory / "meta.json.gz"
    with gzip.open(meta_path, "rt") as handle:
        meta = json.load(handle)
    meta["format"] = "other"
    with gzip.open(meta_path, "wt") as handle:
        json.dump(meta, handle)
    with pytest.raises(ValueError, match="not a PEB checkpoint"):
        load_peb_tree(str(directory))


def test_checkpoint_preserves_hilbert_curve(tmp_path):
    from repro.spatial.curves import HILBERT

    movement = UniformMovement(1000.0, 3.0, random.Random(17))
    states = {obj.uid: obj for obj in movement.initial_objects(80, t=0.0)}
    store = PolicyGenerator(1000.0, 1440.0, random.Random(18)).generate(
        sorted(states), 5, 0.7
    )
    report = assign_sequence_values(sorted(states), store, 1000.0**2)
    store.set_sequence_values(report.sequence_values)
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=256)
    tree = PEBTree(
        pool, Grid(1000.0, 10, curve=HILBERT), TimePartitioner(120.0, 2), store
    )
    for obj in states.values():
        tree.insert(obj)

    directory = str(tmp_path / "ckpt")
    save_peb_tree(tree, directory)
    restored = load_peb_tree(directory)
    assert restored.grid.curve.name == "hilbert"
    window = Rect(300, 700, 300, 700)
    q_uid = sorted(states)[0]
    assert prq(restored, q_uid, window, 0.0).uids == prq(
        tree, q_uid, window, 0.0
    ).uids