"""Functional tests for B+-tree insert / search / delete / scans."""

import pytest

from repro.btree import BTreeConfig
from repro.storage.disk import PAGE_SIZE

from tests.conftest import make_tree


def test_config_fanout_matches_page_geometry():
    config = BTreeConfig(key_bytes=10, value_bytes=48, page_size=PAGE_SIZE)
    # leaf entry: 10 + 4 + 48 = 62 bytes, header 11 -> (4096-11)//62 = 65
    assert config.leaf_capacity == 65
    # internal entry: 10 + 4 + 8 = 22, header 3 + trailing child 8
    assert config.internal_capacity == (4096 - 3 - 8) // 22


def test_config_rejects_tiny_pages():
    with pytest.raises(ValueError):
        BTreeConfig(key_bytes=100, value_bytes=500, page_size=64).leaf_capacity


def test_empty_tree():
    tree = make_tree()
    assert len(tree) == 0
    assert tree.search(1, 1) is None
    assert list(tree.scan_range(0, 100)) == []
    assert tree.delete(1, 1) is False
    tree.check_invariants()


def test_single_insert_and_search():
    tree = make_tree()
    tree.insert(5, 7, b"v" * 16)
    assert tree.search(5, 7) == b"v" * 16
    assert tree.search(5, 8) is None
    assert tree.search(4, 7) is None
    assert len(tree) == 1


def test_duplicate_composite_key_rejected():
    tree = make_tree()
    tree.insert(5, 7, b"a" * 16)
    with pytest.raises(KeyError):
        tree.insert(5, 7, b"b" * 16)


def test_same_key_different_uids_coexist():
    tree = make_tree()
    tree.insert(5, 1, b"a" * 16)
    tree.insert(5, 2, b"b" * 16)
    assert tree.search(5, 1) == b"a" * 16
    assert tree.search(5, 2) == b"b" * 16
    found = [(k, u) for k, u, _ in tree.scan_range(5, 5)]
    assert found == [(5, 1), (5, 2)]


def test_negative_key_rejected():
    tree = make_tree()
    with pytest.raises(ValueError):
        tree.insert(-1, 0, b"x" * 16)


def test_oversized_key_rejected():
    tree = make_tree(key_bytes=2)
    with pytest.raises(ValueError):
        tree.insert(1 << 17, 0, b"x" * 16)


@pytest.mark.parametrize("uid", [-1, 1 << 32])
def test_out_of_range_uid_rejected_before_any_page_changes(uid):
    # The page stores a uid in 4 bytes.  Accepted, the entry would be
    # found by search and fail only at the next write-back, leaving
    # its page dirty.
    tree = make_tree()
    for key in range(40):
        tree.insert(key, 0, b"a" * 16)
    tree.pool.flush()
    before = list(tree.items())
    with pytest.raises(ValueError, match="does not fit"):
        tree.insert(5, uid, b"v" * 16)
    assert tree.search(5, uid) is None
    assert list(tree.items()) == before
    assert tree.pool.dirty_pages == set()
    tree.pool.flush()
    tree.check_invariants()


@pytest.mark.parametrize("uid", [-1, 1 << 32])
@pytest.mark.parametrize("kind", ["insert", "delete", "replace"])
def test_a_batch_with_an_out_of_range_uid_is_rejected_up_front(uid, kind):
    tree = make_tree()
    for key in range(40):
        tree.insert(key, 0, b"a" * 16)
    tree.pool.flush()
    before = list(tree.items())
    ops = [
        ("insert", 3, 1, b"n" * 16),
        ("delete", 4, 0, None),
        (kind, 30, uid, b"v" * 16),
        ("replace", 31, 0, b"r" * 16),
    ]
    with pytest.raises(ValueError, match="does not fit"):
        tree.apply_sorted_batch(ops)
    assert list(tree.items()) == before
    assert tree.pool.dirty_pages == set()
    tree.check_invariants()


def test_ordered_iteration():
    tree = make_tree()
    keys = [(3, 0), (1, 5), (2, 2), (1, 1), (3, 1)]
    for key, uid in keys:
        tree.insert(key, uid, bytes([key, uid]) * 8)
    assert [(k, u) for k, u, _ in tree.items()] == sorted(keys)


def test_scan_range_bounds_inclusive():
    tree = make_tree()
    for key in range(10):
        tree.insert(key, 0, b"x" * 16)
    found = [k for k, _, _ in tree.scan_range(3, 6)]
    assert found == [3, 4, 5, 6]


def test_scan_empty_interval():
    tree = make_tree()
    tree.insert(5, 0, b"x" * 16)
    assert list(tree.scan_range(6, 4)) == []
    assert list(tree.scan_range(100, 200)) == []


def test_insert_split_grows_height():
    tree = make_tree()
    capacity = tree.config.leaf_capacity
    for key in range(capacity + 1):
        tree.insert(key, 0, b"x" * 16)
    assert tree.height == 2
    assert tree.leaf_count == 2
    tree.check_invariants()


def test_delete_returns_presence():
    tree = make_tree()
    tree.insert(9, 9, b"x" * 16)
    assert tree.delete(9, 9) is True
    assert tree.delete(9, 9) is False
    assert len(tree) == 0


def test_values_survive_cold_restart_of_buffer():
    tree = make_tree(buffer_pages=8)
    for key in range(200):
        tree.insert(key, key % 3, key.to_bytes(16, "big"))
    tree.pool.clear()  # flush + drop every frame
    for key in range(200):
        assert tree.search(key, key % 3) == key.to_bytes(16, "big")


def test_sequential_and_reverse_insert_shapes_agree():
    forward = make_tree()
    backward = make_tree()
    for key in range(300):
        forward.insert(key, 0, b"x" * 16)
    for key in reversed(range(300)):
        backward.insert(key, 0, b"x" * 16)
    forward.check_invariants()
    backward.check_invariants()
    assert [k for k, _, _ in forward.items()] == [k for k, _, _ in backward.items()]
