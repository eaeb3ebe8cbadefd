"""Unit tests for the LRU buffer pool."""

import pytest

from repro.core.checkpoint import restore_peb_tree_state, save_peb_tree
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    ChecksummedDisk,
    CorruptPageError,
    DiskFaultError,
    FaultyDisk,
)
from repro.storage.page import RawBytesSerializer
from tests.test_checkpoint_consistency import populated_tree
from tests.test_peb_tree import mover


def make_pool(capacity=3, page_size=64):
    disk = SimulatedDisk(page_size=page_size)
    return disk, BufferPool(disk, capacity=capacity, serializer=RawBytesSerializer())


def test_put_then_get_hits_without_disk_read():
    disk, pool = make_pool()
    page = disk.allocate()
    pool.put(page, b"payload")
    assert pool.get(page) == b"payload"
    assert disk.stats.physical_reads == 0


def test_miss_reads_from_disk():
    disk, pool = make_pool()
    page = disk.allocate()
    disk.write(page, b"cold")
    disk.stats.reset()
    assert pool.get(page) == b"cold"
    assert disk.stats.physical_reads == 1
    # Second access is a hit.
    assert pool.get(page) == b"cold"
    assert disk.stats.physical_reads == 1


def test_lru_eviction_order():
    disk, pool = make_pool(capacity=2)
    pages = [disk.allocate() for _ in range(3)]
    pool.put(pages[0], b"0")
    pool.put(pages[1], b"1")
    pool.get(pages[0])  # page 0 becomes most recent
    pool.put(pages[2], b"2")  # evicts page 1 (the LRU)
    assert pages[1] not in pool
    assert pages[0] in pool and pages[2] in pool


def test_dirty_eviction_writes_back():
    disk, pool = make_pool(capacity=1)
    first = disk.allocate()
    second = disk.allocate()
    pool.put(first, b"dirty")
    pool.put(second, b"next")  # evicts first
    assert disk.read(first) == b"dirty"


def test_clean_eviction_skips_write():
    disk, pool = make_pool(capacity=1)
    first = disk.allocate()
    disk.write(first, b"ondisk")
    disk.stats.reset()
    pool.get(first)  # resident, clean
    second = disk.allocate()
    pool.put(second, b"x")  # evicts clean page: no write-back
    assert disk.stats.physical_writes == 0


def test_mutated_object_must_be_re_put_or_marked():
    """The discipline the B+-tree follows: put after every mutation."""
    disk, pool = make_pool(capacity=1)
    page = disk.allocate()
    pool.put(page, bytearray(b"aaaa"))
    obj = pool.get(page)
    obj[0:1] = b"z"
    pool.put(page, obj)  # re-put marks dirty
    other = disk.allocate()
    pool.put(other, b"evictor")
    assert disk.read(page) == b"zaaa"


def test_flush_writes_all_dirty_pages():
    disk, pool = make_pool(capacity=4)
    pages = [disk.allocate() for _ in range(3)]
    for index, page in enumerate(pages):
        pool.put(page, bytes([index]))
    pool.flush()
    for index, page in enumerate(pages):
        assert disk.read(page) == bytes([index])
    assert not pool.dirty_pages


def test_clear_flushes_then_empties():
    disk, pool = make_pool(capacity=4)
    page = disk.allocate()
    pool.put(page, b"v")
    pool.clear()
    assert len(pool) == 0
    assert disk.read(page) == b"v"


def test_resize_shrink_evicts_lru():
    disk, pool = make_pool(capacity=4)
    pages = [disk.allocate() for _ in range(4)]
    for page in pages:
        pool.put(page, b"x")
    pool.resize(2)
    assert len(pool) == 2
    assert pool.resident_pages == pages[2:]


def test_logical_counters():
    disk, pool = make_pool()
    page = disk.allocate()
    pool.put(page, b"a")  # one logical write (dirty mark)
    pool.get(page)
    pool.get(page)
    assert disk.stats.logical_reads == 2
    assert disk.stats.logical_writes == 1


def test_mark_dirty_requires_residency():
    _, pool = make_pool()
    with pytest.raises(KeyError):
        pool.mark_dirty(42)


def test_get_without_serializer_fails():
    disk = SimulatedDisk(page_size=64)
    pool = BufferPool(disk, capacity=2)  # no serializer
    page = disk.allocate()
    disk.write(page, b"x")
    with pytest.raises(RuntimeError):
        pool.get(page)


def test_discard_forgets_without_writeback():
    disk, pool = make_pool()
    page = disk.allocate()
    disk.write(page, b"old")
    pool.put(page, b"new")
    pool.discard(page)
    assert disk.read(page) == b"old"


def test_invalid_capacity_rejected():
    disk = SimulatedDisk()
    with pytest.raises(ValueError):
        BufferPool(disk, capacity=0)
    _, pool = make_pool()
    with pytest.raises(ValueError):
        pool.resize(-1)


# ----------------------------------------------------------------------
# Decode retention: the (image, node) pair last exchanged with the disk
# ----------------------------------------------------------------------


class ByteListSerializer:
    """Pages decode to a mutable list of byte values."""

    def pack(self, node):
        return bytes(node)

    def parse(self, image):
        return list(image)


class CountingSerializer:
    """Counts the calls it forwards to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.parses = 0
        self.packs = 0

    def pack(self, node):
        self.packs += 1
        return self.inner.pack(node)

    def parse(self, image):
        self.parses += 1
        return self.inner.parse(image)


def make_counting_pool(disk=None, capacity=1):
    disk = disk if disk is not None else SimulatedDisk(page_size=64)
    codec = CountingSerializer(ByteListSerializer())
    return disk, codec, BufferPool(disk, capacity=capacity, serializer=codec)


def written_pages(disk, *images):
    pages = []
    for image in images:
        pages.append(disk.allocate())
        disk.write(pages[-1], image)
    disk.stats.reset()
    return pages


def test_reread_of_evicted_page_reads_but_does_not_parse():
    disk, codec, pool = make_counting_pool()
    first, second = written_pages(disk, b"abc", b"xyz")
    assert pool.get(first) == [97, 98, 99]
    pool.get(second)  # evicts the clean first page
    assert first not in pool
    assert codec.parses == 2
    node = pool.get(first)
    assert codec.parses == 2  # the re-read was not decoded again ...
    assert disk.stats.physical_reads == 3  # ... but it was read
    assert node == ByteListSerializer().parse(disk.read(first))


def test_write_back_feeds_the_remembered_pair():
    disk, codec, pool = make_counting_pool()
    first, second = disk.allocate(), disk.allocate()
    pool.put(first, [1, 2])
    pool.put(second, [3])  # evicts and packs the dirty first page
    assert codec.packs == 1
    assert pool.get(first) == [1, 2]
    assert codec.parses == 0
    assert disk.stats.physical_reads == 1
    # flush() feeds it too, and clear() is cold residency, not cold decode.
    pool.get(first).append(7)
    pool.mark_dirty(first)
    pool.clear()
    assert pool.get(first) == [1, 2, 7] == list(disk.read(first))
    assert codec.parses == 0


@pytest.mark.parametrize("forget", ["discard", "invalidate", "rollback_sweep_guard"])
def test_dropping_a_modified_frame_forgets_its_decode(forget):
    disk, codec, pool = make_counting_pool(capacity=2)
    (page,) = written_pages(disk, b"abc")
    if forget == "rollback_sweep_guard":
        pool.begin_sweep_guard()
    node = pool.get(page)
    node.append(100)  # the remembered node *is* the frame
    pool.mark_dirty(page)
    if forget == "discard":
        pool.discard(page)
    else:
        getattr(pool, forget)()
    assert page not in pool
    assert pool.get(page) == [97, 98, 99]  # the disk's image, decoded afresh
    assert codec.parses == 2
    assert disk.read(page) == b"abc"


def test_rollback_forgets_pages_allocated_under_the_guard():
    disk, codec, pool = make_counting_pool(capacity=2)
    pool.begin_sweep_guard()
    page = disk.allocate()
    pool.put(page, [5])
    pool.rollback_sweep_guard()
    assert not disk.contains(page)
    disk.write(page, b"\x09")  # the id comes back with other contents
    assert pool.get(page) == [9]


def test_page_rewritten_through_a_second_pool_is_parsed_again():
    disk, codec, pool = make_counting_pool()
    first, second = written_pages(disk, b"abc", b"xyz")
    pool.get(first)
    pool.get(second)  # first is evicted, its decode remembered
    _, _, other = make_counting_pool(disk)
    other.get(first).append(100)
    other.mark_dirty(first)
    other.flush()
    assert pool.get(first) == [97, 98, 99, 100]
    assert codec.parses == 3


def test_freed_and_reallocated_page_id_never_yields_the_old_node():
    disk, codec, pool = make_counting_pool()
    first, second = written_pages(disk, b"abc", b"xyz")
    pool.get(first)
    pool.get(second)
    # Freed behind the pool's back: the read fails before any pair is
    # consulted, and new contents under the old id miss the comparison.
    disk.free(first)
    with pytest.raises(KeyError):
        pool.get(first)
    disk.write(first, b"new")
    assert pool.get(first) == [110, 101, 119]
    # Freed the way the trees do it: discard, then free.
    pool.discard(first)
    disk.free(first)
    disk.write(first, b"abc")
    parses = codec.parses
    assert pool.get(first) == [97, 98, 99]
    assert codec.parses == parses + 1


def test_corruption_of_an_evicted_remembered_page_is_still_detected():
    """Detection is a property of the physical read path: retention
    consults its pair only after the checksummed read has returned."""
    disk, codec, pool = make_counting_pool(ChecksummedDisk(page_size=64))
    first, second = written_pages(disk, b"abc", b"xyz")
    pool.get(first)
    pool.get(second)
    disk.corrupt(first, bit=3)
    with pytest.raises(CorruptPageError):
        pool.get(first)
    assert first not in pool
    disk.write(first, b"abc")  # repaired in place
    assert pool.get(first) == [97, 98, 99]


def test_failed_write_back_keeps_the_frame_and_remembers_nothing():
    disk, codec, pool = make_counting_pool(FaultyDisk(page_size=64))
    (first,) = written_pages(disk, b"abc")
    second = disk.allocate()
    pool.get(first).append(100)
    pool.mark_dirty(first)
    disk.fail_write_pages.add(first)
    with pytest.raises(DiskFaultError):
        pool.put(second, [1])  # evicting the dirty first page faults
    # Nothing was lost, and no pair describes the image that was not stored.
    assert pool.resident_pages == [first] and pool.dirty_pages == {first}
    assert first not in pool._exchanged
    with pytest.raises(DiskFaultError):
        pool.flush()
    assert first not in pool._exchanged
    disk.heal()
    pool.put(second, [1])
    assert disk.read(first) == b"abcd"
    assert pool.get(first) == [97, 98, 99, 100]
    assert codec.parses == 1


def test_pages_rewritten_by_restore_are_parsed_again(tmp_path):
    tree = populated_tree(n=40)
    pool = tree.btree.pool
    codec = pool.serializer = CountingSerializer(pool.serializer)
    save_peb_tree(tree, str(tmp_path))
    checkpointed = list(tree.btree.items())
    for uid in range(0, 40, 3):
        tree.update(mover(uid, x=uid * 11.0, y=900.0 - uid, t=5.0))
    pool.clear()
    assert list(tree.btree.items()) != checkpointed  # every page remembered

    restore_peb_tree_state(str(tmp_path), tree)
    pool.stats.reset()
    codec.parses = 0
    assert list(tree.btree.items()) == checkpointed
    assert codec.parses == pool.stats.physical_reads > 0
