"""Failure-injection tests: disk faults and page corruption.

The index must (a) surface injected storage errors unchanged — no
swallowed exceptions, no partial results — and (b) answer correctly
again once the fault clears, proving no internal state was corrupted by
the failed operation.
"""

import pytest

from repro.btree.tree import BPlusTree, BTreeConfig
from repro.simio.clock import SimClock
from repro.storage.buffer import BufferPool
from repro.storage.faults import (
    ChecksummedDisk,
    CorruptPageError,
    DiskFaultError,
    FaultWindowSchedule,
    FaultyDisk,
    TransientFaultSchedule,
)
from repro.storage.page import RawBytesSerializer


# ----------------------------------------------------------------------
# FaultyDisk semantics
# ----------------------------------------------------------------------


def test_faulty_disk_explicit_read_fault():
    disk = FaultyDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"ok")
    disk.fail_read_pages.add(page)
    with pytest.raises(DiskFaultError):
        disk.read(page)
    assert disk.injected_faults == 1


def test_faulty_disk_failed_read_charges_no_io():
    disk = FaultyDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"ok")
    writes_before = disk.stats.physical_writes
    disk.fail_read_pages.add(page)
    with pytest.raises(DiskFaultError):
        disk.read(page)
    assert disk.stats.physical_reads == 0
    assert disk.stats.physical_writes == writes_before


def test_faulty_disk_write_fault_preserves_old_image():
    disk = FaultyDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"original")
    disk.fail_write_pages.add(page)
    with pytest.raises(DiskFaultError):
        disk.write(page, b"replacement")
    disk.heal()
    assert disk.read(page) == b"original"


def test_faulty_disk_every_nth_read():
    disk = FaultyDisk(page_size=64, fail_every_nth_read=3)
    page = disk.allocate()
    disk.write(page, b"v")
    assert disk.read(page) == b"v"  # attempt 1
    assert disk.read(page) == b"v"  # attempt 2
    with pytest.raises(DiskFaultError):
        disk.read(page)  # attempt 3 fails
    assert disk.read(page) == b"v"  # attempt 4


def test_faulty_disk_rejects_bad_nth():
    with pytest.raises(ValueError):
        FaultyDisk(fail_every_nth_read=0)


def test_heal_clears_all_faults():
    disk = FaultyDisk(page_size=64, fail_every_nth_read=1)
    page = disk.allocate()
    with pytest.raises(DiskFaultError):
        disk.read(page)
    disk.heal()
    disk.write(page, b"v")
    assert disk.read(page) == b"v"


def test_heal_resets_attempt_counters_and_schedule():
    disk = FaultyDisk(page_size=64, fail_every_nth_read=2)
    page = disk.allocate()
    disk.write(page, b"v")
    assert disk.read(page) == b"v"  # attempt 1
    disk.heal()
    # Re-arming after heal restarts from attempt 1, not wherever the
    # pre-fault counter happened to be — schedules replay identically.
    disk.fail_every_nth_read = 2
    assert disk.read(page) == b"v"  # attempt 1 again
    with pytest.raises(DiskFaultError):
        disk.read(page)  # attempt 2

    disk.schedule = TransientFaultSchedule(fail_reads=(1,))
    disk.heal()
    assert disk.schedule is None
    assert disk.read(page) == b"v"  # attempt 1, no schedule left to fire


# ----------------------------------------------------------------------
# Deterministic fault schedules
# ----------------------------------------------------------------------


def test_transient_schedule_validation_and_bounds():
    with pytest.raises(ValueError):
        TransientFaultSchedule(fail_reads=(0,))
    with pytest.raises(ValueError):
        TransientFaultSchedule(fail_writes=(-1,))
    assert TransientFaultSchedule().max_failing_attempt == 0
    schedule = TransientFaultSchedule(fail_reads=(2, 9), fail_writes=(4,))
    assert schedule.max_failing_attempt == 9
    assert schedule.should_fail("read", 123, 2)
    assert not schedule.should_fail("write", 123, 2)  # per-kind sets
    assert schedule.should_fail("write", 123, 4)
    assert not schedule.should_fail("read", 123, 10)  # past the last index
    assert "fail_reads=[2, 9]" in repr(schedule)


def test_transient_schedule_on_disk_clears_after_last_index():
    disk = FaultyDisk(
        page_size=64,
        schedule=TransientFaultSchedule(fail_reads=(1, 3), fail_writes=(2,)),
    )
    page = disk.allocate()
    disk.write(page, b"v")  # write attempt 1 succeeds
    with pytest.raises(DiskFaultError):
        disk.write(page, b"w")  # write attempt 2 fails, image kept
    disk.write(page, b"w")  # write attempt 3 succeeds
    with pytest.raises(DiskFaultError):
        disk.read(page)  # read attempt 1
    assert disk.read(page) == b"w"  # read attempt 2
    with pytest.raises(DiskFaultError):
        disk.read(page)  # read attempt 3
    for _ in range(5):
        assert disk.read(page) == b"w"  # cleared forever: the set is finite


def test_schedule_composes_with_explicit_page_sets():
    disk = FaultyDisk(
        page_size=64, schedule=TransientFaultSchedule(fail_reads=(2,))
    )
    first, second = disk.allocate(), disk.allocate()
    disk.write(first, b"a")
    disk.write(second, b"b")
    disk.fail_read_pages.add(first)
    with pytest.raises(DiskFaultError):
        disk.read(first)  # the explicit page set fires (attempt 1)
    with pytest.raises(DiskFaultError):
        disk.read(second)  # the schedule fires (attempt 2)
    assert disk.read(second) == b"b"


def test_fault_window_validation_and_membership():
    clock = SimClock()
    with pytest.raises(ValueError):
        FaultWindowSchedule(clock, 10.0, 5.0)
    window = FaultWindowSchedule(clock, 100.0, 200.0, kinds=("read",))
    clock.set_cursor(50.0)
    assert not window.should_fail("read", 0, 1)
    clock.set_cursor(100.0)
    assert window.should_fail("read", 0, 1)  # start is inclusive
    assert not window.should_fail("write", 0, 1)  # kinds filter
    clock.set_cursor(199.0)
    assert window.should_fail("read", 0, 1)
    clock.set_cursor(200.0)
    assert not window.should_fail("read", 0, 1)  # end is exclusive


def test_fault_window_cleared_by_advancing_the_clock():
    """Backoff priced on the same clock is what moves a caller past the
    window — advancing the cursor is all it takes to clear the fault."""
    clock = SimClock()
    disk = FaultyDisk(
        page_size=64, schedule=FaultWindowSchedule(clock, 0.0, 500.0)
    )
    page = disk.allocate()
    with pytest.raises(DiskFaultError):
        disk.write(page, b"v")
    clock.advance(500.0)
    disk.write(page, b"v")
    assert disk.read(page) == b"v"


# ----------------------------------------------------------------------
# ChecksummedDisk semantics
# ----------------------------------------------------------------------


def test_checksummed_roundtrip_clean():
    disk = ChecksummedDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"payload")
    assert disk.read(page) == b"payload"


def test_checksummed_detects_bit_flip():
    disk = ChecksummedDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"payload")
    disk.corrupt(page, bit=5)
    with pytest.raises(CorruptPageError, match="checksum mismatch"):
        disk.read(page)


def test_checksummed_rewrite_updates_checksum():
    disk = ChecksummedDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"one")
    disk.write(page, b"two")
    assert disk.read(page) == b"two"


def test_checksummed_corrupt_out_of_range():
    disk = ChecksummedDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"ab")
    with pytest.raises(ValueError):
        disk.corrupt(page, bit=10_000)


def test_checksummed_free_forgets_checksum():
    disk = ChecksummedDisk(page_size=64)
    page = disk.allocate()
    disk.write(page, b"x")
    disk.free(page)
    disk.write(page, b"y")
    assert disk.read(page) == b"y"


# ----------------------------------------------------------------------
# Faults through the B+-tree
# ----------------------------------------------------------------------


def build_tree(disk, page_size=256):
    pool = BufferPool(disk, capacity=4)
    config = BTreeConfig(key_bytes=8, value_bytes=16, page_size=page_size)
    return BPlusTree(pool, config)


def test_btree_surfaces_read_fault_and_recovers():
    disk = FaultyDisk(page_size=256)
    tree = build_tree(disk)
    for key in range(200):
        tree.insert(key, key, key.to_bytes(16, "big"))
    tree.pool.flush()
    tree.pool.clear()

    # Make every page unreadable, then heal: the tree must first raise,
    # then return exactly the right answers — nothing cached half-read.
    disk.fail_read_pages.update(range(disk.allocated_count))
    with pytest.raises(DiskFaultError):
        list(tree.scan_range(0, 199))
    disk.heal()
    found = [(key, value) for key, _, value in tree.scan_range(0, 199)]
    assert [key for key, _ in found] == list(range(200))
    assert all(value == key.to_bytes(16, "big") for key, value in found)


def test_btree_surfaces_corruption():
    disk = ChecksummedDisk(page_size=256)
    tree = build_tree(disk)
    for key in range(200):
        tree.insert(key, key, key.to_bytes(16, "big"))
    tree.pool.flush()
    tree.pool.clear()

    # Damage one written page; some lookup must trip over it.
    victim = next(pid for pid in range(disk.allocated_count) if disk.contains(pid))
    disk.corrupt(victim, bit=3)
    with pytest.raises(CorruptPageError):
        list(tree.scan_range(0, 199))


def test_btree_intermittent_faults_never_corrupt_results():
    """Reads that fail are retried by the caller; answers stay exact.

    The every-7th-read schedule is armed after the build (attempts
    counted from there): a full leaf now probes a sibling before it
    splits, so the ascending build reads pages — it read none when
    overflow meant split — and its 7th read would fault inside an
    ``insert`` this test never meant to retry.  The scans below face
    the same schedule as before.
    """
    disk = FaultyDisk(page_size=256)
    tree = build_tree(disk)
    for key in range(150):
        tree.insert(key, key, key.to_bytes(16, "big"))
    tree.pool.flush()
    disk.heal()
    disk.fail_every_nth_read = 7

    expected = list(range(150))
    for _ in range(10):
        tree.pool.clear()
        try:
            got = [key for key, _, _ in tree.scan_range(0, 149)]
        except DiskFaultError:
            continue  # retry, as a real execution layer would
        assert got == expected


def test_buffer_cache_hit_masks_later_on_disk_corruption():
    """Checksum verification is a property of the *physical* read path:
    a page corrupted on disk after it was cached stays invisible until
    the frame is dropped and re-read (the invariant the faults module
    docstring states — recovery paths must invalidate before trusting
    a re-read)."""
    disk = ChecksummedDisk(page_size=64)
    pool = BufferPool(disk, capacity=4, serializer=RawBytesSerializer())
    page = disk.allocate()
    pool.put(page, b"payload")
    pool.flush()
    assert pool.get(page) == b"payload"

    disk.corrupt(page, bit=1)
    # Pool hit: no disk access, so the damage goes undetected.
    assert pool.get(page) == b"payload"
    # Dropping the frame forces a physical read, which detects it.
    pool.discard(page)
    with pytest.raises(CorruptPageError):
        pool.get(page)


def tree_with_one_write_fault(writes_until_fault):
    """200 ascending keys on 3 frames, flushed, with one write fault ahead."""
    disk = FaultyDisk(page_size=256)
    tree = build_tree(disk)
    tree.pool.resize(3)
    for key in range(200):
        tree.insert(key, key, key.to_bytes(16, "big"))
    tree.pool.flush()
    disk.schedule = TransientFaultSchedule(
        fail_writes=[disk._write_attempts + writes_until_fault]
    )
    return tree


def assert_holds_exactly(tree, n_keys):
    tree.pool.flush()
    tree.check_invariants()
    tree.pool.clear()
    assert [key for key, _, _ in tree.items()] == list(range(n_keys))


@pytest.mark.parametrize("writes_until_fault", [1, 2, 3])
def test_write_fault_during_dirty_eviction_loses_nothing(writes_until_fault):
    """A dirty victim whose write-back faults stays resident and dirty.

    The pool used to drop the frame before writing it back, so the
    fault took the page's modifications with it: acknowledged inserts
    vanished, ``flush()`` raised ``KeyError`` on the orphaned dirty id
    and the leaf chain broke.  The fault lands on a descent's miss, so
    the failed insert itself changed nothing and is simply retried.
    """
    tree = tree_with_one_write_fault(writes_until_fault)
    faults = 0
    for key in range(200, 230):
        try:
            tree.insert(key, key, key.to_bytes(16, "big"))
        except DiskFaultError:
            faults += 1
            tree.insert(key, key, key.to_bytes(16, "big"))  # the fault cleared
    assert faults == 1
    assert_holds_exactly(tree, 230)


@pytest.mark.parametrize(
    ("width", "writes_until_fault"),
    [(1, 1), (1, 2), (1, 4), (5, 1), (5, 3), (5, 4)],
)
def test_write_fault_during_dirty_eviction_in_a_sweep_loses_nothing(
    width, writes_until_fault
):
    """The same fault under ``apply_sorted_batch``: one retry applies it.

    A sweep used to end by fetching the root to collapse it even when
    nothing had merged.  That fetch could miss and evict a dirty page
    after the sweep had applied in full; a faulted write-back then
    raised from a finished sweep, and the retry failed with
    ``KeyError`` on its first insert.  Only a merge fetches the root
    now, so at these positions the fault lands on a descent's miss,
    before the sweep's first mutation.  Other positions hit a split's
    eviction mid-sweep and still lose entries (ROADMAP item 2(ii)).
    """
    tree = tree_with_one_write_fault(writes_until_fault)
    faults = 0
    for start in range(200, 230, width):
        ops = [
            ("insert", key, key, key.to_bytes(16, "big"))
            for key in range(start, start + width)
        ]
        try:
            tree.apply_sorted_batch(ops)
        except DiskFaultError:
            faults += 1
            tree.apply_sorted_batch(ops)  # the fault cleared
    assert faults == 1
    assert_holds_exactly(tree, 230)
