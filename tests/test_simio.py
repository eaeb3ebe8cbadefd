"""Unit tests for the simulated-latency I/O subsystem (repro.simio)."""

import threading

import pytest

from repro.simio import (
    DeviceProfile,
    IOScheduler,
    LatencyModel,
    LatencyStats,
    LatencyView,
    PROFILES,
    SimClock,
    TimedDisk,
    make_latency_model,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import StatsView


# ----------------------------------------------------------------------
# LatencyModel
# ----------------------------------------------------------------------


def test_random_access_pays_seek_plus_transfer():
    model = LatencyModel("hdd")
    cost, sequential = model.access_cost("read", 7, None)
    assert cost == PROFILES["hdd"].seek_us + PROFILES["hdd"].read_us
    assert not sequential


def test_sequential_run_skips_the_seek():
    model = LatencyModel("hdd")
    for last in (6, 7):  # next page, or a re-access of the same page
        cost, sequential = model.access_cost("read", 7, last)
        assert cost == PROFILES["hdd"].read_us
        assert sequential
    # A backwards or skipping access is not sequential.
    for last in (8, 3):
        cost, sequential = model.access_cost("read", 7, last)
        assert cost == PROFILES["hdd"].seek_us + PROFILES["hdd"].read_us
        assert not sequential


def test_write_cost_uses_the_write_transfer():
    model = LatencyModel("ssd")
    cost, _ = model.access_cost("write", 0, None)
    assert cost == PROFILES["ssd"].seek_us + PROFILES["ssd"].write_us


def test_profiles_order_by_device_class():
    """Positioning cost must dominate on hdd and nearly vanish on nvme."""
    hdd, ssd, nvme = PROFILES["hdd"], PROFILES["ssd"], PROFILES["nvme"]
    assert hdd.seek_us > ssd.seek_us > nvme.seek_us
    assert hdd.seek_us / hdd.read_us > ssd.seek_us / ssd.read_us
    assert ssd.seek_us / ssd.read_us >= nvme.seek_us / nvme.read_us


def test_model_rejects_unknown_profile_and_kind():
    with pytest.raises(ValueError):
        LatencyModel("floppy")
    with pytest.raises(ValueError):
        LatencyModel("hdd").access_cost("erase", 0, None)
    assert make_latency_model("nvme").name == "nvme"
    model = LatencyModel("hdd")
    assert make_latency_model(model) is model


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_model_rejects_non_finite_and_negative_costs(bad):
    # `cost < 0` is false for NaN and for +inf: both used to be accepted.
    with pytest.raises(ValueError, match="verify_us"):
        LatencyModel("ssd", verify_us=bad)
    with pytest.raises(ValueError, match="verify_us"):
        make_latency_model("ssd", verify_us=bad)
    for field in ("seek_us", "read_us", "write_us"):
        costs = {"seek_us": 1.0, "read_us": 1.0, "write_us": 1.0, field: bad}
        with pytest.raises(ValueError, match=field):
            DeviceProfile("x", **costs)
    assert LatencyModel(DeviceProfile("free", 0.0, 0.0, 0.0), verify_us=0.0).verify_us == 0.0


# ----------------------------------------------------------------------
# SimClock
# ----------------------------------------------------------------------


def test_distinct_devices_overlap_same_device_serializes():
    clock = SimClock()
    model = LatencyModel("ssd")
    dev_a = clock.register_device("a")
    dev_b = clock.register_device("b")
    cost, _ = model.access_cost("read", 0, None)

    # Two forked contexts, one device each: elapsed is max, not sum.
    base = clock.cursor()
    clock.set_cursor(base)
    clock.charge(dev_a, "read", 0, model)
    end_a = clock.cursor()
    clock.set_cursor(base)
    clock.charge(dev_b, "read", 0, model)
    end_b = clock.cursor()
    clock.join([end_a, end_b])
    assert end_a == end_b == base + cost
    assert clock.elapsed == base + cost

    # Two forked contexts on the *same* device: the second access finds
    # the device busy and serializes behind the first.
    base = clock.cursor()
    clock.charge(dev_a, "read", 100, model)
    first_end = clock.cursor()
    clock.set_cursor(base)
    clock.charge(dev_a, "read", 200, model)
    second_end = clock.cursor()
    assert second_end > first_end  # waited for the device
    assert second_end == first_end + cost


def test_advance_is_cpu_only_and_horizon_is_monotonic():
    clock = SimClock()
    device = clock.register_device()
    clock.advance(50.0)
    assert clock.cursor() == 50.0
    assert clock.elapsed == 50.0
    assert clock.device_free_at(device) == 0.0  # no device was touched
    with pytest.raises(ValueError):
        clock.advance(-1.0)
    # Moving a context backwards never moves the horizon backwards.
    clock.set_cursor(0.0)
    assert clock.elapsed == 50.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_advance_refuses_a_non_finite_step_and_leaves_the_clock_alone(bad):
    # advance(nan) used to leave cursor() at NaN for good with elapsed
    # at 0.0: every later max/> compared false and the run reported no
    # time at all.
    clock = SimClock()
    clock.advance(7.0)
    with pytest.raises(ValueError, match="dt"):
        clock.advance(bad)
    assert clock.cursor() == 7.0
    assert clock.elapsed == 7.0
    assert clock.advance(0.0) == 7.0
    assert clock.advance(3.0) == clock.elapsed == 10.0


# ----------------------------------------------------------------------
# TimedDisk
# ----------------------------------------------------------------------


def make_timed(profile="hdd"):
    clock = SimClock()
    model = LatencyModel(profile)
    disk = TimedDisk(SimulatedDisk(page_size=256), clock, model, name="t0")
    return disk, clock, model


def test_timed_disk_charges_reads_and_writes():
    disk, clock, model = make_timed()
    page = disk.allocate()
    assert clock.elapsed == 0.0  # allocation costs no time
    disk.write(page, b"x" * 10)
    write_cost, _ = model.access_cost("write", page, None)
    assert clock.elapsed == write_cost
    disk.read(page)  # same page: sequential, transfer only
    assert clock.elapsed == write_cost + model.profile.read_us
    assert disk.latency.writes == 1 and disk.latency.reads == 1
    assert disk.latency.sequential_hits == 1 and disk.latency.seeks == 1
    assert disk.latency.busy_us == clock.elapsed


def test_timed_disk_counters_match_the_plain_stack():
    """Timing is layered on, never changes what the counters say."""
    plain = SimulatedDisk(page_size=256)
    timed, _, _ = make_timed()
    for disk in (plain, timed):
        first = disk.allocate()
        second = disk.allocate()
        disk.write(first, b"a")
        disk.write(second, b"b")
        disk.read(first)
        disk.read(first)
    assert timed.stats.snapshot() == plain.stats.snapshot()
    assert timed.page_count == plain.page_count
    assert timed.allocated_count == plain.allocated_count
    assert timed.contains(0) and not timed.contains(5)
    assert timed.page_size == plain.page_size


def test_failed_access_charges_no_time():
    disk, clock, _ = make_timed()
    with pytest.raises(KeyError):
        disk.read(99)  # never allocated
    assert clock.elapsed == 0.0
    assert disk.latency.accesses == 0


def test_timed_disk_sequential_sweep_is_cheaper_than_random():
    disk, clock, model = make_timed("hdd")
    pages = [disk.allocate() for _ in range(8)]
    for page in pages:
        disk.write(page, b"x")
    sweep_start = clock.elapsed
    for page in pages:  # ascending: one seek, then sequential
        disk.read(page)
    sweep_cost = clock.elapsed - sweep_start
    random_start = clock.elapsed
    for page in reversed(pages):  # descending: every access seeks
        disk.read(page)
    random_cost = clock.elapsed - random_start
    assert sweep_cost < random_cost
    assert disk.latency.sequential_ratio > 0


# ----------------------------------------------------------------------
# IOScheduler
# ----------------------------------------------------------------------


def scheduler_world(n_devices=3, profile="hdd"):
    clock = SimClock()
    model = LatencyModel(profile)
    disks = [
        TimedDisk(SimulatedDisk(page_size=256), clock, model, name=f"d{i}")
        for i in range(n_devices)
    ]
    for disk in disks:
        page = disk.allocate()
        disk.write(page, b"x")
    return clock, disks


def touch(disk, times=4):
    def job():
        for _ in range(times):
            disk.read(0)
        return disk.latency.reads

    return job


def test_scheduler_overlaps_distinct_devices():
    clock, disks = scheduler_world(3)
    serial_start = clock.elapsed
    for disk in disks:
        disk.read(0)
    serial_cost = clock.elapsed - serial_start

    overlapped = IOScheduler(clock)
    start = clock.elapsed
    results = overlapped.run([touch(disk, 1) for disk in disks])
    overlapped_cost = clock.elapsed - start
    assert len(results) == 3
    # Each job re-reads its device's page 0 (sequential): the overlapped
    # round costs one transfer, the serial round three.
    assert overlapped_cost * 3 == pytest.approx(serial_cost)


def test_scheduler_runs_jobs_in_order_on_the_calling_thread():
    """The fork/join is virtual only: every job runs inline, in job
    order, yet each starts at the fork cursor — per-job ends are each
    job's own cost and the joined elapsed time is their max, not sum."""
    clock, disks = scheduler_world(4)
    ran = []

    def job(tag, times):
        def run():
            ran.append((tag, threading.get_ident()))
            for _ in range(times):
                disks[tag].read(0)
            return tag

        return run

    base = clock.cursor()
    results, ends = IOScheduler(clock).run_timed(
        [job(tag, times) for tag, times in enumerate((1, 4, 2, 3))]
    )
    assert results == [0, 1, 2, 3]
    assert ran == [(tag, threading.get_ident()) for tag in range(4)]
    transfer = PROFILES["hdd"].read_us  # page 0 again: sequential, no seek
    assert [end - base for end in ends] == pytest.approx(
        [transfer * times for times in (1, 4, 2, 3)]
    )
    assert clock.cursor() == max(ends)
    assert clock.elapsed - base == pytest.approx(4 * transfer)


def test_scheduler_runs_every_job_and_raises_the_first_failure():
    clock, disks = scheduler_world(3)
    seen = []

    def ok(tag):
        def job():
            seen.append(tag)
            disks[tag].read(0)

        return job

    def boom():
        raise RuntimeError("first")

    def boom2():
        raise ValueError("second")

    before = clock.elapsed
    with pytest.raises(RuntimeError, match="first"):
        IOScheduler(clock).run([ok(0), boom, ok(2), boom2])
    assert seen == [0, 2]  # later jobs still ran (and charged time)
    assert clock.elapsed > before
    assert clock.cursor() == clock.elapsed  # ends joined before the raise


def test_scheduler_without_clock_degrades_to_plain_execution():
    scheduler = IOScheduler()
    assert not scheduler.overlapped
    assert scheduler.run([]) == []
    results, ends = scheduler.run_timed([lambda: 1, lambda: 2])
    assert results == [1, 2]
    assert ends == [0.0, 0.0]


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------


def test_latency_view_aggregates_and_resets():
    first, second = LatencyStats(), LatencyStats()
    first.record("read", 10.0, False)
    second.record("write", 5.0, True)
    view = LatencyView([first, second])
    assert view.reads == 1 and view.writes == 1
    assert view.busy_us == 15.0
    assert view.seeks == 1 and view.sequential_hits == 1
    assert view.sequential_ratio == 0.5
    view.reset()
    assert view.busy_us == 0.0 and first.reads == 0 and second.writes == 0
    with pytest.raises(ValueError):
        LatencyView([])


def test_stats_view_carries_the_latency_aggregate():
    disk, clock, _ = make_timed()
    page = disk.allocate()
    disk.write(page, b"x")
    view = StatsView([disk.stats], latency=LatencyView([disk.latency]))
    assert view.latency.busy_us == clock.elapsed
    assert view.snapshot()["latency"]["writes"] == 1
    view.reset()
    assert view.physical_writes == 0 and view.latency.busy_us == 0.0
    # Untimed deployments carry no latency surface.
    assert StatsView([SimulatedDisk().stats]).latency is None
