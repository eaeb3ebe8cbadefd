"""Edge cases of the stats primitives the reports are built on.

``percentile`` / ``SojournSummary.of`` feed every latency table, and
``IOStats`` marks feed every before/after I/O delta — both have
boundary behaviors (empty samples, fractions at 0/1, unknown labels)
that the happy-path integration tests never touch.
"""

import pytest

from repro.service.stats import SojournSummary, percentile
from repro.storage.stats import IOStats, StatsView, merge_stats


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------


def test_percentile_empty_sample_is_zero():
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.0) == 0.0
    assert percentile([], 1.0) == 0.0


def test_percentile_single_element_every_fraction():
    for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert percentile([42.0], fraction) == 42.0


def test_percentile_fraction_bounds():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    # fraction 0 clamps the nearest rank to 1: the minimum.
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 0.5) == 3.0


def test_percentile_does_not_mutate_input():
    values = [3.0, 1.0, 2.0]
    percentile(values, 0.5)
    assert values == [3.0, 1.0, 2.0]


def test_percentile_out_of_range_fraction_raises():
    with pytest.raises(ValueError):
        percentile([1.0], -0.01)
    with pytest.raises(ValueError):
        percentile([1.0], 1.01)


def test_percentile_nearest_rank_matches_definition():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.99) == 99
    assert percentile(values, 0.501) == 51


def test_registry_histogram_quantiles_are_the_same_percentile():
    from repro.obs.metrics import MetricsRegistry

    sample = [float((7 * i) % 53) for i in range(1, 38)]  # unsorted, with ties
    registry = MetricsRegistry()
    for value in sample:
        registry.observe("sojourn_us", value, kind="range")
    summary = registry.snapshot()["histograms"]["sojourn_us"]["kind=range"]
    assert summary["p50"] == percentile(sample, 0.50)
    assert summary["p95"] == percentile(sample, 0.95)
    assert summary["p99"] == percentile(sample, 0.99)


# ----------------------------------------------------------------------
# SojournSummary.of
# ----------------------------------------------------------------------


def test_sojourn_summary_empty_is_all_zero():
    summary = SojournSummary.of([])
    assert summary.count == 0
    assert summary.mean_us == 0.0
    assert summary.p50_us == summary.p95_us == summary.p99_us == 0.0
    assert summary.max_us == 0.0


def test_sojourn_summary_single_element_collapses():
    summary = SojournSummary.of([7.5])
    assert summary.count == 1
    assert summary.mean_us == 7.5
    assert summary.p50_us == summary.p95_us == summary.p99_us == 7.5
    assert summary.max_us == 7.5


def test_sojourn_summary_percentiles_are_ordered():
    summary = SojournSummary.of([float(v) for v in range(1, 201)])
    assert summary.count == 200
    assert summary.p50_us <= summary.p95_us <= summary.p99_us <= summary.max_us
    assert summary.max_us == 200.0
    snapshot = summary.snapshot()
    assert snapshot["count"] == 200
    assert snapshot["p99_us"] == summary.p99_us


# ----------------------------------------------------------------------
# IOStats marks
# ----------------------------------------------------------------------


def test_iostats_default_and_named_marks_are_independent():
    stats = IOStats()
    stats.physical_reads = 10
    stats.mark()  # default label
    stats.physical_reads = 16
    stats.physical_writes = 3
    stats.mark("phase2")
    stats.physical_reads = 21
    stats.physical_writes = 8
    assert stats.reads_since() == 11
    assert stats.reads_since("phase2") == 5
    assert stats.writes_since() == 8
    assert stats.writes_since("phase2") == 5


def test_iostats_unknown_label_counts_from_zero():
    stats = IOStats(physical_reads=4, physical_writes=2)
    assert stats.reads_since("never-marked") == 4
    assert stats.writes_since("never-marked") == 2


def test_iostats_remarking_overwrites():
    stats = IOStats()
    stats.physical_reads = 5
    stats.mark("x")
    stats.physical_reads = 9
    stats.mark("x")
    assert stats.reads_since("x") == 0


def test_iostats_reset_clears_counters_and_marks():
    stats = IOStats(physical_reads=7, logical_reads=9)
    stats.mark("before")
    stats.reset()
    assert stats.physical_reads == 0
    assert stats.logical_reads == 0
    # The mark is gone: deltas restart from zero, not negative.
    stats.physical_reads = 2
    assert stats.reads_since("before") == 2


def test_iostats_hit_ratio_idle_and_busy():
    assert IOStats().hit_ratio == 1.0
    stats = IOStats(physical_reads=2, logical_reads=8)
    assert stats.hit_ratio == 0.75
    assert stats.total_io == 2


# ----------------------------------------------------------------------
# merge_stats / StatsView
# ----------------------------------------------------------------------


def test_merge_stats_view_is_live_and_snapshot_round_trips():
    first = IOStats(physical_reads=1, physical_writes=2, logical_reads=3)
    second = IOStats(physical_reads=10, logical_writes=4)
    view = merge_stats([first, second])
    assert view.physical_reads == 11
    assert view.snapshot() == {
        "physical_reads": 11,
        "physical_writes": 2,
        "logical_reads": 3,
        "logical_writes": 4,
    }
    # Live: later mutation of a member shows through the view.
    first.physical_reads += 5
    assert view.physical_reads == 16
    assert view.snapshot()["physical_reads"] == 16
    # Per-member snapshots are unaffected by aggregation.
    assert first.snapshot()["physical_reads"] == 6
    assert second.snapshot()["physical_reads"] == 10
    # Derived ratios come from the summed parts, never an average of
    # the members' own ratios (0.0 and 1.0 here would average to 0.5).
    busy = IOStats(physical_reads=4, logical_reads=4)
    idle = IOStats(physical_reads=0, logical_reads=12)
    assert merge_stats([busy, idle]).hit_ratio == 0.75
    assert merge_stats([busy, idle]).total_io == 4


def test_stats_view_reset_fans_out():
    parts = [IOStats(physical_reads=3), IOStats(physical_reads=4)]
    view = StatsView(parts)
    view.reset()
    assert view.physical_reads == 0
    assert all(part.physical_reads == 0 for part in parts)


def test_stats_view_rejects_empty_parts():
    with pytest.raises(ValueError):
        StatsView([])


def test_stats_view_latency_rides_along():
    from repro.simio.stats import LatencyStats, LatencyView

    device = LatencyStats()
    device.record("read", 120.0, sequential=False)
    device.record("write", 80.0, sequential=True)
    view = merge_stats([IOStats(physical_reads=2)], latency=LatencyView([device]))
    snapshot = view.snapshot()
    assert snapshot["latency"]["busy_us"] == 200.0
    assert snapshot["latency"]["sequential_ratio"] == 0.5
    view.reset()
    assert device.busy_us == 0.0
    # The latency rider is itself live, takes its ratio from the summed
    # parts (the members alone say 0.0 and 1.0), and fans reset() out.
    other = LatencyStats()
    pair = LatencyView([device, other])
    device.record("read", 100.0, sequential=False)
    for _ in range(3):
        other.record("write", 50.0, sequential=True)
    assert pair.busy_us == 250.0 and pair.accesses == 4
    assert pair.sequential_ratio == 0.75
    assert pair.snapshot()["sequential_ratio"] == 0.75
    pair.reset()
    assert device.seeks == 0 and other.writes == 0 and pair.busy_us == 0.0
