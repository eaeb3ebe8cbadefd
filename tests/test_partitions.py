"""Tests for label timestamps and time partitions (Figure 1, Equation 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion.partitions import TimePartitioner


def test_paper_example():
    """Section 2.1: with n = 2, updates in (0, Δt_mu/2] are indexed as of
    t_lab = Δt_mu, which is partition 1 ('01' in binary)."""
    partitioner = TimePartitioner(max_update_interval=120.0, n=2)
    assert partitioner.phase == 60.0
    for t_update in (0.001, 30.0, 59.9, 60.0):
        assert partitioner.label_timestamp(t_update) == 120.0
        assert partitioner.partition(t_update) == 1


def test_label_at_exact_multiple():
    partitioner = TimePartitioner(120.0, 2)
    # An update exactly on a label is indexed one phase ahead.
    assert partitioner.label_timestamp(0.0) == 60.0
    assert partitioner.label_timestamp(120.0) == 180.0


def test_partition_cycles_through_n_plus_one():
    partitioner = TimePartitioner(120.0, 2)
    labels = [60.0 * i for i in range(1, 8)]
    partitions = [partitioner.partition_of_label(label) for label in labels]
    assert partitions == [0, 1, 2, 0, 1, 2, 0]
    assert partitioner.num_partitions == 3


def test_live_labels_at_time_zero():
    partitioner = TimePartitioner(120.0, 2)
    assert partitioner.live_labels(0.0) == [60.0]


def test_live_labels_mid_phase():
    partitioner = TimePartitioner(120.0, 2)
    labels = partitioner.live_labels(130.0)
    assert labels == [120.0, 180.0, 240.0]
    # Distinct partition ids -> no double scan of one partition.
    partitions = [partitioner.partition_of_label(label) for label in labels]
    assert len(set(partitions)) == len(partitions)


def test_live_labels_keep_the_deadline_inclusive():
    """An object updated at ``t_u`` may go un-updated until exactly
    ``t_u + Δt_mu``; a query at that instant must still scan its label."""
    partitioner = TimePartitioner(120.0, 2)
    assert partitioner.live_labels(119.999) == [60.0, 120.0, 180.0]
    assert partitioner.live_labels(120.0) == [60.0, 120.0, 180.0]
    assert partitioner.live_labels(120.001) == [120.0, 180.0, 240.0]
    assert partitioner.live_labels(60.0) == [60.0, 120.0]
    assert partitioner.live_labels(180.0) == [120.0, 180.0, 240.0]
    for n in range(1, 6):
        partitioner = TimePartitioner(120.0, n)
        for multiple in range(n, 4 * n + 1):
            now = multiple * partitioner.phase
            # Updated exactly Δt_mu ago: label one phase after the update.
            label = partitioner.label_timestamp(now - 120.0)
            live = partitioner.live_labels(now)
            assert live[0] == pytest.approx(label)
            assert len(live) == partitioner.num_partitions
            partitions = [partitioner.partition_of_label(lab) for lab in live]
            assert sorted(partitions) == list(range(partitioner.num_partitions))


def test_live_labels_bounded_by_partition_count():
    partitioner = TimePartitioner(120.0, 4)
    for now in (0.0, 10.0, 59.0, 140.0, 1234.5):
        labels = partitioner.live_labels(now)
        assert 1 <= len(labels) <= partitioner.num_partitions


def test_invalid_parameters():
    with pytest.raises(ValueError):
        TimePartitioner(0.0, 2)
    with pytest.raises(ValueError):
        TimePartitioner(120.0, 0)


@settings(max_examples=200, deadline=None)
@given(
    t_update=st.floats(min_value=0, max_value=1e6),
    n=st.integers(min_value=1, max_value=6),
)
def test_label_is_a_future_phase_multiple(t_update, n):
    partitioner = TimePartitioner(120.0, n)
    label = partitioner.label_timestamp(t_update)
    phase = partitioner.phase
    assert label > t_update  # indexed strictly in the future
    assert label <= t_update + 2 * phase + 1e-6
    assert abs(label / phase - round(label / phase)) < 1e-6


@settings(max_examples=200, deadline=None)
@given(now=st.floats(min_value=0, max_value=1e5), n=st.integers(1, 5))
def test_update_labels_are_always_live(now, n):
    """An object updated at ``tu <= now`` within its deadline must land in
    one of the labels query processing scans."""
    partitioner = TimePartitioner(120.0, n)
    live = partitioner.live_labels(now)
    # Updates anywhere in the last Δt_mu (the freshness window).
    for back in (0.0, 1.0, 30.0, 60.0, 119.9):
        t_update = now - back
        if t_update < 0:
            continue
        label = partitioner.label_timestamp(t_update)
        assert label in live or t_update + partitioner.max_update_interval <= now
