"""Tests for the experiment harness: I/O accounting, update rounds, and
result equivalence at measurement time."""

import pytest

from repro.bench.harness import ExperimentConfig, ExperimentHarness


def small_config(**overrides):
    # 400 users: the Bx baseline's 26 leaves overflow the 20-frame query
    # buffer (at 300 users its 18 leaves fit in it and read nothing).
    fields = dict(
        n_users=400,
        n_policies=8,
        n_queries=6,
        window_side=250.0,
        k=3,
        page_size=1024,
        buffer_pages=20,
        build_buffer_pages=512,
        seed=13,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(small_config())


def test_build_populates_both_indexes(harness):
    assert len(harness.peb) == 400
    assert len(harness.bx) == 400
    assert harness.peb.btree.leaf_count > 1


def test_prq_batch_measures_and_verifies(harness):
    costs = harness.run_prq_batch(check_results=True)
    assert costs.n_queries == 6
    assert costs.peb_io >= 0
    assert costs.baseline_io > 0
    assert len(costs.peb_result_sizes) == 6


def test_pknn_batch_measures_and_verifies(harness):
    costs = harness.run_pknn_batch(check_results=True)
    assert costs.baseline_io > 0
    assert costs.speedup > 0


def test_window_override_changes_workload(harness):
    wide = harness.run_prq_batch(window_side=900.0)
    narrow = harness.run_prq_batch(window_side=50.0)
    assert wide.baseline_io > narrow.baseline_io


def test_k_override(harness):
    costs = harness.run_pknn_batch(check_results=True, k=1)
    assert costs.n_queries == 6


#: curve -> the Bx-tree baseline's physical reads over a whole batch of
#: 12 PRQs and 12 PkNNs.  The baseline turns each query strip into
#: curve intervals through ``Grid.decompose``, so these numbers move
#: when the decomposition does; recorded while Z had its own descent,
#: lowered from z (73, 299) and hilbert (19, 128) when a band scan
#: stopped reading the leaf past its landing leaf's upper separator, and
#: raised from z (65, 251) and hilbert (19, 126) when every measured
#: phase began on an empty pool (the PRQ batch had inherited the pages
#: the build left resident, the PkNN batch those the PRQ batch left).
BASELINE_READS = {"z": (76, 260), "hilbert": (31, 142)}


@pytest.mark.parametrize("curve", sorted(BASELINE_READS))
def test_baseline_io_golden(curve):
    harness = ExperimentHarness(small_config(curve=curve, n_queries=12))
    prq_costs = harness.run_prq_batch(check_results=True)
    knn_costs = harness.run_pknn_batch(check_results=True)
    assert (
        prq_costs.baseline_io * prq_costs.n_queries,
        knn_costs.baseline_io * knn_costs.n_queries,
    ) == BASELINE_READS[curve]


def test_a_pknn_batch_starts_cold_after_a_prq_batch():
    """Every measured phase starts from an empty pool: the same PkNN
    batch reads the same pages on a freshly built harness and after a
    PRQ batch has run on it."""
    harness = ExperimentHarness(small_config(seed=5))
    stream = harness.query_rng.getstate()
    first = harness.run_pknn_batch()
    harness.run_prq_batch()
    harness.query_rng.setstate(stream)
    again = harness.run_pknn_batch()
    assert first.peb_io > 0
    assert (again.peb_io, again.baseline_io) == (first.peb_io, first.baseline_io)


def test_measurement_resets_counters(harness):
    harness.run_prq_batch()
    first = harness.peb.stats.physical_reads
    harness.run_prq_batch()
    # The second batch starts from zero — counters do not accumulate.
    assert harness.peb.stats.physical_reads <= first * 2 + 10


def test_network_distribution_builds():
    config = small_config(distribution="network", n_destinations=20, n_users=150)
    harness = ExperimentHarness(config)
    costs = harness.run_prq_batch(check_results=True)
    assert costs.n_queries == 6


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        ExperimentHarness(small_config(distribution="clustered"))


def test_update_rounds_keep_results_correct():
    harness = ExperimentHarness(small_config(n_users=200))
    for _ in range(3):
        harness.apply_update_round(0.25)
        costs = harness.run_prq_batch(check_results=True)
        assert costs.n_queries == 6
    assert harness.now == pytest.approx(3 * 0.25 * 120.0)
    knn_costs = harness.run_pknn_batch(check_results=True)
    assert knn_costs.n_queries == 6


def test_update_round_validates_fraction():
    harness = ExperimentHarness(small_config(n_users=100))
    with pytest.raises(ValueError):
        harness.apply_update_round(0.0)
    with pytest.raises(ValueError):
        harness.apply_update_round(1.5)


def test_config_scaled_helper():
    config = small_config()
    bigger = config.scaled(n_users=500)
    assert bigger.n_users == 500
    assert bigger.n_policies == config.n_policies
    assert config.n_users == 400  # original untouched


def test_run_sharded_measures_and_verifies(harness):
    costs = harness.run_sharded(2, workload="uniform", n_updates=150, n_queries=5)
    assert costs.n_shards == 2
    assert costs.workload == "uniform"
    assert 0 < costs.ops_applied <= 150
    assert costs.n_queries == 5
    assert costs.balance_skew >= 1.0
    assert costs.single_ops_per_write > 0
    assert costs.sharded_ops_per_write > 0
    # The harness's own indexes stay untouched.
    assert harness.now == 0.0
    assert len(harness.peb) == 400


def test_run_sharded_hotspot_workload(harness):
    costs = harness.run_sharded(2, workload="hotspot", n_updates=150, n_queries=5)
    assert costs.workload == "hotspot"
    assert costs.ops_applied > 0
    assert costs.sharded_query_reads >= 0


def test_run_sharded_same_seed_same_workload(harness):
    first = harness.run_sharded(1, workload="uniform", n_updates=80, n_queries=4)
    second = harness.run_sharded(2, workload="uniform", n_updates=80, n_queries=4)
    # Identical workload across shard counts: same ops and same
    # single-tree reference numbers row to row.
    assert first.ops_applied == second.ops_applied
    assert first.single_update_writes == second.single_update_writes
    assert first.single_query_reads == second.single_query_reads


def test_run_sharded_validates_inputs(harness):
    with pytest.raises(ValueError):
        harness.run_sharded(0)
    with pytest.raises(ValueError):
        harness.run_sharded(2, workload="frob")
