"""Tests for the analytical cost model (Section 6, Equations 6-7)."""

import pytest

from repro.core.cost_model import (
    CostModel,
    CostSample,
    base_cost,
)


def test_base_cost_at_theta_one_is_minimum():
    """θ = 1: perfectly grouped users cost the single-leaf minimum."""
    assert base_cost(n_policies=50, theta=1.0, n_leaves=1000) == pytest.approx(1.0)


def test_base_cost_at_theta_zero_is_worst_case():
    """θ = 0: Np**0 = 1, each related user may cost its own leaf."""
    assert base_cost(50, 0.0, 1000) == pytest.approx(1.0 + 50 - 1)


def test_base_cost_clamps_to_leaf_count():
    """More policies than leaves: the index size bounds the cost."""
    assert base_cost(n_policies=5000, theta=0.5, n_leaves=100) == pytest.approx(
        1.0 + 100 - 5000**0.5
    )


def test_base_cost_monotone_in_theta():
    costs = [base_cost(50, theta / 10, 1000) for theta in range(11)]
    assert costs == sorted(costs, reverse=True)


def test_validation():
    with pytest.raises(ValueError):
        base_cost(-1, 0.5, 10)
    with pytest.raises(ValueError):
        base_cost(10, 1.5, 10)
    with pytest.raises(ValueError):
        base_cost(10, 0.5, 0)


def sample(n_users, measured, n_policies=50, theta=0.7, n_leaves=1000):
    return CostSample(
        n_users=n_users,
        n_policies=n_policies,
        theta=theta,
        n_leaves=n_leaves,
        measured_io=measured,
    )


def test_calibration_recovers_known_coefficients():
    truth = CostModel(a1=10.0, a2=0.3, space_side=1000.0)
    first = sample(20_000, truth.estimate(20_000, 50, 0.7, 1000))
    second = sample(80_000, truth.estimate(80_000, 50, 0.7, 1000))
    fitted = CostModel.calibrate(first, second, 1000.0)
    assert fitted.a1 == pytest.approx(10.0)
    assert fitted.a2 == pytest.approx(0.3)


def test_calibrated_model_interpolates():
    truth = CostModel(a1=7.0, a2=0.5, space_side=1000.0)
    fitted = CostModel.calibrate(
        sample(10_000, truth.estimate(10_000, 50, 0.7, 1000)),
        sample(100_000, truth.estimate(100_000, 50, 0.7, 1000)),
        1000.0,
    )
    for n_users in (30_000, 50_000, 70_000):
        assert fitted.estimate(n_users, 50, 0.7, 1000) == pytest.approx(
            truth.estimate(n_users, 50, 0.7, 1000)
        )


def test_calibration_rejects_equal_densities():
    with pytest.raises(ValueError):
        CostModel.calibrate(sample(10_000, 5.0), sample(10_000, 6.0), 1000.0)


def test_calibration_rejects_theta_one_samples():
    with pytest.raises(ValueError):
        CostModel.calibrate(
            sample(10_000, 5.0, theta=1.0), sample(20_000, 6.0), 1000.0
        )


def test_estimate_grows_linearly_with_users():
    model = CostModel(a1=10.0, a2=0.3, space_side=1000.0)
    deltas = []
    previous = None
    for n_users in range(10_000, 100_001, 10_000):
        cost = model.estimate(n_users, 50, 0.7, 1000)
        if previous is not None:
            deltas.append(cost - previous)
        previous = cost
    assert all(delta == pytest.approx(deltas[0]) for delta in deltas)


def test_estimate_decreases_with_grouping():
    model = CostModel(a1=10.0, a2=0.3, space_side=1000.0)
    costs = [model.estimate(60_000, 50, theta / 10, 1000) for theta in range(11)]
    assert costs == sorted(costs, reverse=True)
    assert costs[-1] == pytest.approx(1.0)  # θ = 1 -> single-leaf minimum
