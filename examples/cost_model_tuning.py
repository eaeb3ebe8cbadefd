"""Cost-model calibration: predict PRQ I/O before building an index.

Section 6 of the paper derives an analytical I/O cost function for
privacy-aware range queries on the PEB-tree (Equations 6-7) whose two
density coefficients are fitted from just two measured sample points.
A capacity planner can calibrate once on small deployments and then
predict query cost across population sizes and policy mixes.

This script measures two small configurations, calibrates the model,
predicts a sweep of intermediate configurations, and compares the
predictions against fresh measurements — a miniature Figure 19.

Run with::

    python examples/cost_model_tuning.py
"""

from repro import CostModel, ExperimentConfig, ExperimentHarness
from repro.core.cost_model import CostSample

BASE = ExperimentConfig(
    n_users=1000,
    n_policies=15,
    grouping_factor=0.7,
    n_queries=20,
    page_size=1024,
    buffer_pages=50,
    build_buffer_pages=4096,
    seed=23,
)


def measure(n_users: int) -> CostSample:
    harness = ExperimentHarness(BASE.scaled(n_users=n_users))
    costs = harness.run_prq_batch()
    return CostSample(
        n_users=n_users,
        n_policies=BASE.n_policies,
        theta=BASE.grouping_factor,
        n_leaves=harness.peb.btree.leaf_count,
        measured_io=costs.peb_io,
    )


def main():
    print("measuring two calibration points (small deployments)...")
    low = measure(800)
    high = measure(2400)
    print(
        f"  {low.n_users} users -> {low.measured_io:.2f} I/O per query\n"
        f"  {high.n_users} users -> {high.measured_io:.2f} I/O per query"
    )

    model = CostModel.calibrate(low, high, BASE.space_side)
    print(f"calibrated Equation 7: a1={model.a1:.4g}, a2={model.a2:.4g}\n")

    print(f"{'users':>8} {'predicted':>10} {'measured':>10} {'error':>8}")
    print("-" * 40)
    for n_users in (1200, 1600, 2000):
        sample = measure(n_users)
        predicted = model.estimate(
            n_users, BASE.n_policies, BASE.grouping_factor, sample.n_leaves
        )
        error = abs(predicted - sample.measured_io) / max(sample.measured_io, 1e-9)
        print(
            f"{n_users:>8} {predicted:>10.2f} {sample.measured_io:>10.2f} "
            f"{error:>7.0%}"
        )

    print(
        "\nthe model folds every non-density effect into two constants "
        "(Section 6); Figure 19's conclusion is that this already tracks "
        "the measured cost quite well"
    )


if __name__ == "__main__":
    main()
