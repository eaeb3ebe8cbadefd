"""Per-figure experiment drivers (Section 7).

Every figure of the paper's evaluation has a function here that runs the
corresponding parameter sweep and returns its series as a list of row
dicts; the ``benchmarks/`` suite wraps these in pytest-benchmark targets
and prints paper-style tables.

Two scale presets exist:

* ``reduced`` (default) — the same sweeps scaled down ~10x so the whole
  suite runs in minutes of pure Python.  The page size shrinks from
  4 KiB to 1 KiB so the index-pages : buffer-pages ratio stays in the
  paper's regime (a 50-page buffer must not swallow the whole tree).
* ``paper`` — Table 1 verbatim (60 K users default, sweeps to 100 K,
  200 queries, 4 KiB pages).  Select with ``REPRO_SCALE=paper``.

Trends, winners, and crossovers are preserved at reduced scale because
every cost is a page read of the same buffer-managed geometry.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.core.cost_model import CostModel, CostSample
from repro.core.sequencing import assign_sequence_values
from repro.workloads.policies import PolicyGenerator


@dataclass(frozen=True)
class ScalePreset:
    """One bundle of sweep values and base configuration."""

    name: str
    base: ExperimentConfig
    user_sweep: tuple[int, ...]
    policy_sweep: tuple[int, ...]
    theta_sweep: tuple[float, ...]
    window_sweep: tuple[float, ...]
    k_sweep: tuple[int, ...]
    speed_sweep: tuple[float, ...]
    destination_sweep: tuple[int, ...]
    update_rounds: int = 8
    encoding_user_sweep: tuple[int, ...] = ()
    encoding_policy_sweep: tuple[int, ...] = ()


REDUCED = ScalePreset(
    name="reduced",
    base=ExperimentConfig(
        n_users=4000,
        n_policies=20,
        n_queries=25,
        window_side=200.0,
        k=5,
        page_size=1024,
        buffer_pages=50,
        build_buffer_pages=8192,
    ),
    user_sweep=(1000, 2000, 4000, 6000, 8000),
    policy_sweep=(5, 10, 20, 30, 40),
    theta_sweep=(0.0, 0.3, 0.5, 0.7, 0.9, 1.0),
    window_sweep=(50.0, 100.0, 200.0, 400.0, 600.0, 1000.0),
    k_sweep=(1, 2, 3, 5, 8, 10),
    speed_sweep=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    destination_sweep=(25, 50, 100, 200, 500),
    update_rounds=8,
    encoding_user_sweep=(1000, 2000, 4000, 8000, 16000),
    encoding_policy_sweep=(5, 10, 20, 40, 80),
)

PAPER = ScalePreset(
    name="paper",
    base=ExperimentConfig(),  # Table 1 defaults
    user_sweep=tuple(range(10_000, 100_001, 10_000)),
    policy_sweep=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    theta_sweep=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    window_sweep=tuple(float(w) for w in range(100, 1001, 100)),
    k_sweep=tuple(range(1, 11)),
    speed_sweep=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    destination_sweep=(25, 50, 100, 200, 300, 400, 500),
    update_rounds=8,
    encoding_user_sweep=tuple(range(10_000, 100_001, 10_000)),
    encoding_policy_sweep=(10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
)


def scale_preset() -> ScalePreset:
    """The preset selected by the ``REPRO_SCALE`` environment variable."""
    name = os.environ.get("REPRO_SCALE", "reduced").strip().lower()
    if name == "paper":
        return PAPER
    if name == "reduced":
        return REDUCED
    raise ValueError(f"unknown REPRO_SCALE {name!r}; use 'reduced' or 'paper'")


@dataclass
class HarnessCache:
    """Builds each configuration at most once per benchmark session."""

    _cache: dict[ExperimentConfig, ExperimentHarness] = field(default_factory=dict)

    def get(self, config: ExperimentConfig) -> ExperimentHarness:
        if config not in self._cache:
            self._cache[config] = ExperimentHarness(config)
        return self._cache[config]

    def clear(self) -> None:
        self._cache.clear()


# ----------------------------------------------------------------------
# Figure 11 — preprocessing time for policy encoding
# ----------------------------------------------------------------------

def encode_only(
    n_users: int, n_policies: int, theta: float, base: ExperimentConfig
) -> float:
    """Policy-encoding wall-clock seconds for one population.

    Builds only the policy store and runs the sequence-value assignment —
    no movement, no trees — mirroring what Figure 11 times.
    """
    rng = random.Random(base.seed + 1)
    generator = PolicyGenerator(base.space_side, base.time_domain, rng)
    store = generator.generate(list(range(n_users)), n_policies, theta)
    report = assign_sequence_values(
        list(range(n_users)), store, base.space_side**2
    )
    return report.elapsed_seconds


def fig11a_encoding_vs_users(preset: ScalePreset) -> list[dict]:
    """Figure 11(a): encoding time while the user count grows."""
    rows = []
    for n_users in preset.encoding_user_sweep:
        seconds = encode_only(
            n_users, preset.base.n_policies, preset.base.grouping_factor, preset.base
        )
        rows.append({"n_users": n_users, "seconds": seconds})
    return rows


def fig11b_encoding_vs_policies(preset: ScalePreset) -> list[dict]:
    """Figure 11(b): encoding time while policies per user grow."""
    rows = []
    for n_policies in preset.encoding_policy_sweep:
        seconds = encode_only(
            preset.base.n_users, n_policies, preset.base.grouping_factor, preset.base
        )
        rows.append({"n_policies": n_policies, "seconds": seconds})
    return rows


# ----------------------------------------------------------------------
# Query-cost sweeps (Figures 12-17)
# ----------------------------------------------------------------------

def _measure(harness: ExperimentHarness) -> dict:
    prq_costs = harness.run_prq_batch()
    knn_costs = harness.run_pknn_batch()
    return {
        "prq_peb": prq_costs.peb_io,
        "prq_base": prq_costs.baseline_io,
        "knn_peb": knn_costs.peb_io,
        "knn_base": knn_costs.baseline_io,
        "peb_leaves": harness.peb.btree.leaf_count,
    }


def fig12_vs_users(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figures 12(a)/(b): PRQ and PkNN I/O while the population grows."""
    rows = []
    for n_users in preset.user_sweep:
        harness = cache.get(preset.base.scaled(n_users=n_users))
        rows.append({"n_users": n_users, **_measure(harness)})
    return rows


def fig13_vs_policies(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figures 13(a)/(b): I/O while policies per user grow."""
    rows = []
    for n_policies in preset.policy_sweep:
        harness = cache.get(preset.base.scaled(n_policies=n_policies))
        rows.append({"n_policies": n_policies, **_measure(harness)})
    return rows


def fig14_vs_grouping(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figures 14(a)/(b): I/O across the grouping factor."""
    rows = []
    for theta in preset.theta_sweep:
        harness = cache.get(preset.base.scaled(grouping_factor=theta))
        rows.append({"theta": theta, **_measure(harness)})
    return rows


def fig15a_vs_window(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figure 15(a): PRQ I/O across the query-window side length."""
    harness = cache.get(preset.base)
    rows = []
    for window_side in preset.window_sweep:
        costs = harness.run_prq_batch(window_side=window_side)
        rows.append(
            {
                "window": window_side,
                "prq_peb": costs.peb_io,
                "prq_base": costs.baseline_io,
            }
        )
    return rows


def fig15b_vs_k(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figure 15(b): PkNN I/O across k."""
    harness = cache.get(preset.base)
    rows = []
    for k in preset.k_sweep:
        costs = harness.run_pknn_batch(k=k)
        rows.append(
            {"k": k, "knn_peb": costs.peb_io, "knn_base": costs.baseline_io}
        )
    return rows


def fig16_vs_destinations(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figures 16(a)/(b): network datasets with varying hub counts."""
    rows = []
    for n_destinations in preset.destination_sweep:
        harness = cache.get(
            preset.base.scaled(
                distribution="network", n_destinations=n_destinations
            )
        )
        rows.append({"destinations": n_destinations, **_measure(harness)})
    # The paper also plots the uniform dataset as the unskewed extreme.
    harness = cache.get(preset.base)
    rows.append({"destinations": 0, **_measure(harness)})
    return rows


def fig17_vs_speed(preset: ScalePreset, cache: HarnessCache) -> list[dict]:
    """Figures 17(a)/(b): I/O across the maximum object speed."""
    rows = []
    for max_speed in preset.speed_sweep:
        harness = cache.get(preset.base.scaled(max_speed=max_speed))
        rows.append({"max_speed": max_speed, **_measure(harness)})
    return rows


def fig18_vs_updates(preset: ScalePreset) -> list[dict]:
    """Figures 18(a)/(b): I/O after successive 25% update batches.

    Not cached: the harness is mutated by the update rounds.
    """
    harness = ExperimentHarness(preset.base)
    rows = [{"updated_pct": 0, **_measure(harness)}]
    for round_index in range(1, preset.update_rounds + 1):
        harness.apply_update_round(0.25)
        rows.append({"updated_pct": round_index * 25, **_measure(harness)})
    return rows


def fig18_update_io(preset: ScalePreset, batch_size: int = 256) -> list[dict]:
    """Figure 18, write-path variant: amortized update I/O per step.

    The paper's Figure 18 tracks *query* cost while the data set churns;
    this variant reports what each 25% churn step itself costs — the
    physical reads + writes per update when the round is applied
    one :meth:`PEBTree.update` at a time versus through the batch
    update pipeline at ``batch_size``, measured from a cold paper-sized
    buffer on physically identical trees (checkpoint clone).  Not
    cached: the harness is mutated by the update rounds.
    """
    harness = ExperimentHarness(preset.base)
    rows = []
    for round_index in range(1, preset.update_rounds + 1):
        costs = harness.run_batched_updates(batch_size=batch_size)
        rows.append(
            {
                "updated_pct": round_index * 25,
                "seq_io": costs.sequential_io,
                "batched_io": costs.batched_io,
                "io_reduction": costs.io_reduction,
                "in_place_ratio": costs.in_place_ratio,
                "descents_saved": costs.descents_saved,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 19 — cost-model validation
# ----------------------------------------------------------------------

def _sample_from_row(row: dict, preset: ScalePreset, **overrides) -> CostSample:
    merged = {
        "n_users": preset.base.n_users,
        "n_policies": preset.base.n_policies,
        "theta": preset.base.grouping_factor,
        **overrides,
    }
    return CostSample(
        n_users=merged["n_users"],
        n_policies=merged["n_policies"],
        theta=merged["theta"],
        n_leaves=row["peb_leaves"],
        measured_io=row["prq_peb"],
    )


def fig19_cost_model(preset: ScalePreset, cache: HarnessCache) -> dict:
    """Figure 19: estimated vs. measured PRQ I/O across N, Np, and θ.

    The model is calibrated from the two extreme points of the user sweep
    ("taking as input any two sample points ... with the same location
    distribution") and then evaluated against every measured point of the
    three sweeps.
    """
    user_rows = fig12_vs_users(preset, cache)
    policy_rows = fig13_vs_policies(preset, cache)
    theta_rows = fig14_vs_grouping(preset, cache)

    first = _sample_from_row(user_rows[0], preset, n_users=user_rows[0]["n_users"])
    last = _sample_from_row(user_rows[-1], preset, n_users=user_rows[-1]["n_users"])
    model = CostModel.calibrate(first, last, preset.base.space_side)

    def row_series(rows: list[dict], axis: str, **fixed) -> list[dict]:
        series = []
        for row in rows:
            params = {
                "n_users": preset.base.n_users,
                "n_policies": preset.base.n_policies,
                "theta": preset.base.grouping_factor,
                **fixed,
                axis: row[_AXIS_KEYS[axis]],
            }
            estimate = model.estimate(
                n_users=params["n_users"],
                n_policies=params["n_policies"],
                theta=params["theta"],
                n_leaves=row["peb_leaves"],
            )
            series.append(
                {
                    _AXIS_KEYS[axis]: row[_AXIS_KEYS[axis]],
                    "measured": row["prq_peb"],
                    "estimated": estimate,
                }
            )
        return series

    return {
        "model": model,
        "vs_users": row_series(user_rows, "n_users"),
        "vs_policies": row_series(policy_rows, "n_policies"),
        "vs_theta": row_series(theta_rows, "theta"),
    }


_AXIS_KEYS = {"n_users": "n_users", "n_policies": "n_policies", "theta": "theta"}
