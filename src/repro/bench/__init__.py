"""Experiment harness: workload assembly, I/O measurement, reporting.

* :mod:`repro.bench.oracle` — brute-force evaluators of PRQ/PkNN used as
  the correctness ground truth everywhere;
* :mod:`repro.bench.world` — builds the PEB-tree and the spatial-filter
  baseline over one shared workload (``build_world(config)``);
* :mod:`repro.bench.harness` — measures average I/O per query on such a
  world under the paper's 50-page LRU buffer;
* :mod:`repro.bench.experiments` — per-figure parameter sweeps;
* :mod:`repro.bench.reporting` — plain-text series tables;
* :mod:`repro.bench.report` — the EXPERIMENTS.md generator with
  automatic paper-vs-measured shape verdicts.
"""

from repro.bench.harness import ExperimentConfig, ExperimentHarness, QueryCosts
from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.bench.world import World, build_world

__all__ = [
    "ExperimentConfig",
    "ExperimentHarness",
    "QueryCosts",
    "World",
    "brute_force_pknn",
    "brute_force_prq",
    "build_world",
]
