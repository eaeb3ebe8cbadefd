"""Smoke test of the benchmark itself, at ``--smoke`` sizes.

Checks the contract between ``BENCHMARK.json`` and what a run emits, the
answer check, the determinism guard and the ledger's coverage — not any
performance number.
"""

from __future__ import annotations

import re

import pytest

from perf import run, workloads

MANIFEST = run.load_manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 5


def _run(name: str, traced: bool) -> dict:
    return run.run_workload(name, SEED, 0.0, traced, workloads.SMOKE)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """Two untraced smoke runs and one traced smoke run of one workload."""
    name = request.param
    return [_run(name, False), _run(name, False)], _run(name, True)


def test_manifest_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert any(
        metric == {"name": "setup_s", "unit": "s", "better": "lower",
                   "bound": metric["bound"]}
        for metric in MANIFEST["end_to_end"]
    )


def test_every_declared_end_to_end_metric_is_present_and_nonzero(runs):
    untraced, _ = runs
    declared = {metric["name"] for metric in MANIFEST["end_to_end"]}
    for result in untraced:
        assert set(result["metrics"]) == declared
        assert all(value > 0 for value in result["metrics"].values())


def test_every_answer_is_correct(runs):
    untraced, traced = runs
    for result in untraced + [traced]:
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_counters_digest_repeats(runs):
    (first, second), _ = runs
    assert run.counters_digest(first["metrics"]) == run.counters_digest(
        second["metrics"]
    )


def test_traced_run_emits_the_declared_ledger_and_covers_the_pass(runs):
    _, traced = runs
    metrics = traced["metrics"]
    assert set(metrics) == {metric["name"] for metric in MANIFEST["per_layer"]}
    assert metrics["trace.unresolved_targets"] == 0
    assert 0.8 <= metrics["trace.coverage_frac"] <= 1.05
