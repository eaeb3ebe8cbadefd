"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

import repro.bench.experiments as experiments_module
from repro.bench.experiments import REDUCED
from repro.cli import EXPERIMENTS, build_parser, main


def tiny_preset():
    """A preset small enough for CLI tests to run in seconds."""
    return experiments_module.ScalePreset(
        name="tiny",
        base=REDUCED.base.scaled(n_users=300, n_policies=5, n_queries=4),
        user_sweep=(200, 300),
        policy_sweep=(4, 6),
        theta_sweep=(0.5, 1.0),
        window_sweep=(100.0, 300.0),
        k_sweep=(1, 3),
        speed_sweep=(1.0, 3.0),
        destination_sweep=(25,),
        update_rounds=2,
        encoding_user_sweep=(100, 200),
        encoding_policy_sweep=(3, 5),
    )


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_experiment_names_cover_every_figure():
    # Figures 11-18 all runnable individually (19 comes via `report`),
    # plus the write-path variant of 18.
    assert {
        "fig11a", "fig11b", "fig12", "fig15a", "fig15b", "fig18", "fig18u"
    } <= set(EXPERIMENTS)


def test_demo_runs_and_verifies(capsys):
    code = main(
        [
            "demo",
            "--users", "400",
            "--policies", "8",
            "--queries", "4",
            "--k", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PEB-tree" in out
    assert "speedup" in out
    assert "verified against brute force" in out


def test_demo_accepts_hilbert_and_policies(capsys):
    code = main(
        [
            "demo",
            "--users", "300",
            "--policies", "6",
            "--queries", "3",
            "--curve", "hilbert",
            "--buffer-policy", "clock",
        ]
    )
    assert code == 0
    assert "curve=hilbert" in capsys.readouterr().out


@pytest.mark.parametrize("encoder", ["figure5", "bfs"])
def test_encode_all_encoders(encoder, capsys):
    code = main(
        [
            "encode",
            "--users", "200",
            "--policies", "5",
            "--encoder", encoder,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert encoder in out
    assert "SV range" in out


def test_encode_deterministic(capsys):
    def stable_lines(text):
        # Wall-clock timing legitimately differs between runs.
        return [line for line in text.splitlines() if "elapsed" not in line]

    main(["encode", "--users", "150", "--policies", "4", "--seed", "3"])
    first = capsys.readouterr().out
    main(["encode", "--users", "150", "--policies", "4", "--seed", "3"])
    second = capsys.readouterr().out
    assert stable_lines(first) == stable_lines(second)


def test_experiment_fig11a(monkeypatch, capsys):
    monkeypatch.setattr(experiments_module, "scale_preset", tiny_preset)
    code = main(["experiment", "fig11a"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fig11a" in out
    assert "n_users" in out


def test_experiment_fig15a(monkeypatch, capsys):
    monkeypatch.setattr(experiments_module, "scale_preset", tiny_preset)
    code = main(["experiment", "fig15a"])
    out = capsys.readouterr().out
    assert code == 0
    assert "prq_peb" in out
    assert "prq_base" in out


def test_report_subcommand_wiring(monkeypatch, tmp_path, capsys):
    """`report` resolves the preset and passes the output path through."""
    import repro.bench.report as report_module

    calls = {}

    def fake_generate(path, preset):
        calls["path"] = path
        calls["preset"] = preset.name
        return "stub"

    monkeypatch.setattr(report_module, "generate", fake_generate)
    output = str(tmp_path / "EXP.md")
    code = main(["report", "--scale", "reduced", "--output", output])
    assert code == 0
    assert calls == {"path": output, "preset": "reduced"}
    assert f"Wrote {output}" in capsys.readouterr().out


def test_cost_model_defaults(capsys):
    code = main(["cost-model"])
    out = capsys.readouterr().out
    assert code == 0
    assert "estimated PRQ I/O" in out


def test_cost_model_custom_inputs(capsys):
    code = main(
        [
            "cost-model",
            "--users", "10000",
            "--policies", "10",
            "--theta", "1.0",
            "--leaves", "500",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # theta = 1: Np - Np**theta = 0, so the estimate is the floor of 1.
    assert "1.00" in out


def test_experiment_fig18u(monkeypatch, capsys):
    monkeypatch.setattr(experiments_module, "scale_preset", tiny_preset)
    code = main(["experiment", "fig18u"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seq_io" in out
    assert "batched_io" in out
    assert "io_reduction" in out


def test_batch_update_runs_and_verifies(capsys):
    code = main(
        [
            "batch-update",
            "--users", "400",
            "--policies", "6",
            "--batch-sizes", "16,64",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Batch update pipeline" in out
    assert "I/O reduction" in out
    assert "verified identical to sequential" in out


def test_batch_query_runs_and_verifies(capsys):
    code = main(
        [
            "batch-query",
            "--users", "400",
            "--policies", "8",
            "--queries", "12",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "band-scan batching" in out
    assert "dedup ratio" in out
    assert "verified identical to sequential" in out


def test_batch_query_with_shards(capsys):
    code = main(
        [
            "batch-query",
            "--users", "400",
            "--policies", "8",
            "--queries", "8",
            "--shards", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Sharded scatter/gather (2 shards" in out
    assert "balance skew" in out
    assert "verified identical to the single tree" in out


def test_batch_update_with_shards(capsys):
    code = main(
        [
            "batch-update",
            "--users", "400",
            "--policies", "6",
            "--batch-sizes", "16,64",
            "--shards", "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Sharded update routing (2 shards" in out
    assert "updates applied / physical write" in out
    assert "verified identical to the single tree" in out


def test_batch_query_with_latency(capsys):
    code = main(
        [
            "batch-query",
            "--users", "400",
            "--policies", "8",
            "--queries", "8",
            "--latency", "ssd",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Simulated latency, ssd profile" in out
    assert "virtual elapsed (ms)" in out
    assert "overlap factor" in out
    assert "4 shards overlapped" in out  # --shards unset defaults to 4
    assert "verified identical to untimed single-tree execution" in out


def test_batch_update_with_latency_and_shards(capsys):
    code = main(
        [
            "batch-update",
            "--users", "400",
            "--policies", "6",
            "--batch-sizes", "32",
            "--shards", "2",
            "--latency", "hdd",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Simulated latency, hdd profile" in out
    assert "2 shards overlapped" in out  # --shards carries over
    assert "virtual elapsed (ms)" in out
    assert "physical writes" in out


def test_parser_rejects_unknown_latency_profile():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["batch-query", "--latency", "tape"])


def test_serve_sim_sweeps_rates_and_pins(capsys):
    code = main(
        [
            "serve-sim",
            "--users", "300",
            "--policies", "6",
            "--requests", "24",
            "--rates", "1000,4000",
            "--max-batch", "8",
            "--shards", "2",
            "--latency", "ssd",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Open-loop service (poisson arrivals" in out
    assert "p99 (ms)" in out
    assert "reads/req" in out
    assert out.count("\n        1000") + out.count(" 1000 ") >= 1
    assert "verified identical to direct" in out


def test_serve_sim_burst_without_pin(capsys):
    code = main(
        [
            "serve-sim",
            "--users", "300",
            "--policies", "6",
            "--requests", "16",
            "--rates", "2000",
            "--arrival", "burst",
            "--max-batch", "4",
            "--no-pin",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "burst arrivals" in out
    assert "verified identical" not in out


def test_parser_rejects_unknown_arrival_process():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve-sim", "--arrival", "uniform"])


@pytest.mark.parametrize("verb", ("batch-query", "serve-sim"))
def test_parser_rejects_the_removed_prefetch_flag(verb, capsys):
    # A batch fetches the distinct keys of its point bands; there is no mode.
    with pytest.raises(SystemExit):
        build_parser().parse_args([verb, "--prefetch", "auto"])
    assert "unrecognized arguments: --prefetch auto" in capsys.readouterr().err


def _hand_trace(busy_us=120.0, shard_reads=(3.0, 4.0), io_reads=7.0):
    """A minimal exported trace: one served batch, a two-shard registry."""
    metrics = {
        "counters": {
            "shard.physical_reads": {
                f"shard={shard}": reads for shard, reads in enumerate(shard_reads)
            },
            "shard.physical_writes": {"shard=0": 1.0, "shard=1": 0.0},
            "io.physical_reads": {"": io_reads},
            "io.physical_writes": {"": 1.0},
        },
        "gauges": {},
        "histograms": {},
    }
    return {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "service"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "worker"}},
            {"ph": "X", "name": "batch.serve", "pid": 1, "tid": 1,
             "ts": 10.0, "dur": 120.0},
        ],
        "otherData": {"service_stats": {"busy_us": busy_us}, "metrics": metrics},
    }


@pytest.mark.parametrize(
    "edits, code, verdicts",
    [
        ({}, 0, ("-> OK", "-> OK")),
        ({"busy_us": 121.0}, 1, ("-> MISMATCH", "-> OK")),
        ({"shard_reads": (3.0, 8.0)}, 1, ("-> OK", "-> MISMATCH")),
        ({"io_reads": 3.0}, 1, ("-> OK", "-> MISMATCH")),
    ],
)
def test_trace_report_exit_code_follows_the_cross_checks(
    tmp_path, capsys, edits, code, verdicts
):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(_hand_trace(**edits)))
    assert main(["trace-report", str(path)]) == code
    checks = [line for line in capsys.readouterr().out.splitlines() if "->" in line]
    assert [line[line.index("->"):] for line in checks] == list(verdicts)


def test_trace_report_skips_the_shard_check_without_metrics(tmp_path, capsys):
    trace = _hand_trace()
    del trace["otherData"]["metrics"]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert main(["trace-report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ServiceStats.busy_us" in out and "per-shard" not in out
