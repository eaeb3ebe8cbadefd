"""Command-line interface: ``python -m repro <subcommand>``.

Six subcommands cover the library's workflows end to end:

* ``demo`` — build a population, run one PRQ and one PkNN on both the
  PEB-tree and the spatial-filter baseline, print answers and I/O.
* ``batch-query`` — run one PRQ workload one-at-a-time and through the
  engine's cross-query band-scan batching, print I/O per query, the
  dedup ratio, and throughput of both modes; ``--shards N`` repeats
  the workload on a sharded multi-tree deployment.
* ``batch-update`` — apply Figure 18 update rounds one ``update`` at a
  time and through the batch update pipeline, print amortized physical
  I/O per update and the reduction per batch size; ``--shards N``
  routes an update stream across a sharded deployment.
* ``encode`` — generate a policy workload and run a sequence-value
  encoder; prints timing and assignment statistics (the Figure 11
  experiment in miniature, any encoder).
* ``serve-sim`` — run an open-loop request stream (Poisson or burst
  arrivals in virtual time) through the batching service front-end on
  a timed sharded deployment; prints the throughput-vs-tail-latency
  sweep across arrival rates (sojourn p50/p95/p99, reads per request,
  saturation).
* ``experiment`` — regenerate one figure of the paper's evaluation and
  print its series as a table.
* ``report`` — regenerate *every* figure and write EXPERIMENTS.md.
* ``cost-model`` — evaluate the Section 6 analytical cost function.
* ``trace-report`` — summarize a ``--trace`` JSON file (per-phase
  virtual-time breakdown, per-device overlap, instant counts) without
  opening Perfetto.

``serve-sim`` and ``batch-query`` accept ``--trace out.json``: the run
records virtual-time spans (queue waits, batch phases, per-shard scans,
fault instants, tail-request exemplars) and writes a Chrome trace-event
file loadable at https://ui.perfetto.dev.  Tracing is observationally
inert: a traced run's results and counters are bit-identical to an
untraced one.

All randomness is seeded; identical invocations print identical numbers.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.bench.experiments import PAPER, REDUCED
from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable
from repro.core.cost_model import CostModel
from repro.core.encoders import ENCODERS, make_encoder
from repro.workloads.policies import PolicyGenerator

#: Experiment names accepted by the ``experiment`` subcommand.
#: ``fig18u`` is this reproduction's write-path variant of Figure 18:
#: amortized update I/O per churn step instead of query I/O after it.
EXPERIMENTS = (
    "fig11a",
    "fig11b",
    "fig12",
    "fig13",
    "fig14",
    "fig15a",
    "fig15b",
    "fig16",
    "fig17",
    "fig18",
    "fig18u",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "PEB-tree reproduction (Lin et al., PVLDB 5(1), 2011): "
            "privacy-aware moving-object indexing."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="run one PRQ and one PkNN on PEB-tree vs baseline"
    )
    demo.add_argument("--users", type=int, default=2000)
    demo.add_argument("--policies", type=int, default=20)
    demo.add_argument("--theta", type=float, default=0.7)
    demo.add_argument("--window", type=float, default=200.0)
    demo.add_argument("--k", type=int, default=5)
    demo.add_argument("--queries", type=int, default=20)
    demo.add_argument("--curve", choices=("z", "hilbert"), default="z")
    demo.add_argument("--buffer-policy", dest="buffer_policy",
                      choices=("lru", "fifo", "clock", "lfu"), default="lru")
    demo.add_argument("--seed", type=int, default=7)

    batch = subparsers.add_parser(
        "batch-query",
        help="measure cross-query band-scan batching vs one-at-a-time PRQs",
    )
    batch.add_argument("--users", type=int, default=2000)
    batch.add_argument("--policies", type=int, default=20)
    batch.add_argument("--theta", type=float, default=0.7)
    batch.add_argument("--window", type=float, default=200.0)
    batch.add_argument("--queries", type=int, default=64)
    batch.add_argument(
        "--shards",
        type=int,
        default=0,
        help="additionally benchmark an N-shard deployment against a "
        "single-tree clone on a fresh same-shape workload (per-shard "
        "buffers; results verified identical; 0 disables)",
    )
    batch.add_argument(
        "--latency",
        choices=("hdd", "ssd", "nvme"),
        default=None,
        help="additionally price every access through the simulated-"
        "latency subsystem and report virtual elapsed time next to the "
        "read/write counts (N-shard overlapped vs 1-shard serial; N "
        "from --shards, default 4)",
    )
    batch.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record virtual-time spans of the batched phase and write "
        "a Chrome trace-event file (open in Perfetto; untimed storage "
        "makes these spans counter-only markers — serve-sim --trace is "
        "the timed surface)",
    )
    batch.add_argument("--seed", type=int, default=7)

    batch_update = subparsers.add_parser(
        "batch-update",
        help="measure the batch update pipeline vs one-at-a-time updates",
    )
    batch_update.add_argument("--users", type=int, default=2000)
    batch_update.add_argument("--policies", type=int, default=20)
    batch_update.add_argument("--theta", type=float, default=0.7)
    batch_update.add_argument(
        "--batch-sizes",
        dest="batch_sizes",
        default="64,256,1024",
        help="comma-separated pipeline capacities; one Figure 18 round each",
    )
    batch_update.add_argument(
        "--shards",
        type=int,
        default=0,
        help="additionally route a fresh update stream through an "
        "N-shard deployment vs a single-tree clone (per-shard buffers; "
        "end state verified identical; 0 disables)",
    )
    batch_update.add_argument(
        "--latency",
        choices=("hdd", "ssd", "nvme"),
        default=None,
        help="additionally price every access through the simulated-"
        "latency subsystem and report virtual elapsed time next to the "
        "read/write counts (N-shard overlapped vs 1-shard serial; N "
        "from --shards, default 4)",
    )
    batch_update.add_argument("--seed", type=int, default=7)

    serve = subparsers.add_parser(
        "serve-sim",
        help="sweep open-loop arrival rates through the batching service "
        "front-end on a timed sharded deployment",
    )
    serve.add_argument("--users", type=int, default=2000)
    serve.add_argument("--policies", type=int, default=20)
    serve.add_argument("--theta", type=float, default=0.7)
    serve.add_argument("--requests", type=int, default=128,
                       help="requests per arrival-rate point")
    serve.add_argument(
        "--rates",
        default="500,2000,8000",
        help="comma-separated arrival rates to sweep (requests/second of "
        "virtual time)",
    )
    serve.add_argument(
        "--arrival", choices=("poisson", "burst"), default="poisson"
    )
    serve.add_argument("--max-batch", dest="max_batch", type=int, default=64,
                       help="admission policy: dispatch when this many wait")
    serve.add_argument(
        "--max-wait-us", dest="max_wait_us", type=float, default=2000.0,
        help="admission policy: dispatch when the oldest waited this long",
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--latency", choices=("hdd", "ssd", "nvme"), default="ssd"
    )
    serve.add_argument(
        "--update-fraction", dest="update_fraction", type=float, default=0.5
    )
    serve.add_argument(
        "--no-pin",
        dest="pin",
        action="store_false",
        help="skip the direct-replay equivalence check (faster sweeps)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record virtual-time spans of the highest-rate sweep point "
        "(queue waits, batch phases, per-shard device tracks, fault "
        "instants, tail-request exemplars) and write a Chrome "
        "trace-event file loadable in Perfetto",
    )
    serve.add_argument("--seed", type=int, default=7)

    encode = subparsers.add_parser(
        "encode", help="run a sequence-value encoder on a policy workload"
    )
    encode.add_argument("--users", type=int, default=5000)
    encode.add_argument("--policies", type=int, default=20)
    encode.add_argument("--theta", type=float, default=0.7)
    encode.add_argument(
        "--encoder", choices=sorted(ENCODERS), default="figure5"
    )
    encode.add_argument("--seed", type=int, default=7)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one figure of the paper's evaluation"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument(
        "--scale", choices=("reduced", "paper"), default="reduced"
    )

    report = subparsers.add_parser(
        "report", help="regenerate every figure and write EXPERIMENTS.md"
    )
    report.add_argument(
        "--scale", choices=("reduced", "paper"), default="reduced"
    )
    report.add_argument("--output", default="EXPERIMENTS.md")

    trace_report = subparsers.add_parser(
        "trace-report",
        help="summarize a --trace JSON file: per-phase virtual time, "
        "per-device overlap, instant counts",
    )
    trace_report.add_argument("path", help="trace file written by --trace")

    cost = subparsers.add_parser(
        "cost-model", help="evaluate the Section 6 cost function"
    )
    cost.add_argument("--users", type=int, default=60_000)
    cost.add_argument("--policies", type=int, default=50)
    cost.add_argument("--theta", type=float, default=0.7)
    cost.add_argument("--leaves", type=int, default=1000)
    cost.add_argument("--a1", type=float, default=10.0,
                      help="density coefficient (paper: 10 for uniform data)")
    cost.add_argument("--a2", type=float, default=0.3,
                      help="constant coefficient (paper: 0.3 for uniform data)")
    cost.add_argument("--space-side", dest="space_side", type=float, default=1000.0)

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------


def _print_latency_table(harness, args, n_updates: int, n_queries: int) -> None:
    """The ``--latency`` report shared by batch-query and batch-update.

    Prices one hotspot workload through the simulated-latency subsystem
    (:meth:`repro.bench.harness.ExperimentHarness.run_overlap`) and
    prints virtual elapsed time next to the physical read/write counts:
    an overlapped N-shard deployment against a serial 1-shard one, both
    on the chosen device profile, results pinned identical to untimed
    single-tree execution.
    """
    n_shards = args.shards if args.shards else 4
    costs = harness.run_overlap(
        n_shards,
        latency=args.latency,
        workload="hotspot",
        n_updates=n_updates,
        n_queries=n_queries,
    )
    table = SeriesTable(
        f"Simulated latency, {costs.profile} profile ({costs.ops_applied} "
        f"updates + {costs.n_queries} queries, virtual overlap)",
        ["metric", "1 shard serial", f"{n_shards} shards overlapped"],
    )
    table.add_row(
        "virtual elapsed (ms)",
        f"{costs.baseline_elapsed_us / 1000:.1f}",
        f"{costs.sharded_elapsed_us / 1000:.1f}",
    )
    table.add_row(
        "  update phase (ms)",
        f"{costs.baseline_update_us / 1000:.1f}",
        f"{costs.sharded_update_us / 1000:.1f}",
    )
    table.add_row(
        "  query phase (ms)",
        f"{costs.baseline_query_us / 1000:.1f}",
        f"{costs.sharded_query_us / 1000:.1f}",
    )
    table.add_row("physical reads", costs.baseline_reads, costs.sharded_reads)
    table.add_row("physical writes", costs.baseline_writes, costs.sharded_writes)
    table.add_row("speedup", "1.00x", f"{costs.speedup:.2f}x")
    table.add_row("overlap factor", "1.00", f"{costs.overlap_factor:.2f}")
    table.print()
    print("\nTimed results verified identical to untimed single-tree execution. OK")


def run_demo(args) -> int:
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        window_side=args.window,
        k=args.k,
        n_queries=args.queries,
        page_size=1024,
        curve=args.curve,
        buffer_policy=args.buffer_policy,
        seed=args.seed,
    )
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor}, curve={config.curve} ..."
    )
    harness = ExperimentHarness(config)
    report = harness.encoding_report
    print(
        f"Policy encoding: {report.related_pair_count} related pairs, "
        f"{report.group_count} groups, {report.elapsed_seconds:.3f}s"
    )

    prq_costs = harness.run_prq_batch(check_results=True)
    knn_costs = harness.run_pknn_batch(check_results=True)

    table = SeriesTable(
        f"Average physical reads per query ({config.n_queries} queries, "
        f"{config.buffer_pages}-page {config.buffer_policy.upper()} buffer)",
        ["query", "PEB-tree", "spatial index", "speedup"],
    )
    table.add_row(
        f"PRQ (window {config.window_side:.0f})",
        prq_costs.peb_io,
        prq_costs.baseline_io,
        f"{prq_costs.speedup:.1f}x",
    )
    table.add_row(
        f"PkNN (k={config.k})",
        knn_costs.peb_io,
        knn_costs.baseline_io,
        f"{knn_costs.speedup:.1f}x",
    )
    table.print()
    print("\nResults verified against brute force over all users. OK")
    return 0


def run_batch_query(args) -> int:
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        window_side=args.window,
        n_queries=args.queries,
        page_size=1024,
        seed=args.seed,
    )
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor} ..."
    )
    harness = ExperimentHarness(config)
    recorder = None
    if args.trace:
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
    costs = harness.run_batched_prq(trace_recorder=recorder)

    table = SeriesTable(
        f"Cross-query band-scan batching ({costs.n_queries} PRQs, "
        f"window {config.window_side:.0f}, {config.buffer_pages}-page "
        "buffer)",
        ["metric", "one-at-a-time", "batched"],
    )
    table.add_row(
        "physical reads / query",
        f"{costs.sequential_io:.2f}",
        f"{costs.batched_io:.2f}",
    )
    table.add_row(
        "queries / second",
        f"{costs.sequential_qps:.0f}",
        f"{costs.batched_qps:.0f}",
    )
    table.add_row("I/O reduction", "1.0x", f"{costs.io_reduction:.2f}x")
    table.add_row("band dedup ratio", "-", f"{costs.dedup_ratio:.3f}")
    table.print()
    print("\nBatched result sets verified identical to sequential. OK")

    if recorder is not None:
        from repro.obs import write_trace

        write_trace(recorder, args.trace)
        print(f"Wrote trace to {args.trace} (open at https://ui.perfetto.dev)")

    if args.shards:
        sharded = harness.run_sharded(
            args.shards,
            workload="uniform",
            n_queries=args.queries,
        )
        shard_table = SeriesTable(
            f"Sharded scatter/gather ({args.shards} shards, "
            f"{config.buffer_pages} buffer pages per shard)",
            ["metric", "single tree", f"{args.shards} shards"],
        )
        shard_table.add_row(
            "physical reads / query",
            f"{sharded.single_query_io:.2f}",
            f"{sharded.sharded_query_io:.2f}",
        )
        shard_table.add_row(
            "updates applied / physical write",
            f"{sharded.single_ops_per_write:.2f}",
            f"{sharded.sharded_ops_per_write:.2f}",
        )
        shard_table.add_row("balance skew", "-", f"{sharded.balance_skew:.3f}")
        shard_table.print()
        print("\nSharded results verified identical to the single tree. OK")

    if args.latency:
        print()
        _print_latency_table(
            harness, args, n_updates=args.users // 2, n_queries=args.queries
        )
    return 0


def run_batch_update(args) -> int:
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        page_size=1024,
        seed=args.seed,
    )
    batch_sizes = sorted({int(size) for size in args.batch_sizes.split(",")})
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor} ..."
    )
    harness = ExperimentHarness(config)

    table = SeriesTable(
        f"Batch update pipeline vs one-at-a-time ({config.buffer_pages}-page "
        "cold buffer, one 25% Figure 18 round per row)",
        [
            "batch size",
            "seq I/O per update",
            "batch I/O per update",
            "I/O reduction",
            "in-place ratio",
            "descents saved",
        ],
    )
    for size in batch_sizes:
        costs = harness.run_batched_updates(batch_size=size)
        table.add_row(
            size,
            f"{costs.sequential_io:.2f}",
            f"{costs.batched_io:.2f}",
            f"{costs.io_reduction:.2f}x",
            f"{costs.in_place_ratio:.3f}",
            costs.descents_saved,
        )
    table.print()
    print("\nBatched index contents verified identical to sequential. OK")

    if args.shards:
        sharded = harness.run_sharded(
            args.shards,
            workload="uniform",
            batch_size=max(batch_sizes),
        )
        shard_table = SeriesTable(
            f"Sharded update routing ({args.shards} shards, "
            f"{config.buffer_pages} buffer pages per shard)",
            ["metric", "single tree", f"{args.shards} shards"],
        )
        shard_table.add_row("ops applied", sharded.ops_applied, sharded.ops_applied)
        shard_table.add_row(
            "physical writes",
            sharded.single_update_writes,
            sharded.sharded_update_writes,
        )
        shard_table.add_row(
            "updates applied / physical write",
            f"{sharded.single_ops_per_write:.2f}",
            f"{sharded.sharded_ops_per_write:.2f}",
        )
        shard_table.add_row("balance skew", "-", f"{sharded.balance_skew:.3f}")
        shard_table.print()
        print("\nSharded end state verified identical to the single tree. OK")

    if args.latency:
        print()
        _print_latency_table(
            harness, args, n_updates=args.users // 2, n_queries=32
        )
    return 0


def run_serve_sim(args) -> int:
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        page_size=1024,
        seed=args.seed,
    )
    rates = sorted({float(rate) for rate in args.rates.split(",")})
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor} ..."
    )
    harness = ExperimentHarness(config)

    table = SeriesTable(
        f"Open-loop service ({args.arrival} arrivals, {args.requests} requests"
        f"/point, B={args.max_batch}, T={args.max_wait_us:.0f}us, "
        f"{args.shards} shards, {args.latency})",
        [
            "rate (req/s)",
            "throughput (req/s)",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "mean batch",
            "reads/req",
            "saturated",
        ],
    )
    recorder = None
    for rate in rates:
        # Trace the highest-rate point: the most interesting tail, and
        # one recorder per run keeps the trace a single coherent axis.
        trace_this = args.trace is not None and rate == rates[-1]
        if trace_this:
            from repro.obs import TraceRecorder

            recorder = TraceRecorder()
        costs = harness.run_service(
            rate,
            n_requests=args.requests,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            arrival=args.arrival,
            n_shards=args.shards,
            latency=args.latency,
            update_fraction=args.update_fraction,
            pin=args.pin,
            trace_recorder=recorder if trace_this else None,
        )
        stats = costs.stats
        table.add_row(
            f"{rate:.0f}",
            f"{stats.throughput_per_sec:.0f}",
            f"{stats.overall.p50_us / 1000:.2f}",
            f"{stats.overall.p95_us / 1000:.2f}",
            f"{stats.overall.p99_us / 1000:.2f}",
            f"{stats.mean_batch_size:.1f}",
            f"{stats.reads_per_request:.2f}",
            "yes" if stats.saturated else "no",
        )
    table.print()
    if args.pin:
        print(
            "\nEvery batch's results verified identical to direct "
            "pipeline/batch-executor application. OK"
        )
    if recorder is not None:
        from repro.obs import write_trace

        write_trace(recorder, args.trace)
        print(
            f"\nWrote trace of the {rates[-1]:.0f} req/s point to "
            f"{args.trace} (open at https://ui.perfetto.dev)"
        )
    return 0


def run_trace_report(args) -> int:
    from repro.obs import load_trace, render_trace_report
    from repro.obs.report import summarize_trace

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.path}: {exc}", file=sys.stderr)
        return 1
    print(render_trace_report(trace))
    # A trace whose cross-checks disagree is a failed sanity step.
    return 0 if summarize_trace(trace)["consistent"] else 1


def run_encode(args) -> int:
    rng = random.Random(args.seed)
    generator = PolicyGenerator(1000.0, 1440.0, rng)
    users = list(range(args.users))
    store = generator.generate(users, args.policies, args.theta)
    encoder = make_encoder(args.encoder)
    report = encoder.encode(users, store, 1000.0**2)

    values = sorted(report.sequence_values.values())
    table = SeriesTable(
        f"Sequence-value encoding: {args.encoder}", ["metric", "value"]
    )
    table.add_row("users", args.users)
    table.add_row("policies per user", args.policies)
    table.add_row("grouping factor", args.theta)
    table.add_row("related pairs", report.related_pair_count)
    table.add_row("groups", report.group_count)
    table.add_row("elapsed seconds", f"{report.elapsed_seconds:.4f}")
    table.add_row("SV range", f"{values[0]:.2f} .. {values[-1]:.2f}")
    table.print()
    return 0


def run_experiment(args) -> int:
    import os

    os.environ["REPRO_SCALE"] = args.scale
    from repro.bench import experiments

    preset = experiments.scale_preset()
    cache = experiments.HarnessCache()

    drivers = {
        "fig11a": lambda: experiments.fig11a_encoding_vs_users(preset),
        "fig11b": lambda: experiments.fig11b_encoding_vs_policies(preset),
        "fig12": lambda: experiments.fig12_vs_users(preset, cache),
        "fig13": lambda: experiments.fig13_vs_policies(preset, cache),
        "fig14": lambda: experiments.fig14_vs_grouping(preset, cache),
        "fig15a": lambda: experiments.fig15a_vs_window(preset, cache),
        "fig15b": lambda: experiments.fig15b_vs_k(preset, cache),
        "fig16": lambda: experiments.fig16_vs_destinations(preset, cache),
        "fig17": lambda: experiments.fig17_vs_speed(preset, cache),
        "fig18": lambda: experiments.fig18_vs_updates(preset),
        "fig18u": lambda: experiments.fig18_update_io(preset),
    }
    rows = drivers[args.name]()
    if not rows:
        print("no data produced", file=sys.stderr)
        return 1
    columns = list(rows[0].keys())
    table = SeriesTable(f"{args.name} [{preset.name} scale]", columns)
    for row in rows:
        table.add_row(*(row[column] for column in columns))
    table.print()
    return 0


def run_report(args) -> int:
    from repro.bench.report import generate

    preset = PAPER if args.scale == "paper" else REDUCED
    print(
        f"Regenerating every figure at '{args.scale}' scale; this runs the "
        "full evaluation and takes a while ..."
    )
    generate(args.output, preset)
    print(f"Wrote {args.output}")
    return 0


def run_cost_model(args) -> int:
    model = CostModel(a1=args.a1, a2=args.a2, space_side=args.space_side)
    estimate = model.estimate(
        n_users=args.users,
        n_policies=args.policies,
        theta=args.theta,
        n_leaves=args.leaves,
    )
    table = SeriesTable("Section 6 cost model (Equation 7)", ["input", "value"])
    table.add_row("N (users)", args.users)
    table.add_row("Np (policies/user)", args.policies)
    table.add_row("theta", args.theta)
    table.add_row("Nl (leaves)", args.leaves)
    table.add_row("a1, a2", f"{args.a1}, {args.a2}")
    table.add_row("estimated PRQ I/O", f"{estimate:.2f}")
    table.print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": run_demo,
        "batch-query": run_batch_query,
        "batch-update": run_batch_update,
        "serve-sim": run_serve_sim,
        "encode": run_encode,
        "experiment": run_experiment,
        "report": run_report,
        "cost-model": run_cost_model,
        "trace-report": run_trace_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
