"""Shard-scaling benchmark: the sharded multi-tree vs the single tree.

The headline of the sharding layer.  For each shard count and each
workload, one deterministic stream (batched location updates followed
by a range-query batch) runs twice from the same population:

* on a physically identical clone of the single PEB-tree with the
  paper's 50-page buffer;
* on an N-shard :class:`repro.shard.ShardedPEBTree`, each shard with
  its *own* 50-page buffer and disk — a shard models an added machine,
  so the x-axis is "machines added", the scale-out claim of MOIST-style
  partitioned moving-object indexing.

Updates flow through the same :class:`repro.engine.UpdatePipeline` in
both modes; the sharded side splits each flushed, key-sorted run at
shard boundaries and applies per-shard leaf-ordered sweeps.  Queries
run through the batch executor / scatter-gather engine.  Per-query
result sets are asserted identical inside
:meth:`ExperimentHarness.run_sharded` — a green run certifies
correctness along with the scaling.

Workloads: ``uniform`` re-reports and windows spread evenly;
``hotspot`` concentrates Zipf-weighted issuers and one hot square
(:meth:`QueryGenerator.hotspot_stream`), the case where per-shard
buffers pay off most per machine.

Exit gates (checked at the ``--gate-shards`` row, default 4):

* hotspot batch-update throughput (ops applied per physical write)
  ≥ ``--min-speedup`` (default 1.3) times the single tree's;
* physical reads per query ≤ the single tree's on *both* workloads.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke

``--json PATH`` (default ``BENCH_shard.json``) writes rows, gates, and
configuration as machine-readable JSON for the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable

WORKLOADS = ("uniform", "hotspot")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="sharded multi-tree scaling vs the single PEB-tree"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI (seconds, not minutes)",
    )
    parser.add_argument("--users", type=int, default=4000)
    parser.add_argument("--policies", type=int, default=20)
    parser.add_argument("--theta", type=float, default=0.7)
    parser.add_argument(
        "--shards",
        default="1,2,4,8",
        help="comma-separated shard counts, one row each per workload",
    )
    parser.add_argument("--updates", type=int, default=4000)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--batch-size", dest="batch_size", type=int, default=256)
    parser.add_argument(
        "--gate-shards",
        dest="gate_shards",
        type=int,
        default=4,
        help="shard count the exit gates are checked at",
    )
    parser.add_argument(
        "--min-speedup",
        dest="min_speedup",
        type=float,
        default=1.3,
        help="required hotspot ops-per-write gain at the gated shard count",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_shard.json",
        help="write machine-readable results here ('' disables)",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        # Small enough for CI; the tree still overflows the 50-page
        # buffer so the I/O comparison stays meaningful.
        args.users = 1500
        args.policies = 12
        args.updates = 1000
        args.queries = 32
        args.shards = "1,2,4"

    shard_counts = sorted({int(count) for count in args.shards.split(",")})
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        n_queries=args.queries,
        page_size=1024,
        seed=args.seed,
    )
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor} ...",
        flush=True,
    )
    harness = ExperimentHarness(config)

    rows = []
    gates: dict[str, dict] = {}
    for workload in WORKLOADS:
        table = SeriesTable(
            f"Shard scaling, {workload} workload ({args.updates} updates, "
            f"{args.queries} queries, {config.buffer_pages} buffer pages "
            "per shard)",
            [
                "shards",
                "ops/write single",
                "ops/write sharded",
                "gain",
                "reads/query single",
                "reads/query sharded",
                "skew",
            ],
        )
        for n_shards in shard_counts:
            costs = harness.run_sharded(
                n_shards,
                workload=workload,
                n_updates=args.updates,
                n_queries=args.queries,
                batch_size=args.batch_size,
            )
            rows.append(
                {
                    "workload": workload,
                    "n_shards": n_shards,
                    "ops_applied": costs.ops_applied,
                    "n_queries": costs.n_queries,
                    "single_update_writes": costs.single_update_writes,
                    "sharded_update_writes": costs.sharded_update_writes,
                    "single_ops_per_write": costs.single_ops_per_write,
                    "sharded_ops_per_write": costs.sharded_ops_per_write,
                    "update_throughput_gain": costs.update_throughput_gain,
                    "single_query_io": costs.single_query_io,
                    "sharded_query_io": costs.sharded_query_io,
                    "balance_skew": costs.balance_skew,
                }
            )
            table.add_row(
                n_shards,
                f"{costs.single_ops_per_write:.2f}",
                f"{costs.sharded_ops_per_write:.2f}",
                f"{costs.update_throughput_gain:.2f}x",
                f"{costs.single_query_io:.2f}",
                f"{costs.sharded_query_io:.2f}",
                f"{costs.balance_skew:.3f}",
            )
            if n_shards == args.gate_shards:
                gates[workload] = {
                    "n_shards": n_shards,
                    "update_throughput_gain": costs.update_throughput_gain,
                    "single_query_io": costs.single_query_io,
                    "sharded_query_io": costs.sharded_query_io,
                }
        table.print()
        print()

    failures = []
    if args.gate_shards in shard_counts:
        hotspot_gate = gates["hotspot"]
        if hotspot_gate["update_throughput_gain"] < args.min_speedup:
            failures.append(
                f"hotspot ops-per-write gain {hotspot_gate['update_throughput_gain']:.2f}x "
                f"at {args.gate_shards} shards below the {args.min_speedup:.2f}x "
                "threshold"
            )
        for workload, gate in gates.items():
            if gate["sharded_query_io"] > gate["single_query_io"]:
                failures.append(
                    f"{workload} reads/query regressed at {args.gate_shards} shards: "
                    f"{gate['sharded_query_io']:.2f} > {gate['single_query_io']:.2f}"
                )
    else:
        print(
            f"Note: gate shard count {args.gate_shards} not in sweep "
            f"{shard_counts}; exit gates skipped."
        )

    if args.json_path:
        payload = {
            "benchmark": "shard_scaling",
            "config": {
                "n_users": config.n_users,
                "n_policies": config.n_policies,
                "grouping_factor": config.grouping_factor,
                "page_size": config.page_size,
                "buffer_pages_per_shard": config.buffer_pages,
                "seed": config.seed,
                "shard_counts": shard_counts,
                "n_updates": args.updates,
                "n_queries": args.queries,
                "batch_size": args.batch_size,
            },
            "rows": rows,
            "gates": {
                "gate_shards": args.gate_shards,
                "min_speedup": args.min_speedup,
                "checked": gates,
                "failures": failures,
            },
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"Wrote {args.json_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\nSharded results verified identical to the single tree. OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
