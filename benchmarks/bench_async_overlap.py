"""Overlapped-I/O benchmark: simulated-latency speedup of the shard layer.

Counts cannot see overlap — a scatter/gather scan that keeps four shard
disks busy concurrently pays the same number of page transfers as a
serial scan.  This benchmark prices every access through the
:mod:`repro.simio` subsystem and reports *virtual wall-clock*: for each
device profile and shard count, one deterministic hotspot workload
(batched location updates, then a range-query batch) runs on

* an untimed single-tree clone — the result oracle (timed runs are
  asserted observationally identical to it);
* a 1-shard timed deployment with serial scheduling — the baseline;
* an N-shard timed deployment with overlapped scheduling — per-shard
  prefetch scans and update sweeps fork/join on one shared
  :class:`repro.simio.clock.SimClock`, and verification pipelines
  against still-running scans.

Reported per row: virtual elapsed time of each phase, the speedup over
the 1-shard baseline, and the overlap factor (device busy time over
elapsed time — how many devices the scheduler genuinely kept busy).

Exit gate (checked at the ``--gate-shards`` row, default 4, ``hdd``
profile): total virtual-time speedup ≥ ``--min-speedup`` (default
1.3).

Usage::

    PYTHONPATH=src python benchmarks/bench_async_overlap.py
    PYTHONPATH=src python benchmarks/bench_async_overlap.py --smoke

``--json PATH`` (default ``BENCH_async.json``) writes rows, gates, and
configuration as machine-readable JSON for the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable
from repro.simio.model import PROFILES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="simulated-latency overlap: N timed shards vs one"
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
        "--profiles",
        default="hdd,ssd,nvme",
        help="comma-separated device profiles, one table each",
    )
    parser.add_argument(
        "--shards",
        default="1,2,4,8",
        help="comma-separated shard counts, one row each per profile",
    )
    parser.add_argument("--updates", type=int, default=4000)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--batch-size", dest="batch_size", type=int, default=256)
    parser.add_argument(
        "--workload", choices=("uniform", "hotspot"), default="hotspot"
    )
    parser.add_argument(
        "--gate-shards",
        dest="gate_shards",
        type=int,
        default=4,
        help="shard count the exit gate is checked at",
    )
    parser.add_argument(
        "--gate-profile",
        dest="gate_profile",
        default="hdd",
        help="device profile the exit gate is checked at",
    )
    parser.add_argument(
        "--min-speedup",
        dest="min_speedup",
        type=float,
        default=1.3,
        help="required virtual-time speedup at the gated row",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_async.json",
        help="write machine-readable results here ('' disables)",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        # Small enough for CI; the trees still overflow the 50-page
        # per-shard buffers so the timed I/O stays meaningful.
        args.users = 1500
        args.policies = 12
        args.updates = 1000
        args.queries = 32
        args.profiles = "hdd,ssd"
        args.shards = "1,4"

    profiles = [name.strip() for name in args.profiles.split(",") if name.strip()]
    for name in profiles:
        if name not in PROFILES:
            raise SystemExit(f"unknown profile {name!r}; known: {sorted(PROFILES)}")
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
    gate: dict | None = None
    for profile in profiles:
        table = SeriesTable(
            f"Overlapped I/O, {profile} profile, {args.workload} workload "
            f"({args.updates} updates, {args.queries} queries, "
            f"{config.buffer_pages} buffer pages per shard)",
            [
                "shards",
                "1-shard elapsed (ms)",
                "N-shard elapsed (ms)",
                "speedup",
                "update",
                "query",
                "overlap",
            ],
        )
        for n_shards in shard_counts:
            costs = harness.run_overlap(
                n_shards,
                latency=profile,
                workload=args.workload,
                n_updates=args.updates,
                n_queries=args.queries,
                batch_size=args.batch_size,
            )
            rows.append(costs.snapshot())
            table.add_row(
                n_shards,
                f"{costs.baseline_elapsed_us / 1000:.1f}",
                f"{costs.sharded_elapsed_us / 1000:.1f}",
                f"{costs.speedup:.2f}x",
                f"{costs.update_speedup:.2f}x",
                f"{costs.query_speedup:.2f}x",
                f"{costs.overlap_factor:.2f}",
            )
            if n_shards == args.gate_shards and profile == args.gate_profile:
                gate = costs.snapshot()
        table.print()
        print()

    failures = []
    if gate is not None:
        if gate["speedup"] < args.min_speedup:
            failures.append(
                f"{args.gate_profile} virtual-time speedup {gate['speedup']:.2f}x "
                f"at {args.gate_shards} shards below the "
                f"{args.min_speedup:.2f}x threshold"
            )
    else:
        # A missing gated row must fail loudly, or a trimmed sweep
        # would turn the CI gate into a green no-op.
        failures.append(
            f"gated row ({args.gate_profile}, {args.gate_shards} shards) "
            "not in sweep; nothing was gated"
        )

    if args.json_path:
        payload = {
            "benchmark": "async_overlap",
            "config": {
                "n_users": config.n_users,
                "n_policies": config.n_policies,
                "grouping_factor": config.grouping_factor,
                "page_size": config.page_size,
                "buffer_pages_per_shard": config.buffer_pages,
                "seed": config.seed,
                "profiles": profiles,
                "shard_counts": shard_counts,
                "n_updates": args.updates,
                "n_queries": args.queries,
                "batch_size": args.batch_size,
                "workload": args.workload,
            },
            "rows": rows,
            "gates": {
                "gate_shards": args.gate_shards,
                "gate_profile": args.gate_profile,
                "min_speedup": args.min_speedup,
                "checked": gate,
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
    print(
        "\nTimed results verified identical to sequential single-tree "
        "execution. OK"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
