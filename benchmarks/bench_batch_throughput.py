"""Throughput benchmark: cross-query band-scan batching vs one-at-a-time.

Measures the headline of the unified query engine: ``N`` concurrent
PRQs executed through :meth:`repro.engine.QueryEngine.execute_batch`
(band requests merged across issuers, each merged band physically
scanned once, every query replayed from the in-memory band store)
against the same ``N`` queries run sequentially through
:func:`repro.core.prq.prq` on the paper's 50-page query buffer.

For every batch size the script reports physical reads per query in
both modes, the distinct pages per query the batch touches (the floor
no schedule reads below), the I/O reduction, the band dedup ratio from
:class:`repro.engine.ExecutionStats`, and queries/second.  Result sets
are verified identical inside :meth:`ExperimentHarness.run_batched_prq`
— a mismatch raises, so a green run certifies correctness as well as
the speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_throughput.py
    PYTHONPATH=src python benchmarks/bench_batch_throughput.py --smoke

``--json PATH`` (default ``BENCH_batch.json``) writes the rows and
configuration as machine-readable JSON for the perf trajectory; pass
``--json ''`` to skip.

Exits non-zero when the largest batch reads more than one-at-a-time,
or more than the distinct pages it touches (a page read twice), or —
under ``--smoke`` — more than :data:`SMOKE_MAX_BATCHED_IO` pages a
query.  A range plan fetches each friend whose cell can reach the
window at its live key, so one-at-a-time may already read the floor;
the gate asks a batch to stay on it, not to beat it.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable

#: Batched reads per query the ``--smoke`` configuration may not exceed
#: at its largest batch (B = 32): 1.47 with point bands at each friend's
#: live key, 2.84 while a range plan banded every friend over the
#: window's span.
SMOKE_MAX_BATCHED_IO = 1.5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="batched vs one-at-a-time PRQ throughput"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI (seconds, not minutes)",
    )
    parser.add_argument("--users", type=int, default=6000)
    parser.add_argument("--policies", type=int, default=20)
    parser.add_argument("--theta", type=float, default=0.7)
    parser.add_argument("--window", type=float, default=200.0)
    parser.add_argument(
        "--batch-sizes",
        default="8,32,64,128",
        help="comma-separated batch sizes to sweep",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_batch.json",
        help="write machine-readable results here ('' disables)",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        # Small enough for CI seconds, large enough that the tree
        # overflows the 50-page query buffer and the I/O comparison
        # is meaningful (see the degenerate-configuration note below).
        args.users = 1500
        args.policies = 12
        args.batch_sizes = "8,32"

    batch_sizes = sorted({int(size) for size in args.batch_sizes.split(",")})
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        window_side=args.window,
        page_size=1024,
        seed=args.seed,
    )
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor} ...",
        flush=True,
    )
    harness = ExperimentHarness(config)

    table = SeriesTable(
        f"Batched PRQ throughput (window {config.window_side:.0f}, "
        f"{config.buffer_pages}-page query buffer)",
        [
            "batch size",
            "seq I/O per query",
            "batch I/O per query",
            "distinct pages per query",
            "I/O reduction",
            "dedup ratio",
            "seq q/s",
            "batch q/s",
        ],
    )
    last = None
    rows = []
    for size in batch_sizes:
        last = harness.run_batched_prq(n_queries=size)
        rows.append(
            {
                "batch_size": size,
                "sequential_io_per_query": last.sequential_io,
                "batched_io_per_query": last.batched_io,
                "distinct_io_per_query": last.distinct_io,
                "io_reduction": last.io_reduction,
                "dedup_ratio": last.dedup_ratio,
                "sequential_queries_per_second": last.sequential_qps,
                "batched_queries_per_second": last.batched_qps,
            }
        )
        table.add_row(
            size,
            f"{last.sequential_io:.2f}",
            f"{last.batched_io:.2f}",
            f"{last.distinct_io:.2f}",
            f"{last.io_reduction:.2f}x",
            f"{last.dedup_ratio:.3f}",
            f"{last.sequential_qps:.0f}",
            f"{last.batched_qps:.0f}",
        )
    table.print()

    if args.json_path:
        payload = {
            "benchmark": "batch_throughput",
            "config": {
                "n_users": config.n_users,
                "n_policies": config.n_policies,
                "grouping_factor": config.grouping_factor,
                "window_side": config.window_side,
                "page_size": config.page_size,
                "buffer_pages": config.buffer_pages,
                "seed": config.seed,
                "batch_sizes": batch_sizes,
            },
            "rows": rows,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"Wrote {args.json_path}")

    if last is not None and last.sequential_io == 0:
        # Degenerate configuration: the whole working set fits in the
        # query buffer, so there are no physical reads to reduce.
        print(
            "\nNote: workload fit entirely in the query buffer "
            "(0 physical reads in both modes); increase --users for a "
            "meaningful I/O comparison."
        )
    elif last is not None:
        failures = []
        if args.smoke and last.batched_io > SMOKE_MAX_BATCHED_IO:
            failures.append(
                f"read {last.batched_io:.2f} pages a query "
                f"(> {SMOKE_MAX_BATCHED_IO})"
            )
        if last.batched_io > last.sequential_io:
            failures.append(
                f"read more than one-at-a-time "
                f"({last.batched_io:.2f} > {last.sequential_io:.2f})"
            )
        if last.batched_io != last.distinct_io:
            failures.append(
                f"read a page more than once ({last.batched_io:.2f} pages a "
                f"query against {last.distinct_io:.2f} distinct)"
            )
        for failure in failures:
            print(f"FAIL: batch of {last.n_queries} {failure}", file=sys.stderr)
        if failures:
            return 1
    print("\nBatched result sets verified identical to sequential. OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
