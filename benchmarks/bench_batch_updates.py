"""Write-path benchmark: the batch update pipeline vs one-at-a-time.

The headline of the update pipeline — the write-side twin of
``bench_batch_throughput.py``.  Each row measures one 25% Figure 18
update round twice, from a cold paper-sized 50-page LRU buffer, on
*physically identical* trees (checkpoint clone, same page images):

* sequentially, one :meth:`repro.core.peb_tree.PEBTree.update` per
  state (a delete + insert descent per moved entry);
* through :class:`repro.engine.UpdatePipeline` at the row's batch
  size, which sorts each flushed buffer by PEB-key and sweeps the
  tree leaf-ordered, so ops landing in the same leaf share a descent,
  a page pin, and a rebalance.

Physical reads *and* writes count (each mode ends with a pool flush),
and final index contents are asserted bit-identical inside
:meth:`ExperimentHarness.run_batched_updates` — a green run certifies
correctness along with the speedup.

The reduction grows with the batch size: a small batch of uniformly
distributed updates rarely lands two ops in the same leaf (64 random
keys over a few-hundred-leaf partition band share almost nothing), so
the 64-row hovers near parity, while 512-1024 reach several-fold.
The aggregate over the sweep — the number the exit gate checks
against ``--min-reduction`` — weighs every round's total I/O.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_updates.py
    PYTHONPATH=src python benchmarks/bench_batch_updates.py --smoke
    PYTHONPATH=src python benchmarks/bench_batch_updates.py --micro

``--json PATH`` (default ``BENCH_updates.json``) writes the rows,
aggregate, and configuration as machine-readable JSON for the perf
trajectory; pass ``--json ''`` to skip.  ``--micro`` additionally
times the band-scan hot loop's ``codec.zv_of`` against the full
``codec.decompose`` it replaced.

Exits non-zero when the sweep aggregate falls below the threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="batch update pipeline vs one-at-a-time updates"
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
        "--batch-sizes",
        dest="batch_sizes",
        default="64,128,256,512,1024",
        help="comma-separated pipeline capacities; one update round each",
    )
    parser.add_argument(
        "--min-reduction",
        dest="min_reduction",
        type=float,
        default=None,
        help="required aggregate I/O reduction across the sweep "
        "(default 1.5, or 1.0 with --smoke — a tiny workload leaves "
        "little I/O to reduce)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_updates.json",
        help="write machine-readable results here ('' disables)",
    )
    parser.add_argument(
        "--micro",
        action="store_true",
        help="also micro-benchmark the zv_of vs decompose hot loop",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def micro_bench_zv(harness: ExperimentHarness, repeats: int = 5) -> dict:
    """Time the scan hot loop's key-to-ZV extraction both ways."""
    codec = harness.peb.codec
    keys = list(harness.peb._live_keys.values())
    best_decompose = best_zv_of = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for key in keys:
            codec.decompose(key)
        best_decompose = min(best_decompose, time.perf_counter() - started)
        started = time.perf_counter()
        for key in keys:
            codec.zv_of(key)
        best_zv_of = min(best_zv_of, time.perf_counter() - started)
    return {
        "keys": len(keys),
        "decompose_seconds": best_decompose,
        "zv_of_seconds": best_zv_of,
        "speedup": best_decompose / best_zv_of if best_zv_of > 0 else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        # Small enough for quick iteration; the tree still overflows
        # the 50-page buffer so the I/O comparison is meaningful.
        args.users = 1500
        args.policies = 12
        args.batch_sizes = "64,256"
    if args.min_reduction is None:
        args.min_reduction = 1.0 if args.smoke else 1.5

    batch_sizes = sorted({int(size) for size in args.batch_sizes.split(",")})
    config = ExperimentConfig(
        n_users=args.users,
        n_policies=args.policies,
        grouping_factor=args.theta,
        page_size=1024,
        seed=args.seed,
    )
    print(
        f"Building {config.n_users} users, {config.n_policies} policies/user, "
        f"theta={config.grouping_factor} ...",
        flush=True,
    )
    harness = ExperimentHarness(config)
    # One unmeasured round first so entries spread over the live time
    # partitions the way a running system's do.
    harness.apply_update_round(0.25)

    table = SeriesTable(
        f"Batch update pipeline ({config.buffer_pages}-page cold buffer, "
        "one 25% update round per row)",
        [
            "batch size",
            "seq I/O per update",
            "batch I/O per update",
            "I/O reduction",
            "descents saved",
            "seq u/s",
            "batch u/s",
        ],
    )
    rows = []
    total_updates = 0
    total_sequential_io = 0.0
    total_batched_io = 0.0
    for size in batch_sizes:
        costs = harness.run_batched_updates(batch_size=size)
        total_updates += costs.n_updates
        total_sequential_io += costs.sequential_io * costs.n_updates
        total_batched_io += costs.batched_io * costs.n_updates
        rows.append(
            {
                "batch_size": size,
                "n_updates": costs.n_updates,
                "sequential_io_per_update": costs.sequential_io,
                "batched_io_per_update": costs.batched_io,
                "io_reduction": costs.io_reduction,
                "in_place_ratio": costs.in_place_ratio,
                "descents_saved": costs.descents_saved,
                "sequential_updates_per_second": costs.sequential_ups,
                "batched_updates_per_second": costs.batched_ups,
            }
        )
        table.add_row(
            size,
            f"{costs.sequential_io:.2f}",
            f"{costs.batched_io:.2f}",
            f"{costs.io_reduction:.2f}x",
            costs.descents_saved,
            f"{costs.sequential_ups:.0f}",
            f"{costs.batched_ups:.0f}",
        )
    table.print()

    aggregate_reduction = (
        total_sequential_io / total_batched_io
        if total_batched_io > 0
        else float("inf")
    )
    print(
        f"\nSweep aggregate: {total_sequential_io / total_updates:.2f} -> "
        f"{total_batched_io / total_updates:.2f} physical I/Os per update "
        f"({aggregate_reduction:.2f}x reduction)"
    )

    micro = None
    if args.micro:
        micro = micro_bench_zv(harness)
        print(
            f"Hot loop ({micro['keys']} keys): decompose "
            f"{micro['decompose_seconds'] * 1e6:.0f}us vs zv_of "
            f"{micro['zv_of_seconds'] * 1e6:.0f}us "
            f"({micro['speedup']:.2f}x)"
        )

    if args.json_path:
        payload = {
            "benchmark": "batch_updates",
            "config": {
                "n_users": config.n_users,
                "n_policies": config.n_policies,
                "grouping_factor": config.grouping_factor,
                "page_size": config.page_size,
                "buffer_pages": config.buffer_pages,
                "seed": config.seed,
                "batch_sizes": batch_sizes,
            },
            "rows": rows,
            "aggregate": {
                "n_updates": total_updates,
                "sequential_io_per_update": total_sequential_io / total_updates,
                "batched_io_per_update": total_batched_io / total_updates,
                "io_reduction": aggregate_reduction,
            },
        }
        if micro is not None:
            payload["micro_zv_of"] = micro
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"Wrote {args.json_path}")

    if total_sequential_io == 0:
        print(
            "\nNote: workload fit entirely in the buffer (0 physical I/Os "
            "in both modes); increase --users for a meaningful comparison."
        )
    elif aggregate_reduction < args.min_reduction:
        print(
            f"FAIL: aggregate I/O reduction {aggregate_reduction:.2f}x below "
            f"the {args.min_reduction:.2f}x threshold",
            file=sys.stderr,
        )
        return 1
    print("\nBatched index contents verified identical to sequential. OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
