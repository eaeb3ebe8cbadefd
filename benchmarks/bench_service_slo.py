"""Service-SLO benchmark: the throughput-vs-tail-latency knee.

Every other benchmark in this repository is closed-loop — it submits a
batch, waits, and reads counters, so it can never observe queueing
delay.  This one is open-loop: a mixed query+update request stream
arrives on its own virtual-time schedule (Poisson by default) at a
swept rate, a single batching worker serves it over a timed sharded
deployment, and per-request *sojourn* percentiles (batch finish minus
arrival, all on the shared :class:`repro.simio.clock.SimClock`) come
out the other side.  Sweeping arrival rate × admission policy traces
the knee curve: throughput rises with offered load until the queue
stops draining and p99 explodes.

Two policies anchor the trade-off:

* ``B=1`` — no batching; every request dispatches alone the moment the
  worker frees.  Lowest batching delay, most physical reads per
  request.
* ``B=64`` — up to 64 requests share one engine batch (bounded by a
  batching timeout), amortizing band scans and update sweeps across
  the batch.

Every run is property-pinned: the recorded batches are replayed
directly through ``UpdatePipeline`` + ``execute_batch`` on an untimed
single-tree clone and asserted result-identical (disable with
``--no-pin`` for faster exploratory sweeps).

Exit gates:

* **p99 monotone** — under the no-batching policy, p99 sojourn must be
  monotonically non-decreasing in arrival rate (the same request
  stream compressed in time can only queue more, never less).
* **batching reads no more** — at the gated (highest) rate, the
  ``B=64`` policy must read no more physical pages per request than
  ``B=1`` — and, under ``--smoke``, at most
  :data:`SMOKE_MAX_BATCHED_READS` — while keeping p99 sojourn under
  ``--max-p99-ms``.  A range plan fetches each friend whose cell can
  reach the window at its live key, so one request at a time may
  already read the floor; the gate asks batching not to lose it.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_slo.py
    PYTHONPATH=src python benchmarks/bench_service_slo.py --smoke

``--json PATH`` (default ``BENCH_service.json``) writes rows, gates,
and configuration as machine-readable JSON for the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable


#: Reads per request ``B=64`` may not exceed at the gated rate under
#: ``--smoke``: 0.50 with point bands at each friend's live key (``B=1``
#: reads 0.50 too), 2.56 (against 3.29 for ``B=1``) while a range plan
#: banded every friend over the window's span.
SMOKE_MAX_BATCHED_READS = 1.0

#: (label, max_batch, max_wait_us) — the admission policies swept.
POLICIES = (
    ("B=1", 1, 0.0),
    ("B=16", 16, 1000.0),
    ("B=64", 64, 2000.0),
)
SMOKE_POLICIES = ("B=1", "B=64")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="open-loop service: throughput vs p99 sojourn knee"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI (seconds, not minutes)",
    )
    parser.add_argument("--users", type=int, default=4000)
    parser.add_argument("--policies", type=int, default=20)
    parser.add_argument("--theta", type=float, default=0.7)
    parser.add_argument("--requests", type=int, default=384,
                        help="requests per (rate, policy) point")
    parser.add_argument(
        "--rates",
        default="500,1000,2000,4000,8000",
        help="comma-separated arrival rates (requests per virtual second)",
    )
    parser.add_argument(
        "--arrival", choices=("poisson", "burst"), default="poisson"
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--latency", choices=("hdd", "ssd", "nvme"), default="ssd"
    )
    parser.add_argument(
        "--update-fraction", dest="update_fraction", type=float, default=0.25
    )
    parser.add_argument(
        "--knn-fraction",
        dest="knn_fraction",
        type=float,
        default=0.0,
        help="fraction of queries that are PkNN (default 0: a PkNN "
        "fetches ~12 friends' rows where a PRQ fetches ~2, and at high "
        "rates batching cannot pay for those extra reads, so the B=64 "
        "vs B=1 reads-per-request gate holds on range-only streams; the "
        "fault benchmark and the unit tests serve kNN)",
    )
    parser.add_argument(
        "--shard-buffer-pages",
        dest="shard_buffer_pages",
        type=int,
        default=None,
        help="per-shard buffer pages (default: the paper's buffer); the "
        "knee only shows when the working set exceeds the buffer",
    )
    parser.add_argument(
        "--max-p99-ms",
        dest="max_p99_ms",
        type=float,
        default=250.0,
        help="p99 sojourn bound the batched policy must stay under at "
        "the gated rate",
    )
    parser.add_argument(
        "--no-pin",
        dest="pin",
        action="store_false",
        help="skip the direct-replay equivalence check",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_service.json",
        help="write machine-readable results here ('' disables)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="re-run the gated point with the virtual-time trace recorder "
        "attached, write a Chrome trace-event file, and gate on the "
        "traced run being bit-identical to the untraced one",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    policies = POLICIES
    if args.smoke:
        # Small enough for CI, but still ≥3 rates × 2 policies so the
        # knee curve and both gates stay meaningful.
        # Buffer deliberately smaller than the query working set: with
        # everything cached, neither policy reads and the
        # reads-per-request gate measures nothing.
        args.users = 1200
        args.policies = 10
        args.requests = 96
        args.rates = "1000,3000,9000"
        args.shard_buffer_pages = 12
        policies = tuple(p for p in POLICIES if p[0] in SMOKE_POLICIES)

    rates = sorted({float(rate) for rate in args.rates.split(",")})
    if len(rates) < 2:
        raise SystemExit("need at least two arrival rates to sweep a knee")

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

    rows = []
    by_policy: dict[str, list[dict]] = {}
    for label, max_batch, max_wait_us in policies:
        table = SeriesTable(
            f"Open-loop service, policy {label} (T={max_wait_us:.0f}us, "
            f"{args.arrival} arrivals, {args.requests} requests/point, "
            f"{args.shards} shards, {args.latency})",
            [
                "rate (req/s)",
                "throughput (req/s)",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "mean batch",
                "reads/req",
                "util",
                "saturated",
            ],
        )
        for rate in rates:
            costs = harness.run_service(
                rate,
                n_requests=args.requests,
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                arrival=args.arrival,
                n_shards=args.shards,
                latency=args.latency,
                update_fraction=args.update_fraction,
                knn_fraction=args.knn_fraction,
                shard_buffer_pages=args.shard_buffer_pages,
                pin=args.pin,
            )
            stats = costs.stats
            row = costs.snapshot()
            row["policy"] = label
            rows.append(row)
            by_policy.setdefault(label, []).append(row)
            table.add_row(
                f"{rate:.0f}",
                f"{stats.throughput_per_sec:.0f}",
                f"{stats.overall.p50_us / 1000:.2f}",
                f"{stats.overall.p95_us / 1000:.2f}",
                f"{stats.overall.p99_us / 1000:.2f}",
                f"{stats.mean_batch_size:.1f}",
                f"{stats.reads_per_request:.2f}",
                f"{stats.utilization:.2f}",
                "yes" if stats.saturated else "no",
            )
        table.print()
        print()

    failures = []

    # Gate 1: p99 monotone non-decreasing in rate under no batching.
    solo_label = policies[0][0]
    solo_rows = by_policy[solo_label]
    solo_p99s = [row["stats"]["overall"]["p99_us"] for row in solo_rows]
    for earlier, later in zip(solo_p99s, solo_p99s[1:]):
        if later < earlier:
            failures.append(
                f"{solo_label} p99 decreased with offered load: "
                f"{[f'{v / 1000:.2f}ms' for v in solo_p99s]} across "
                f"rates {rates}"
            )
            break

    # Gate 2: at the gated (highest) rate, batching must not read more
    # than B=1, nor (smoke) more than the bound, with p99 still bounded.
    batched_label = policies[-1][0]
    solo_gate = solo_rows[-1]
    batched_gate = by_policy[batched_label][-1]
    solo_reads = solo_gate["stats"]["reads_per_request"]
    batched_reads = batched_gate["stats"]["reads_per_request"]
    batched_p99_ms = batched_gate["stats"]["overall"]["p99_us"] / 1000
    if batched_reads > solo_reads:
        failures.append(
            f"{batched_label} read more than {solo_label} at rate "
            f"{rates[-1]:.0f}: {batched_reads:.2f} reads/request vs "
            f"{solo_reads:.2f}"
        )
    if args.smoke and batched_reads > SMOKE_MAX_BATCHED_READS:
        failures.append(
            f"{batched_label} read {batched_reads:.2f} pages a request at rate "
            f"{rates[-1]:.0f} (> {SMOKE_MAX_BATCHED_READS})"
        )
    if batched_p99_ms > args.max_p99_ms:
        failures.append(
            f"{batched_label} p99 {batched_p99_ms:.2f}ms at rate "
            f"{rates[-1]:.0f} exceeds the {args.max_p99_ms:.0f}ms bound"
        )

    # Gate 3 (only with --trace): tracing is observationally inert — the
    # gated point re-run with the recorder attached must produce a
    # bit-identical snapshot (results, counters, virtual time).
    traced_identical = None
    if args.trace:
        from repro.obs import TraceRecorder, write_trace

        _, gate_batch, gate_wait = policies[-1]
        recorder = TraceRecorder()
        traced = harness.run_service(
            rates[-1],
            n_requests=args.requests,
            max_batch=gate_batch,
            max_wait_us=gate_wait,
            arrival=args.arrival,
            n_shards=args.shards,
            latency=args.latency,
            update_fraction=args.update_fraction,
            knn_fraction=args.knn_fraction,
            shard_buffer_pages=args.shard_buffer_pages,
            pin=args.pin,
            trace_recorder=recorder,
        )
        untraced_snapshot = {
            key: value for key, value in batched_gate.items() if key != "policy"
        }
        traced_identical = traced.snapshot() == untraced_snapshot
        if not traced_identical:
            failures.append(
                f"traced re-run of {batched_label} at rate {rates[-1]:.0f} "
                "diverged from the untraced run (tracing must be inert)"
            )
        write_trace(recorder, args.trace)
        print(f"Wrote {args.trace} (traced == untraced: {traced_identical})")

    if args.json_path:
        payload = {
            "benchmark": "service_slo",
            "config": {
                "n_users": config.n_users,
                "n_policies": config.n_policies,
                "grouping_factor": config.grouping_factor,
                "page_size": config.page_size,
                "buffer_pages_per_shard": config.buffer_pages,
                "seed": config.seed,
                "rates": rates,
                "policies": [
                    {"label": label, "max_batch": b, "max_wait_us": t}
                    for label, b, t in policies
                ],
                "arrival": args.arrival,
                "n_requests": args.requests,
                "n_shards": args.shards,
                "latency": args.latency,
                "update_fraction": args.update_fraction,
                "knn_fraction": args.knn_fraction,
                "shard_buffer_pages": args.shard_buffer_pages,
                "pinned": args.pin,
            },
            "rows": rows,
            "gates": {
                "monotone_policy": solo_label,
                "monotone_p99_us": solo_p99s,
                "gate_rate": rates[-1],
                "batched_policy": batched_label,
                "solo_reads_per_request": solo_reads,
                "batched_reads_per_request": batched_reads,
                "batched_p99_ms": batched_p99_ms,
                "max_p99_ms": args.max_p99_ms,
                "traced_identical": traced_identical,
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
    if args.pin:
        print(
            "\nEvery batch's results verified identical to direct "
            "pipeline/batch-executor application. OK"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
