"""Fault-recovery benchmark: availability and tail latency under faults.

The service-SLO benchmark measures the system healthy; this one breaks
it on purpose.  The same open-loop request stream is served three times
over a timed sharded deployment whose shard disks are
:class:`repro.storage.faults.FaultyDisk` instances, armed *after* build
(builds are unsupervised by design):

* **clean** — no faults; the availability/degradation counters must
  all read zero (the fault layer is pay-for-what-you-use).
* **transient** — a finite :class:`TransientFaultSchedule` per shard
  (a few failing read attempts plus one failing write attempt) under a
  retrying :class:`repro.fault.RetryPolicy`.  The schedule has fewer
  failing indices than the policy has attempts, so exhaustion is
  impossible *by construction*: every failed attempt permanently
  consumes at least one failing index.  The run is property-pinned —
  retried results replay bit-identically on an untimed clone — and
  must come out 100% available with a finite p99.
* **quarantine** — shard 0's disk fails every read, permanently.  The
  supervisor exhausts its retries, the breaker opens, and the service
  degrades instead of dying: queries drop the quarantined shard's
  sub-bands (flagged per query), its updates are deferred back to the
  buffer, and availability must stay at or above ``(N-1)/N``.

Exit gates (``--smoke`` shrinks the workload, not the gates):

* clean run: availability 1.0, zero shed/degraded/deferred.
* transient run: faults observed, none exhausted, availability 1.0,
  p99 sojourn finite and under ``--max-p99-ms``.
* quarantine run: at least one quarantine, dropped sub-bands and
  degraded queries observed, availability >= (N-1)/N.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --smoke

``--json PATH`` (default ``BENCH_faults.json``) writes rows, gates,
and configuration as machine-readable JSON for the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.bench.harness import ExperimentConfig, ExperimentHarness
from repro.bench.reporting import SeriesTable
from repro.fault import BreakerPolicy, RetryPolicy
from repro.storage.faults import FaultyDisk, TransientFaultSchedule

#: Failing access-attempt indices of the transient scenario, per shard.
#: 3 read + 1 write = 4 failing indices against a 5-attempt retry
#: policy: exhaustion is structurally impossible (each failed attempt
#: consumes at least one index), so the availability gate is a theorem
#: the run merely confirms.
TRANSIENT_FAIL_READS = (5, 977, 1800)
TRANSIENT_FAIL_WRITES = (7,)
TRANSIENT_RETRY = RetryPolicy(max_attempts=5)

#: Share of queries served as PkNN (``serve_mixed``'s share), so the
#: snapshot pins retried kNN fetches as well as range ones.
KNN_FRACTION = 0.25


def _shard_disks(deployment) -> list:
    """Each shard's innermost (faulty) disk, unwrapping timed layers."""
    disks = []
    for tree in deployment.trees:
        disk = tree.btree.pool.disk
        while hasattr(disk, "inner"):
            disk = disk.inner
        disks.append(disk)
    return disks


def arm_transient(deployment):
    """Arm every shard with the finite transient schedule; heal after."""
    disks = _shard_disks(deployment)
    for disk in disks:
        disk.heal()  # counters restart at 0 so the indices are live
        disk.schedule = TransientFaultSchedule(
            fail_reads=TRANSIENT_FAIL_READS,
            fail_writes=TRANSIENT_FAIL_WRITES,
        )

    def disarm():
        for disk in disks:
            disk.heal()

    return disarm


def arm_quarantine(deployment):
    """Arm shard 0 to fail every read, permanently; heal after."""
    disks = _shard_disks(deployment)
    disks[0].heal()
    disks[0].fail_every_nth_read = 1

    def disarm():
        disks[0].heal()

    return disarm


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="fault tolerance: availability and p99 under faults"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI (seconds, not minutes)",
    )
    parser.add_argument("--users", type=int, default=4000)
    parser.add_argument("--policies", type=int, default=20)
    parser.add_argument("--theta", type=float, default=0.7)
    parser.add_argument("--requests", type=int, default=192)
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="arrival rate (requests per virtual second)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--latency", choices=("hdd", "ssd", "nvme"), default="ssd"
    )
    parser.add_argument(
        "--update-fraction", dest="update_fraction", type=float, default=0.25
    )
    parser.add_argument("--max-batch", dest="max_batch", type=int, default=32)
    parser.add_argument(
        "--max-wait-us", dest="max_wait_us", type=float, default=1000.0
    )
    parser.add_argument(
        "--shard-buffer-pages",
        dest="shard_buffer_pages",
        type=int,
        default=None,
    )
    parser.add_argument(
        "--max-p99-ms",
        dest="max_p99_ms",
        type=float,
        default=400.0,
        help="p99 sojourn bound the transient run must stay under",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default="BENCH_faults.json",
        help="write machine-readable results here ('' disables)",
    )
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.users = 1200
        args.policies = 10
        args.requests = 96
        args.shard_buffer_pages = 12
    if args.shards < 2:
        raise SystemExit("need at least 2 shards to quarantine one")

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

    def page_factory(shard: int) -> FaultyDisk:
        return FaultyDisk(page_size=config.page_size)

    scenarios = (
        # (name, fault_policy, breaker_policy, arm, pin)
        ("clean", None, None, None, True),
        ("transient", TRANSIENT_RETRY, BreakerPolicy(), arm_transient, True),
        ("quarantine", RetryPolicy(), BreakerPolicy(), arm_quarantine, False),
    )

    table = SeriesTable(
        f"Fault scenarios ({args.requests} requests at {args.rate:.0f}/s, "
        f"{args.shards} shards, {args.latency})",
        [
            "scenario",
            "avail",
            "p99 (ms)",
            "faults",
            "retries",
            "quarantines",
            "degraded q",
            "deferred u",
            "shed",
        ],
    )
    rows = []
    by_name: dict[str, dict] = {}
    for name, fault_policy, breaker_policy, arm, pin in scenarios:
        costs = harness.run_service(
            args.rate,
            n_requests=args.requests,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            n_shards=args.shards,
            latency=args.latency,
            update_fraction=args.update_fraction,
            knn_fraction=KNN_FRACTION,
            shard_buffer_pages=args.shard_buffer_pages,
            pin=pin,
            disk_factory=page_factory,
            fault_policy=fault_policy,
            breaker_policy=breaker_policy,
            arm_faults=arm,
        )
        stats = costs.stats
        faults = stats.fault_stats
        row = costs.snapshot()
        row["scenario"] = name
        rows.append(row)
        by_name[name] = row
        table.add_row(
            name,
            f"{stats.availability:.3f}",
            f"{stats.overall.p99_us / 1000:.2f}",
            str(faults.faults if faults else 0),
            str(faults.retries if faults else 0),
            str(faults.quarantines if faults else 0),
            str(stats.degraded_queries),
            str(stats.unapplied_updates),
            str(stats.n_shed),
        )
    table.print()
    print()

    failures = []

    clean = by_name["clean"]["stats"]
    if clean["availability"] != 1.0:
        failures.append(
            f"clean run availability {clean['availability']:.3f} != 1.0"
        )
    if (
        clean["n_shed"]
        or clean["degraded_queries"]
        or clean["unapplied_updates"]
    ):
        failures.append(
            "clean run reported degradation: "
            f"shed={clean['n_shed']} degraded={clean['degraded_queries']} "
            f"deferred={clean['unapplied_updates']}"
        )

    transient = by_name["transient"]["stats"]
    tfaults = transient["fault_stats"] or {}
    if not tfaults.get("faults"):
        failures.append("transient run observed no injected faults")
    if tfaults.get("exhausted"):
        failures.append(
            f"transient run exhausted {tfaults['exhausted']} retries "
            "(the finite schedule makes this impossible — retry bug)"
        )
    if transient["availability"] != 1.0:
        failures.append(
            f"transient availability {transient['availability']:.3f} != 1.0 "
            "(retry must mask a schedule that eventually clears)"
        )
    transient_p99_ms = transient["overall"]["p99_us"] / 1000
    if not math.isfinite(transient_p99_ms) or transient_p99_ms > args.max_p99_ms:
        failures.append(
            f"transient p99 {transient_p99_ms:.2f}ms exceeds the "
            f"{args.max_p99_ms:.0f}ms bound"
        )

    quarantine = by_name["quarantine"]["stats"]
    qfaults = quarantine["fault_stats"] or {}
    floor = (args.shards - 1) / args.shards
    if not qfaults.get("quarantines"):
        failures.append("quarantine run never opened a breaker")
    if not qfaults.get("bands_dropped"):
        failures.append("quarantine run dropped no sub-bands")
    if not quarantine["degraded_queries"]:
        failures.append("quarantine run flagged no degraded queries")
    if quarantine["availability"] < floor:
        failures.append(
            f"quarantine availability {quarantine['availability']:.3f} "
            f"below the (N-1)/N floor {floor:.3f}"
        )

    if args.json_path:
        payload = {
            "benchmark": "fault_recovery",
            "config": {
                "n_users": config.n_users,
                "n_policies": config.n_policies,
                "grouping_factor": config.grouping_factor,
                "page_size": config.page_size,
                "seed": config.seed,
                "rate_per_sec": args.rate,
                "n_requests": args.requests,
                "n_shards": args.shards,
                "latency": args.latency,
                "update_fraction": args.update_fraction,
                "knn_fraction": KNN_FRACTION,
                "max_batch": args.max_batch,
                "max_wait_us": args.max_wait_us,
                "shard_buffer_pages": args.shard_buffer_pages,
                "transient_fail_reads": list(TRANSIENT_FAIL_READS),
                "transient_fail_writes": list(TRANSIENT_FAIL_WRITES),
                "transient_max_attempts": TRANSIENT_RETRY.max_attempts,
            },
            "rows": rows,
            "gates": {
                "availability_floor": floor,
                "max_p99_ms": args.max_p99_ms,
                "transient_p99_ms": transient_p99_ms,
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
        "\nTransient faults retried to bit-identical results; quarantine "
        "degraded gracefully. OK"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
