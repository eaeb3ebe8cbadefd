"""The repo's benchmark: five workloads, one wall clock, one virtual clock.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds one population from the seed, serves the workload, checks every
answer against brute force, prints each metric by name with its unit
and, as the last line, the result object ``BENCHMARK.json`` describes.
Without ``--workload`` every workload runs, one child process at a time.
See ``perf/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# This directory must not be importable by bare name: ``trace`` would
# shadow the standard library's.  The benchmark is the package ``perf``.
sys.path[:] = [SRC, ROOT] + [
    entry for entry in sys.path
    if os.path.abspath(entry or ".") not in (HERE, ROOT, SRC)
]

try:
    from perf import workloads
    from perf.steady import REFERENCE_S, kernel_seconds
    from perf.trace import TARGETS, LayerTracer
except ImportError as error:  # no program to measure in this checkout
    raise SystemExit(f"perf/run.py: cannot import the program under {SRC}: {error}")

#: Untraced passes of the same stream a run makes at least, each on a
#: fresh index.  Contention on a shared box only ever slows a segment
#: down, so each timed segment counts at its fastest pass.
MIN_PASSES = 3
MAX_PASSES = 12
#: Untraced passes that precede a traced one (its overhead baseline).
TRACE_BASELINE_PASSES = 2
#: Index builds and stream generations timed per run; ``setup_s`` takes
#: the fastest of each.
SETUP_REPEATS = 3

LAYERS = sorted({layer for layer, _, _ in TARGETS})
#: Call counts that only feed derived metrics (sums and ratios).
DERIVED_ONLY = {"engine.plan.plan_range", "engine.plan.plan_knn_probe",
                "core.peb_tree.scan_band", "btree.insert", "btree.delete",
                "btree.replace"}
WALL_METRICS = {"setup_s", "wall_req_per_s", "peak_rss_mb", "simio.sched_wait_s",
                "trace.coverage_frac", "trace.overhead_frac"}


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def is_deterministic(name: str) -> bool:
    return not (
        name in WALL_METRICS or name.endswith(".self_s") or name.startswith("direct.")
    )


def counters_digest(metrics: dict[str, float]) -> str:
    """One hash over every metric that must repeat exactly."""
    text = ";".join(
        f"{name}={metrics[name]!r}" for name in sorted(metrics) if is_deterministic(name)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _reference_seconds(outcome: workloads.Outcome) -> list[float]:
    """The pass's segments in seconds of the reference box at full speed."""
    scale = REFERENCE_S / outcome.kernel_s
    return [seconds * scale for seconds in outcome.segments]


def _fastest(passes: list[list[float]]) -> list[float]:
    """Each segment at its fastest pass."""
    return [min(times) for times in zip(*passes)]


def _fingerprint(outcome: workloads.Outcome) -> tuple:
    return (outcome.reads, outcome.writes, outcome.virtual_us,
            sorted(outcome.stats.items()))


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, sizes: workloads.Sizes,
    out_dir: str | None = None,
) -> dict:
    """Run one workload; returns ``{metrics, attempted, failed, info}``.

    ``metrics`` holds the end-to-end metrics (untraced) or the per-layer
    ones (traced); ``info`` holds human-readable extras.
    """
    workload = workloads.WORKLOADS[name]
    closed_loop = workload.rate is None
    build = workloads.build_single if closed_loop else workloads.build_deployment
    drive = workloads.drive_direct if closed_loop else workloads.serve

    kernel_s = kernel_seconds(sizes.kernel_samples)
    population, population_s = _timed(workloads.build_population, sizes)
    kernel_s = min(kernel_s, kernel_seconds(sizes.kernel_samples))
    generated = [
        _timed(workloads.build_stream, workload, population, seed, sizes)
        for _ in range(SETUP_REPEATS)
    ]
    stream = generated[0][0]
    built = [_timed(build, population, sizes) for _ in range(SETUP_REPEATS)]
    kernel_s = min(kernel_s, kernel_seconds(sizes.kernel_samples))
    raw_setup_s = population_s + min(s for _, s in generated) + min(s for _, s in built)
    setup_s = raw_setup_s * REFERENCE_S / kernel_s
    spare = [index for index, _ in built]

    def fresh_index():
        return spare.pop() if spare else build(population, sizes)

    # Untraced passes: the same stream on a fresh index, at least
    # ``wanted`` times and then for as long as another pass still fits
    # in the run length.
    first = drive(fresh_index(), stream, sizes)
    requests = first.requests
    mismatches, rows = workloads.check(population, first)
    failed = first.refused + mismatches
    unscaled = [first.segments]
    scaled = [_reference_seconds(first)]
    pass_walls = [first.wall_s]
    wanted = TRACE_BASELINE_PASSES if traced else MIN_PASSES
    while len(pass_walls) < wanted or (
        not traced
        and len(pass_walls) < MAX_PASSES
        and sum(pass_walls) + statistics.median(pass_walls) <= seconds
    ):
        again = drive(fresh_index(), stream, sizes)
        unscaled.append(again.segments)
        scaled.append(_reference_seconds(again))
        pass_walls.append(again.wall_s)
        if _fingerprint(again) != _fingerprint(first):
            print("perf: a repeat of the same stream changed the counters")
            failed += requests
    best = _fastest(scaled)
    wall_s = sum(best)

    # Closed loop: per-class percentiles of the per-call times.
    direct = dict.fromkeys(("prq", "pknn", "update"), (0, 0.0, 0.0))
    offset = 0
    for kind, count in first.classes:
        times = best[offset:offset + count]
        direct[kind] = (
            count, workloads.percentile(times, 0.5), workloads.percentile(times, 0.9)
        )
        offset += count
    info = {
        "requests": requests,
        "passes": len(pass_walls),
        "raw_req_per_s": requests / sum(_fastest(unscaled)),
        "raw_setup_s": raw_setup_s,
        "direct": direct,
    }
    if not traced:
        metrics = {
            "setup_s": setup_s,
            "wall_req_per_s": requests / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "reads_per_req": first.reads / requests,
            "page_io_per_req": (first.reads + first.writes) / requests,
            "virt_ms_per_req": first.virtual_us / requests / 1e3,
        }
        return {"metrics": metrics, "attempted": requests, "failed": failed, "info": info}

    tracer = LayerTracer()
    wrapped = drive(fresh_index(), stream, sizes, tracer)
    failed += wrapped.refused + workloads.check(population, wrapped)[0]
    if _fingerprint(wrapped) != _fingerprint(first):
        print("perf: tracing changed the counters")
        failed += requests
    ledger = tracer.ledger()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}.seed{seed}.folded")
        with open(path, "w") as handle:
            handle.write("\n".join(tracer.collapsed()) + "\n")
        info["collapsed"] = os.path.relpath(path, ROOT)

    calls, counters = ledger["calls"], ledger["counters"]
    metrics = {f"{layer}.self_s": ledger["self_s"].get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        f"{key}.calls": value for key, value in calls.items() if key not in DERIVED_ONLY
    })
    metrics["core.pknn.searches"] = metrics.pop("core.pknn.searches.calls")
    metrics.update(wrapped.stats)
    physical = calls["core.peb_tree.scan_band_rows"] + calls["core.peb_tree.scan_band"]
    scans = calls["engine.scanner.scan"]
    candidates = counters.get("candidates_examined", 0)
    prefetched = counters.get("entries_prefetched", 0)
    metrics.update({
        "engine.plan.calls": calls["engine.plan.plan_range"]
        + calls["engine.plan.plan_knn_probe"],
        "engine.plan.bands_requested": counters.get("bands_planned", 0),
        "engine.scanner.bands_scanned": physical,
        "engine.scanner.dedup_ratio": max(0.0, 1.0 - physical / scans) if scans else 0.0,
        "engine.scanner.overscan_ratio": (
            counters.get("dead_entries", 0) / prefetched if prefetched else 0.0
        ),
        "engine.scanner.memo_evictions": counters.get("memo_evictions", 0),
        "engine.verify.candidates_examined": candidates,
        "engine.verify.candidates_per_result": candidates / max(1, rows),
        "btree.descents_per_req": (
            calls["btree.scan_chunks"] + calls["btree.insert"] + calls["btree.delete"]
            + calls["btree.replace"] + wrapped.stats["btree.leaves_visited"]
        ) / requests,
        "storage.buffer.physical_reads": wrapped.reads,
        "storage.buffer.physical_writes": wrapped.writes,
        "simio.sched_wait_s": ledger["sched_wait_s"],
        "trace.coverage_frac": ledger["covered_s"] / wrapped.wall_s,
        "trace.overhead_frac": sum(_reference_seconds(wrapped)) / wall_s - 1.0,
        "trace.unresolved_targets": len(tracer.unresolved),
        "direct.prq_wall_ms_p50": direct["prq"][1] * 1e3,
        "direct.prq_wall_ms_p90": direct["prq"][2] * 1e3,
        "direct.pknn_wall_ms_p50": direct["pknn"][1] * 1e3,
        "direct.update_wall_us_p50": direct["update"][1] * 1e6,
        "direct.update_wall_us_p90": direct["update"][2] * 1e6,
    })
    return {"metrics": metrics, "attempted": requests, "failed": failed, "info": info}


def report(name: str, result: dict, declared: list[dict]) -> dict:
    """Print one workload's metrics; returns the contract's result object."""
    metrics = result["metrics"]
    names = [metric["name"] for metric in declared]
    if set(names) != set(metrics):
        raise SystemExit(
            "perf/run.py: BENCHMARK.json and the run disagree on metric names: "
            f"{sorted(set(names) ^ set(metrics))}"
        )
    info = result["info"]
    print(f"== {name}: {info['requests']} requests x {info['passes']} untraced passes, "
          f"{result['failed']} failed of {result['attempted']}; "
          f"unscaled: {info['raw_req_per_s']:.2f} 1/s, "
          f"set-up {info['raw_setup_s']:.3f} s")
    for metric in declared:
        print(f"{metric['name']:<40} {metrics[metric['name']]:>16.6f} {metric['unit']}")
    for kind, (n, p50, p90) in info["direct"].items():
        if n:
            print(f"direct {kind}: n={n} p50={p50 * 1e3:.4f} ms p90={p90 * 1e3:.4f} ms")
    if "collapsed" in info:
        print(f"collapsed stacks: {info['collapsed']}")
    print(f"counters_digest {counters_digest(metrics)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def run_children(args, manifest: dict, names: list[str]) -> int:
    """Each workload in its own process, one at a time; with
    ``--check-repeat`` twice, comparing digests and wall metrics."""
    bounds = {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}
    status = 0
    for name in names:
        runs = []
        for _ in range(2 if args.check_repeat else 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                status = 1
                continue
            digest = next(
                (line.split()[1] for line in lines if line.startswith("counters_digest ")),
                None,
            )
            runs.append((digest, json.loads(lines[-1])["metrics"]))
        if len(runs) == 2:
            (digest_a, first), (digest_b, second) = runs
            if digest_a != digest_b:
                print(f"check-repeat {name}: counters_digest differs "
                      f"({digest_a} vs {digest_b})")
                status = 1
            for metric in sorted(WALL_METRICS & set(first)):
                a, b = first[metric]["value"], second[metric]["value"]
                spread = abs(a - b) / ((a + b) / 2) if a + b else 0.0
                print(f"check-repeat {name}: {metric} spread {spread:.4f}"
                      + (f" (bound {bounds[metric]})" if metric in bounds else ""))
    return status


def main(argv: list[str] | None = None) -> int:
    manifest = load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run each workload twice and compare")
    args = parser.parse_args(argv)
    if args.workload is None or args.check_repeat:
        return run_children(
            args, manifest, [args.workload] if args.workload else names
        )

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.SMOKE if args.smoke else workloads.FULL,
        out_dir=os.path.join(HERE, "out"),
    )
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    line = report(args.workload, result, declared)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
