"""Extension benchmark: continuous PRQ vs repeated snapshot queries.

A standing query re-evaluated every tick is the naive way to monitor a
region.  The continuous monitor (Section 8 extension,
:mod:`repro.core.continuous`) pays one registration scan, then maintains
the result from tracked motion functions with zero index I/O — the
benchmark quantifies the break-even point in ticks.
"""

from repro.bench.harness import ExperimentHarness
from repro.bench.reporting import SeriesTable
from repro.core.continuous import ContinuousPRQ
from repro.core.prq import prq
from repro.spatial.geometry import Rect

from benchmarks.conftest import run_once

TICKS = 10
TICK_MINUTES = 5.0


def test_continuous_vs_snapshots(benchmark, preset):
    config = preset.base.scaled(
        n_users=min(preset.base.n_users, 2000),
        n_queries=min(preset.base.n_queries, 20),
    )
    harness = ExperimentHarness(config)
    issuers = sorted(
        harness.states,
        key=lambda uid: -len(harness.store.friend_list(uid)),
    )[: config.n_queries]
    half = config.window_side / 2.0
    center = config.space_side / 2.0
    window = Rect(center - half, center + half, center - half, center + half)
    times = [tick * TICK_MINUTES for tick in range(TICKS)]

    def measure(func):
        pool = harness.peb.btree.pool
        pool.flush()
        pool.resize(config.buffer_pages)
        pool.stats.reset()
        func()
        reads = pool.stats.physical_reads
        pool.resize(config.build_buffer_pages)
        return reads

    def run():
        # Tick-major order: the server re-evaluates every standing query
        # each tick — the realistic access pattern a monitor replaces
        # (issuer-major order would let one issuer's pages stay hot in
        # the 50-page buffer across all ticks, which no server sees).
        snapshot_answers = {q_uid: [] for q_uid in issuers}

        def snapshots():
            for t in times:
                for q_uid in issuers:
                    snapshot_answers[q_uid].append(
                        prq(harness.peb, q_uid, window, t).uids
                    )

        snapshot_io = measure(snapshots)

        monitor_answers = {}

        def monitored():
            for q_uid in issuers:
                monitor = ContinuousPRQ(harness.peb, q_uid, window, times[0])
                monitor_answers[q_uid] = [monitor.result_at(t) for t in times]

        monitor_io = measure(monitored)

        mismatches = sum(
            snapshot_answers[q_uid] != monitor_answers[q_uid] for q_uid in issuers
        )
        return snapshot_io / len(issuers), monitor_io / len(issuers), mismatches

    snapshot_io, monitor_io, mismatches = run_once(benchmark, run)
    table = SeriesTable(
        f"Continuous PRQ vs {TICKS} snapshot re-evaluations, "
        f"avg I/O per issuer [{preset.name}]",
        ["strategy", "I/O"],
    )
    table.add_row(f"{TICKS} snapshot PRQs", snapshot_io)
    table.add_row("register + monitor", monitor_io)
    table.print()
    benchmark.extra_info["snapshot"] = snapshot_io
    benchmark.extra_info["monitor"] = monitor_io

    assert mismatches == 0  # identical result histories
    # One registration must beat re-querying every tick.
    assert monitor_io < snapshot_io
