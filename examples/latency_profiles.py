"""Device profiles and overlapped I/O: the same workload, priced in time.

Run with::

    python examples/latency_profiles.py

Physical read/write *counts* are device-blind: the same batch costs the
same pages whether they live on a spinning disk or an NVMe drive, and
whether the shards are driven one after another or concurrently.  This
example prices one hotspot workload (an update stream followed by a
range-query batch) through the simulated-latency subsystem
(:mod:`repro.simio`) on all three built-in device profiles, each at
1 shard (serial schedule) and 4 shards (overlapped schedule: per-shard
prefetch scans and update sweeps fork/join on one virtual clock,
verification pipelined against still-running scans).

Two things to watch in the output:

* the **speedup** of 4 overlapped shards grows with the device's
  seek/transfer ratio — overlap pays most where positioning dominates
  (hdd), least where transfers are nearly free (nvme);
* the **overlap factor** (device busy time / elapsed time) shows the
  scheduler genuinely keeping several devices busy at once — it is
  1.0 by construction on the serial baseline;
* the **seeks** and **seq ratio** columns count, per device, how many
  accesses paid the positioning cost versus rode a sequential run:
  merged band scans and leaf-ordered sweeps keep the ratio high, and
  the device profile decides how much each avoided seek is worth.

Every timed run's query results and final index contents are pinned
identical to untimed single-tree execution inside ``run_overlap`` —
latency simulation is timing-only, never an approximation.
"""

from repro import ExperimentConfig, ExperimentHarness
from repro.simio import PROFILES


def main():
    harness = ExperimentHarness(
        ExperimentConfig(n_users=1200, n_policies=10, page_size=1024, seed=7)
    )
    print(f"built a {harness.config.n_users}-user world\n")

    header = (
        f"{'profile':<8} {'seek us':>8} {'xfer us':>8} "
        f"{'1-shard ms':>11} {'4-shard ms':>11} {'speedup':>8} {'overlap':>8} "
        f"{'seeks':>7} {'seq ratio':>9}"
    )
    print(header)
    print("-" * len(header))
    for name in ("hdd", "ssd", "nvme"):
        profile = PROFILES[name]
        costs = harness.run_overlap(
            4,
            latency=name,
            workload="hotspot",
            n_updates=800,
            n_queries=32,
        )
        print(
            f"{name:<8} {profile.seek_us:>8.0f} {profile.read_us:>8.0f} "
            f"{costs.baseline_elapsed_us / 1000:>11.1f} "
            f"{costs.sharded_elapsed_us / 1000:>11.1f} "
            f"{costs.speedup:>7.2f}x {costs.overlap_factor:>8.2f} "
            f"{costs.sharded_seeks:>7} {costs.sharded_sequential_ratio:>9.3f}"
        )

    print(
        "\nSame pages, same counts — only the schedule and the device"
        " change.\nOverlap pays most where seeks dominate; every result was"
        " verified identical\nto sequential single-tree execution."
    )


if __name__ == "__main__":
    main()
