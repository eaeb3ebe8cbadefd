"""Checkpoint and restore: surviving a server restart.

Building a large PEB-tree — generating policies, encoding sequence
values, inserting every user — dominates startup time.  A checkpoint
captures the whole deployment (page images, policy directory with its
sequence values, index metadata) in two files; a restart reloads it
and answers queries identically, starting from a cold buffer exactly
like a rebooted machine.  The example prints how the restore's time
compares with the build's, whichever is faster.

Run with::

    python examples/checkpoint_restore.py
"""

import os
import tempfile
import time

from repro import prq
from repro.bench import ExperimentConfig, build_world
from repro.core.checkpoint import load_peb_tree, save_peb_tree
from repro.spatial.geometry import Rect

CONFIG = ExperimentConfig(
    n_users=20_000, n_policies=10, build_buffer_pages=1024, seed=31
)


def main():
    started = time.perf_counter()
    world = build_world(CONFIG)
    states, tree = world.states, world.peb
    build_seconds = time.perf_counter() - started
    print(
        f"Built the deployment from scratch in {build_seconds:.1f}s "
        f"({CONFIG.n_users} users, {CONFIG.n_policies} policies each)."
    )

    issuer = sorted(states)[0]
    window = Rect(300, 700, 300, 700)
    before = prq(tree, issuer, window, 15.0).uids

    with tempfile.TemporaryDirectory() as directory:
        started = time.perf_counter()
        save_peb_tree(tree, directory)
        save_seconds = time.perf_counter() - started
        disk_bytes = os.path.getsize(os.path.join(directory, "disk.bin"))
        meta_bytes = os.path.getsize(os.path.join(directory, "meta.json.gz"))
        print(
            f"Checkpoint written in {save_seconds:.2f}s "
            f"(disk.bin {disk_bytes / 1024:.0f} KiB, "
            f"meta.json.gz {meta_bytes / 1024:.0f} KiB)."
        )

        started = time.perf_counter()
        restored = load_peb_tree(directory, buffer_pages=50)
        load_seconds = time.perf_counter() - started
        if load_seconds <= build_seconds:
            ratio = build_seconds / max(load_seconds, 1e-9)
            comparison = f"{ratio:.1f}x faster than"
        else:
            comparison = f"{load_seconds / max(build_seconds, 1e-9):.1f}x slower than"
        print(f"Restored in {load_seconds:.2f}s — {comparison} rebuilding.")

    after = prq(restored, issuer, window, 15.0)
    print(
        f"\nPRQ for u{issuer} before restart: {len(before)} users; "
        f"after: {len(after.uids)} users "
        f"({restored.stats.physical_reads} cold-buffer reads)."
    )
    assert after.uids == before
    print("Identical answers across the restart. ✓")


if __name__ == "__main__":
    main()
