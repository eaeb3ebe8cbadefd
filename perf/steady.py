"""A yardstick for the box's speed, taken while the benchmark runs.

The reference box is a shared 2-vCPU VM whose speed changes under the
benchmark: the same work takes up to 1.5x longer during slow spells that
last from a fraction of a second to minutes.  Spells shorter than a pass
are ridden out by repeating the pass and counting each segment at its
fastest (``run.py``).  Spells longer than a run cannot be ridden out, so
every pass also times :func:`kernel`, a fixed piece of interpreter-bound
work that shares no code with the program, between its segments, and
wall seconds are scaled by ``REFERENCE_S / (the pass's fastest kernel)``:
they read as seconds on the reference box at full speed, and a slow
spell of the box no longer reads as a regression of the program.
"""

from __future__ import annotations

import time

#: The kernel's fastest time on the reference box (2 vCPU, CPython 3.11).
REFERENCE_S = 0.00450


def kernel(n: int = 30000) -> int:
    """Arithmetic, indexing, dict hits and calls; no allocation to speak of."""
    table = {i: i * 3 for i in range(64)}
    ring = [0] * 64
    acc = 0
    get = table.get
    for i in range(n):
        j = i & 63
        acc = (acc + get(j, 0) * i) & 0xFFFFFF
        ring[j] = acc ^ ring[(j + 7) & 63]
        if acc & 1:
            acc += len(ring)
    return acc


def kernel_seconds(samples: int) -> float:
    """The fastest of ``samples`` back-to-back kernel runs."""
    best = float("inf")
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
