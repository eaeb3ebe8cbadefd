"""Batch execution: many concurrent queries, one set of band scans.

Run with::

    python examples/batch_queries.py

A location server rarely sees one query at a time — it drains a queue.
This example builds a small world, draws a mixed queue of privacy-aware
range and kNN queries, and executes it through the unified query
engine's batch executor: the planner turns every range query into band
requests up front, overlapping requests from different issuers are
merged and physically scanned once, and each query is then answered
from the shared in-memory band store.  The per-query results are
bit-identical to running the queries individually — the example checks
a few against ``prq``/``pknn`` — while the ``ExecutionStats`` show how
much scan work the batch shared.
"""

import random

from repro import (
    ExperimentConfig,
    ExperimentHarness,
    QueryEngine,
    QueryGenerator,
    pknn,
    prq,
)
from repro.core.pknn import PKNNResult
from repro.core.prq import PRQResult
from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec


def main():
    harness = ExperimentHarness(
        ExperimentConfig(
            n_users=1500, n_policies=12, page_size=1024, window_side=250.0, seed=7
        )
    )
    print(f"built a {harness.config.n_users}-user world")

    # --- a mixed query queue, as a server would see it ----------------
    generator = QueryGenerator(harness.config.space_side, random.Random(42))
    specs = generator.mixed_queries(
        harness.states, count=48, window_side=250.0, k=4, t_query=0.0
    )
    n_range = sum(isinstance(spec, RangeQuerySpec) for spec in specs)
    print(f"queue: {n_range} range queries, {len(specs) - n_range} kNN queries")

    # --- one batch, shared band scans ---------------------------------
    # From a cold pool of the paper's 50 pages: the 8 192-frame build
    # buffer would hold the whole index and read nothing.
    pool = harness.peb.btree.pool
    pool.flush()
    pool.clear()
    pool.resize(harness.config.buffer_pages)
    engine = QueryEngine(harness.peb)
    report = engine.execute_batch(specs)
    stats = report.stats
    print(
        f"bands: {stats.bands_requested} requested, "
        f"{stats.bands_scanned} physically scanned, "
        f"{stats.bands_deduped} shared ({stats.dedup_ratio:.0%} dedup)"
    )
    print(
        f"candidates examined: {stats.candidates_examined}, "
        f"physical page reads: {stats.physical_reads}"
    )

    # --- spot-check against the one-at-a-time adapters ----------------
    for spec, batched in list(zip(specs, report.results))[:8]:
        if isinstance(spec, RangeQuerySpec):
            single = prq(harness.peb, spec.q_uid, spec.window, spec.t_query)
            assert isinstance(batched, PRQResult) and single.uids == batched.uids
        else:
            assert isinstance(spec, KnnQuerySpec)
            single = pknn(
                harness.peb, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
            )
            assert isinstance(batched, PKNNResult)
            assert single.uids == batched.uids
    print("spot-checked 8 batched results against individual runs: identical")


if __name__ == "__main__":
    main()
