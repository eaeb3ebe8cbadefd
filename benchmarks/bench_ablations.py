"""Ablations of the paper's design choices (beyond the paper's figures).

1. **Key order** — Section 5.2: "The construction of the PEB key gives
   higher priority to sequence values than to location mapping values."
   We compare the Section 5.4 walk's band-search I/O (and, as a
   documented departure, the served PRQ's point fetches) under the
   paper's SV-first layout vs a ZV-first layout.
2. **Per-SV search ranges vs one SVmin..SVmax band** — Section 5.3 prose
   vs Figure 7's coarse pseudo-code.
3. **Triangular vs column-major PkNN search order** — Figure 9.
4. **Sequence-value encoder** — the Figure 5 assignment vs the BFS
   alternative of Section 8's "new encoding techniques".
5. **Space-filling curve** — the paper's Z-curve vs Hilbert [22].
6. **Buffer management** — the paper's 50-page LRU vs FIFO/CLOCK/LFU,
   and the buffer-size sensitivity of the PEB-tree-vs-baseline gap.

All variants return identical query results (asserted in
``tests/test_ablation.py`` and the encoder/curve test modules); here we
measure what each choice costs.
"""

from repro.bench.harness import ExperimentHarness
from repro.bench.reporting import SeriesTable
from repro.core.ablation import make_zv_first_tree, prq_span_scan
from repro.core.encoders import ENCODERS, make_encoder
from repro.core.peb_tree import PEBTree
from repro.core.pknn import pknn_walk
from repro.core.prq import prq
from repro.storage import BufferPool, SimulatedDisk

from benchmarks.conftest import run_once


def _ablation_harness(preset):
    config = preset.base.scaled(
        n_users=min(preset.base.n_users, 2000),
        n_queries=min(preset.base.n_queries, 20),
    )
    return config, ExperimentHarness(config)


def _measured(pool, buffer_pages, func):
    pool.flush()
    pool.resize(buffer_pages)
    pool.stats.reset()
    func()
    return pool.stats.physical_reads


def test_ablation_key_field_order(benchmark, preset):
    """Section 5.2's layout claim is about the per-friend band search:
    the Section 5.4 walk (:func:`pknn_walk`) scans, per matrix cell, one
    band per friend SV over the cell's Z-interval, which the SV-first
    key keeps one key run and the ZV-first key spreads over every SV in
    the interval.  The gate is asserted there.  A served PRQ fetches one
    point key per friend, the key the update memo names, so the layout
    barely moves its reads: its row stays in the table and in
    ``extra_info`` as a documented departure, not a gate."""
    config, harness = _ablation_harness(preset)
    swapped_pool = BufferPool(
        SimulatedDisk(page_size=config.page_size), capacity=config.build_buffer_pages
    )
    swapped = make_zv_first_tree(
        swapped_pool, harness.grid, harness.partitioner, harness.store
    )
    for obj in harness.states.values():
        swapped.insert(obj)
    generator = harness.query_generator()
    ranges = generator.range_queries(
        sorted(harness.states), config.n_queries, config.window_side, harness.now
    )
    nearest = generator.knn_queries(
        harness.states, config.n_queries, config.k, harness.now
    )

    def per_query(tree, pool, run, queries):
        reads = _measured(pool, config.buffer_pages, lambda: [run(tree, q) for q in queries])
        return reads / len(queries)

    def walk(tree, q):
        return pknn_walk(tree, q.q_uid, q.qx, q.qy, q.k, q.t_query)

    def served_prq(tree, q):
        return prq(tree, q.q_uid, q.window, q.t_query)

    def run():
        layouts = ((harness.peb, harness.peb.btree.pool), (swapped, swapped_pool))
        return [
            per_query(tree, pool, search, queries)
            for search, queries in ((served_prq, ranges), (walk, nearest))
            for tree, pool in layouts
        ]

    prq_sv_io, prq_zv_io, sv_io, zv_io = run_once(benchmark, run)
    table = SeriesTable(
        f"Ablation: PEB-key field order [{preset.name}]",
        ["layout", "PkNN walk I/O per query", "served PRQ I/O per query"],
    )
    table.add_row("SV before ZV (paper)", sv_io, prq_sv_io)
    table.add_row("ZV before SV", zv_io, prq_zv_io)
    table.print()
    benchmark.extra_info["sv_first"] = sv_io
    benchmark.extra_info["zv_first"] = zv_io
    benchmark.extra_info["served_prq_sv_first"] = prq_sv_io
    benchmark.extra_info["served_prq_zv_first"] = prq_zv_io
    assert sv_io < zv_io  # the paper's layout must win


def test_ablation_per_sv_ranges_vs_span_scan(benchmark, preset):
    config, harness = _ablation_harness(preset)
    queries = harness.query_generator().range_queries(
        sorted(harness.states), config.n_queries, config.window_side, harness.now
    )

    def run():
        per_sv = _measured(
            harness.peb.btree.pool,
            config.buffer_pages,
            lambda: [prq(harness.peb, q.q_uid, q.window, q.t_query) for q in queries],
        )
        span = _measured(
            harness.peb.btree.pool,
            config.buffer_pages,
            lambda: [
                prq_span_scan(harness.peb, q.q_uid, q.window, q.t_query)
                for q in queries
            ],
        )
        return per_sv / len(queries), span / len(queries)

    per_sv_io, span_io = run_once(benchmark, run)
    table = SeriesTable(
        f"Ablation: PRQ search ranges [{preset.name}]",
        ["strategy", "avg I/O per query"],
    )
    table.add_row("per-SV ranges (Section 5.3 prose)", per_sv_io)
    table.add_row("one SVmin..SVmax band (Figure 7 sketch)", span_io)
    table.print()
    benchmark.extra_info["per_sv"] = per_sv_io
    benchmark.extra_info["span"] = span_io
    assert per_sv_io <= span_io


def test_ablation_pknn_search_order(benchmark, preset):
    config, harness = _ablation_harness(preset)
    queries = harness.query_generator().knn_queries(
        harness.states, config.n_queries, config.k, harness.now
    )

    def run():
        triangular = _measured(
            harness.peb.btree.pool,
            config.buffer_pages,
            lambda: [
                pknn_walk(harness.peb, q.q_uid, q.qx, q.qy, q.k, q.t_query)
                for q in queries
            ],
        )
        column = _measured(
            harness.peb.btree.pool,
            config.buffer_pages,
            lambda: [
                pknn_walk(
                    harness.peb,
                    q.q_uid,
                    q.qx,
                    q.qy,
                    q.k,
                    q.t_query,
                    order="column",
                )
                for q in queries
            ],
        )
        return triangular / len(queries), column / len(queries)

    triangular_io, column_io = run_once(benchmark, run)
    table = SeriesTable(
        f"Ablation: PkNN matrix traversal [{preset.name}]",
        ["order", "avg I/O per query"],
    )
    table.add_row("triangular (Figure 9)", triangular_io)
    table.add_row("column-major", column_io)
    table.print()
    benchmark.extra_info["triangular"] = triangular_io
    benchmark.extra_info["column"] = column_io
    # Column order does strictly more cell scans before terminating, so
    # it can never be cheaper (ties possible when the buffer absorbs it).
    assert triangular_io <= column_io * 1.05 + 1.0


def test_ablation_sequence_encoders(benchmark, preset):
    """Which compatibility-graph linearization clusters friends best?

    The same workload is re-encoded with each registered encoder, the
    PEB-tree rebuilt, and the PRQ batch replayed.  Results are identical
    by construction (tests/test_encoders.py); only the layout — and hence
    the I/O — differs.  BFS keeps second- and third-degree relations in
    one SV neighbourhood, so it must never read more than Figure 5.
    """
    config, harness = _ablation_harness(preset)
    queries = harness.query_generator().range_queries(
        sorted(harness.states), config.n_queries, config.window_side, harness.now
    )
    users = sorted(harness.states)
    space_area = config.space_side**2

    def measure_encoder(name):
        report = make_encoder(name).encode(users, harness.store, space_area)
        harness.store.set_sequence_values(report.sequence_values)
        pool = BufferPool(
            SimulatedDisk(page_size=config.page_size),
            capacity=config.build_buffer_pages,
        )
        tree = PEBTree(pool, harness.grid, harness.partitioner, harness.store)
        for obj in harness.states.values():
            tree.insert(obj)
        reads = _measured(
            pool,
            config.buffer_pages,
            lambda: [prq(tree, q.q_uid, q.window, q.t_query) for q in queries],
        )
        return reads / len(queries)

    def run():
        return {name: measure_encoder(name) for name in sorted(ENCODERS)}

    costs = run_once(benchmark, run)
    # Leave the harness in its canonical figure5 encoding for any test
    # that shares the session after us.
    harness.store.set_sequence_values(harness.encoding_report.sequence_values)

    table = SeriesTable(
        f"Ablation: sequence-value encoder, PRQ I/O [{preset.name}]",
        ["encoder", "avg I/O per query"],
    )
    for name, io_cost in costs.items():
        table.add_row(name, io_cost)
    table.print()
    benchmark.extra_info.update(costs)
    assert set(costs) == set(ENCODERS)
    assert all(cost > 0 for cost in costs.values())
    assert costs["bfs"] <= costs["figure5"]


def test_ablation_space_filling_curve(benchmark, preset):
    """Z-curve (paper) vs Hilbert: does better clustering [22] show up?

    The SV field dominates the key, so the curve only refines ordering
    within one (TID, SV) band — the expectation is near-parity, which is
    itself evidence for the paper's 'location is supplementary' claim.
    """
    config, _ = _ablation_harness(preset)

    def measure_curve(curve_name):
        harness = ExperimentHarness(config.scaled(curve=curve_name))
        prq_costs = harness.run_prq_batch()
        knn_costs = harness.run_pknn_batch()
        return prq_costs.peb_io, knn_costs.peb_io

    def run():
        return {name: measure_curve(name) for name in ("z", "hilbert")}

    costs = run_once(benchmark, run)
    table = SeriesTable(
        f"Ablation: space-filling curve, PEB-tree I/O [{preset.name}]",
        ["curve", "PRQ I/O", "PkNN I/O"],
    )
    for name, (prq_io, knn_io) in costs.items():
        table.add_row(name, prq_io, knn_io)
    table.print()
    benchmark.extra_info.update(
        {f"{name}_{kind}": io
         for name, (prq_io, knn_io) in costs.items()
         for kind, io in (("prq", prq_io), ("knn", knn_io))}
    )
    # Near-parity expected: the curve is the least significant key field.
    z_prq, hilbert_prq = costs["z"][0], costs["hilbert"][0]
    assert hilbert_prq <= z_prq * 1.5 + 2.0
    assert z_prq <= hilbert_prq * 1.5 + 2.0


def test_ablation_buffer_policy(benchmark, preset):
    """The paper pins LRU; how sensitive are the numbers to that choice?"""
    config, harness = _ablation_harness(preset)
    queries = harness.query_generator().range_queries(
        sorted(harness.states), config.n_queries, config.window_side, harness.now
    )

    def measure_policy(name):
        from repro.storage.replacement import make_policy

        pool = harness.peb.btree.pool
        pool.flush()
        pool.clear()
        pool.policy = make_policy(name)
        pool.resize(config.buffer_pages)
        pool.stats.reset()
        for query in queries:
            prq(harness.peb, query.q_uid, query.window, query.t_query)
        reads = pool.stats.physical_reads
        pool.resize(config.build_buffer_pages)
        return reads / len(queries)

    def run():
        return {name: measure_policy(name) for name in ("lru", "fifo", "clock", "lfu")}

    costs = run_once(benchmark, run)
    table = SeriesTable(
        f"Ablation: buffer replacement policy, PRQ I/O [{preset.name}]",
        ["policy", "avg I/O per query"],
    )
    for name, io_cost in costs.items():
        table.add_row(name, io_cost)
    table.print()
    benchmark.extra_info.update(costs)
    assert all(cost > 0 for cost in costs.values())


def test_ablation_buffer_size(benchmark, preset):
    """PEB vs baseline PRQ I/O while the query buffer grows.

    The PEB-tree touches few pages per query, so it saturates with a
    small buffer; the baseline keeps benefiting from more frames.  The
    *gap* must persist at every size (the paper's win is not a buffer
    artifact).
    """
    config, harness = _ablation_harness(preset)
    queries = harness.query_generator().range_queries(
        sorted(harness.states), config.n_queries, config.window_side, harness.now
    )
    sizes = (10, 25, 50, 100, 200)

    def _measure_at(pool, pages, tree_call):
        pool.flush()
        pool.clear()
        pool.resize(pages)
        pool.stats.reset()
        tree_call()
        reads = pool.stats.physical_reads
        pool.resize(config.build_buffer_pages)
        return reads / len(queries)

    def run():
        rows = []
        for pages in sizes:
            peb = _measure_at(
                harness.peb.btree.pool,
                pages,
                lambda: [
                    prq(harness.peb, q.q_uid, q.window, q.t_query)
                    for q in queries
                ],
            )
            base = _measure_at(
                harness.bx.btree.pool,
                pages,
                lambda: [
                    harness.baseline.range_query(q.q_uid, q.window, q.t_query)
                    for q in queries
                ],
            )
            rows.append({"pages": pages, "peb": peb, "baseline": base})
        return rows

    rows = run_once(benchmark, run)
    table = SeriesTable(
        f"Ablation: query-buffer size, PRQ I/O [{preset.name}]",
        ["buffer pages", "PEB-tree", "spatial index"],
    )
    for row in rows:
        table.add_row(row["pages"], row["peb"], row["baseline"])
    table.print()
    benchmark.extra_info["series"] = rows
    for row in rows:
        assert row["peb"] < row["baseline"], row


def test_update_performance_parity(benchmark, preset):
    """Section 7.1: "the two approaches achieve similarly good update
    performance" — measured as average physical I/O per update."""
    config, harness = _ablation_harness(preset)
    harness.now += 30.0
    movers = sorted(harness.states.values(), key=lambda obj: obj.uid)[:500]
    moved = [harness.movement.advance(obj, harness.now) for obj in movers]
    for state in moved:
        harness.states[state.uid] = state

    def run():
        peb = _measured(
            harness.peb.btree.pool,
            config.buffer_pages,
            lambda: [harness.peb.update(state) for state in moved],
        )
        bx = _measured(
            harness.bx.btree.pool,
            config.buffer_pages,
            lambda: [harness.bx.update(state) for state in moved],
        )
        return peb / len(moved), bx / len(moved)

    peb_io, bx_io = run_once(benchmark, run)
    table = SeriesTable(
        f"Update performance (I/O per update) [{preset.name}]",
        ["index", "avg I/O per update"],
    )
    table.add_row("PEB-tree", peb_io)
    table.add_row("Bx-tree", bx_io)
    table.print()
    benchmark.extra_info["peb"] = peb_io
    benchmark.extra_info["bx"] = bx_io
    # Parity within a factor of two in either direction.
    assert peb_io < 2.0 * bx_io + 1.0
    assert bx_io < 2.0 * peb_io + 1.0
