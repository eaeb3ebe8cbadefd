"""The Section 5.4 walk, answer for answer and count for count, against a
recorded golden.

:func:`repro.core.pknn.pknn_walk` is the reproduced algorithm the PkNN
figures and the Figure 9 ablation measure, so what it reads and counts
is part of what it reproduces.  ``pknn_walk_golden.json`` was dumped
from :func:`observed` (``json.dumps(observed(), sort_keys=True)``) at
``2a7d39e``, and a rewrite of the walk's bookkeeping must leave it
unchanged.  Its physical reads were re-recorded once, lower, when a
band scan learnt to stop at its landing leaf's upper separator (the
single-tree streams, e.g. Hilbert ``single/column/fresh`` 139 -> 124);
every other field stayed as dumped:

* per query: the ``(round(d, 9), uid)`` list, ``candidates_examined``
  and ``rounds``;
* per stream: the scanner's ``requests``, ``residency_hits``,
  ``scan_calls`` and ``physical_scans``, the pools' physical reads and
  the virtual clock.

Streams run on the test world (Z) and its Hilbert twin, in both orders,
on one tree with an 8-page buffer, on 4 shards on ssd at the paper's 50
frames a shard and on 3 supervised shards on ssd at 8 frames (which
hand the search no residency).  Each stream is issued twice: as
:func:`pknn_walk` runs it (a fresh scanner per search) and as searches
sharing one scanner.  Its queries are issuers' own positions with ``k``
1, 2, 4 and 6, one from ``(1e4, 500)`` (outside the space) and one with
``k`` above the issuer's friend list.
"""

import json
from pathlib import Path

import pytest

from repro.core.peb_tree import PEBTree
from repro.core.pknn import _MatrixSearch
from repro.fault import BreakerPolicy, RetryPolicy
from repro.storage import BufferPool, SimulatedDisk
from repro.storage.faults import FaultyDisk
from repro.workloads.queries import KnnQuerySpec

from tests.conftest import build_world

GOLDEN = Path(__file__).with_name("pknn_walk_golden.json")
T_QUERY = 5.0
#: The paper's buffer on the 4 ssd shards; a small one elsewhere, so
#: that reads depend on the order the walk touches pages in (the test
#: world's tree has 27 leaves).
FRAMES = {"single": 8, "ssd4": 50, "supervised3": 8}
WORLDS = ("z", "hilbert")
DEPLOYMENTS = ("single", "ssd4", "supervised3")
ORDERS = ("triangular", "column")
SCANNERS = ("fresh", "shared")


def deploy(world, kind):
    if kind == "single":
        pool = BufferPool(
            SimulatedDisk(page_size=world.config.page_size), capacity=FRAMES[kind]
        )
        tree = PEBTree(pool, world.grid, world.partitioner, world.store)
        for uid in world.uids:
            tree.insert(world.states[uid])
        pool.clear()
        return tree
    supervised = kind == "supervised3"
    sharded = world.deploy(
        3 if supervised else 4,
        buffer_pages=FRAMES[kind],
        latency="ssd",
        disk_factory=(lambda shard: FaultyDisk(page_size=world.config.page_size))
        if supervised
        else None,
        fault_policy=RetryPolicy(max_attempts=3, base_backoff_us=0.0)
        if supervised
        else None,
        breaker_policy=BreakerPolicy() if supervised else None,
    )
    for pool in sharded.pools:
        pool.clear()
    return sharded


def stream(world):
    """Issuers' own positions (``k`` 1 to 6), then one query from
    outside the space and one asking for more than the friend list."""
    generator = world.query_generator()
    specs = [
        spec
        for k in (1, 2, 4, 6)
        for spec in generator.knn_queries(world.states, 4, k, T_QUERY)
    ]
    issuer = world.uids[3]
    specs.append(KnnQuerySpec(issuer, 1e4, 500.0, 5, T_QUERY))
    above = len(world.store.friend_list(issuer)) + 3
    specs.append(KnnQuerySpec(world.uids[7], 500.0, 500.0, above, T_QUERY))
    return specs


def observe_stream(world, specs, kind, order, scanners):
    tree = deploy(world, kind)
    clock = tree.sim_clock
    reads = tree.stats.physical_reads
    shared = tree.new_scanner() if scanners == "shared" else None
    used = [shared] if shared is not None else []
    queries = []
    for spec in specs:
        search = _MatrixSearch(
            tree, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query, scanner=shared
        )
        result = search.run(order)
        if shared is None:
            used.append(search.scanner)
        queries.append(
            [
                [[round(d, 9), obj.uid] for d, obj in result.neighbors],
                result.candidates_examined,
                result.rounds,
            ]
        )
    counters = {
        name: sum(getattr(scanner, name) for scanner in used)
        for name in ("requests", "residency_hits", "scan_calls", "physical_scans")
    }
    counters["physical_reads"] = tree.stats.physical_reads - reads
    counters["clock"] = None if clock is None else clock.cursor()
    return {"queries": queries, "counters": counters}


def world_of(curve):
    return build_world() if curve == "z" else build_world(curve=curve)


def observed(curve):
    world = world_of(curve)
    specs = stream(world)
    return {
        f"{kind}/{order}/{scanners}": observe_stream(world, specs, kind, order, scanners)
        for kind in DEPLOYMENTS
        for order in ORDERS
        for scanners in SCANNERS
    }


@pytest.mark.parametrize("curve", WORLDS)
def test_the_walk_matches_its_golden(curve):
    golden = json.loads(GOLDEN.read_text())[curve]
    got = json.loads(json.dumps(observed(curve), sort_keys=True))
    assert sorted(got) == sorted(golden)
    for name in sorted(golden):
        assert got[name] == golden[name], name


if __name__ == "__main__":  # regenerate: python -m tests.test_pknn_walk_golden
    GOLDEN.write_text(
        json.dumps({curve: observed(curve) for curve in WORLDS}, sort_keys=True) + "\n"
    )
