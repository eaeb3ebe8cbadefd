"""Property pin: the served PkNN fetch against the oracle and the walk.

A served PkNN (:func:`repro.core.pknn.pknn`, and each kNN spec of
:meth:`repro.engine.QueryEngine.execute_batch`) plans the live key the
update memo holds of each visible friend that can be among the k
nearest, verifies the rows at those keys and keeps the k nearest,
ranked by ``(distance, uid)``.  Hypothesis draws the world, the
deployment (one tree; 1 and 4 shards, untimed and on ssd) and a batch
of specs; every spec must:

* plan at most one ``(live key, uid)`` pair per friend in the issuer's
  visibility map whose live key lies in a partition live at
  ``t_query``, in key order, and one for every user of the oracle's
  answer (the pruning's soundness on its own
  worlds is ``tests/test_knn_plan_soundness_property.py``);
* answer ``brute_force_pknn``'s ``(round(d, 9), uid)`` list over the
  users whose entries are live, served alone and in the batch;
* answer the k-distance list of the Section 5.4 walk
  (:func:`repro.core.pknn.pknn_walk`) on the single tree.

The worlds: users in two live partitions (half of them reported before
a rollover), the raw-SV ties of defect twenty-six (``n_users=144,
n_policies=6, seed=6``: ten pairs of users share a stratum, one pair
also a cell, so a friend's key returns its stratum-mate), and
plain Z and Hilbert worlds; ``k`` is 0, 1, 5 or above the visible
friends, and query points lie inside the space, on its edge or far
outside it.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracle import brute_force_pknn
from repro.core.peb_tree import PEBTree
from repro.core.pknn import plan_pknn, pknn, pknn_walk
from repro.engine import QueryEngine
from repro.motion import MovingObject
from repro.shard import ShardedPEBTree
from repro.storage import BufferPool, SimulatedDisk
from repro.workloads.queries import KnnQuerySpec

from tests.test_residency_pin import T_QUERY, pin_world
from tests.test_sv_quantizer import GRID, PARTITIONER, SPACE, small_store

#: One tier-1 example per five of the loaded profile's: 20 by default.
EXAMPLES = max(20, settings.default.max_examples // 5)


class TieWorld:
    """Defect twenty-six's store, every user somewhere in the space at
    ``T_QUERY``; users 3 and 98 share a stratum and stand on one cell."""

    def __init__(self):
        self.store = small_store(144, 6, 6)
        self.grid, self.partitioner, self.space_side = GRID, PARTITIONER, SPACE
        self.uids = list(range(144))
        rng = random.Random(6)
        self.states = {
            uid: MovingObject(
                uid, rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE),
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 4.0),
            )
            for uid in self.uids
        }
        self.states[98] = replace(self.states[3], uid=98)
        pool = BufferPool(SimulatedDisk(page_size=1024), capacity=64)
        self.peb = PEBTree(pool, GRID, PARTITIONER, self.store)
        for uid in self.uids:
            self.peb.insert(self.states[uid])

    def deploy(self, n_shards, **kwargs):
        sharded = ShardedPEBTree.build(
            n_shards, GRID, PARTITIONER, self.store, uids=self.uids,
            page_size=1024, **kwargs,
        )
        for uid in self.uids:
            sharded.insert(self.states[uid])
        return sharded


WORLDS = {
    "z": pin_world(seed=5),
    "hilbert": pin_world(seed=5, curve="hilbert"),
    "two-partitions": pin_world(seed=31, reported_at=lambda uid: 30.0 * (uid % 2)),
    "raw-ties": TieWorld(),
}
DEPLOYMENTS = ((0, False), (1, False), (4, False), (1, True), (4, True))


def deploy(world, n_shards, timed):
    if not n_shards:
        return world.peb
    return world.deploy(n_shards, buffer_pages=16, latency="ssd" if timed else None)


def live_tids(world, t_query):
    partitioner = world.partitioner
    return {partitioner.partition_of_label(t) for t in partitioner.live_labels(t_query)}


def allowed_keys(world, spec):
    """uid -> its live key, per visible friend whose live key lies in a
    live partition: the pairs a plan may hold."""
    codec = world.peb.codec
    live = live_tids(world, spec.t_query)
    keys = {}
    for uid in world.store.visibility_map(spec.q_uid, spec.t_query):
        key = world.peb.live.keys[uid]
        if codec.decompose(key)[0] in live:
            keys[uid] = key
    return keys


def oracle(world, spec):
    """The oracle over the users whose entries a query at ``t_query``
    may read."""
    live = live_tids(world, spec.t_query)
    codec = world.peb.codec
    states = {
        uid: obj
        for uid, obj in world.states.items()
        if codec.decompose(world.peb.live.keys[uid])[0] in live
    }
    return [
        (round(d, 9), uid)
        for d, uid in brute_force_pknn(
            states, world.store, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
        )
    ]


def ranked(result):
    return [(round(d, 9), obj.uid) for d, obj in result.neighbors]


def check(world, deployment, specs):
    tree = deploy(world, *deployment)
    engine = QueryEngine(tree)
    batch = engine.execute_batch(specs)
    for spec, batched in zip(specs, batch.results):
        plan = plan_pknn(
            engine.planner, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query
        )
        allowed = allowed_keys(world, spec)
        assert all(allowed.get(uid) == key for key, uid in plan.bands)
        assert plan.bands == sorted(plan.bands)
        assert len({uid for _, uid in plan.bands}) == len(plan.bands)
        expected = oracle(world, spec)
        assert {uid for _, uid in expected} <= {uid for _, uid in plan.bands}
        assert ranked(batched) == expected
        assert ranked(pknn(tree, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)) == (
            expected
        )
        walked = pknn_walk(world.peb, spec.q_uid, spec.qx, spec.qy, spec.k, spec.t_query)
        assert [d for d, _ in expected] == [round(d, 9) for d, _ in walked.neighbors]
    assert batch.degraded == [False] * len(specs)


def query_point(world, where, fx, fy, far):
    side = world.space_side
    if where == "inside":
        return fx * side, fy * side
    if where == "edge":
        return (0.0 if fx < 0.5 else side), fy * side
    return (-far if fx < 0.5 else side + far), (-far if fy < 0.5 else side + far)


SPEC = st.tuples(
    st.integers(0, 143),
    st.sampled_from(("inside", "inside", "edge", "outside")),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from((1.0, 300.0, 1e6)),
    st.sampled_from((0, 1, 5, "above")),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    world_name=st.sampled_from(sorted(WORLDS)),
    deployment=st.sampled_from(DEPLOYMENTS),
    drawn=st.lists(SPEC, min_size=1, max_size=4),
)
def test_the_fetch_answers_the_oracle_and_the_walk(world_name, deployment, drawn):
    world = WORLDS[world_name]
    specs = []
    for issuer, where, fx, fy, far, k in drawn:
        q_uid = world.uids[issuer]
        if k == "above":
            k = len(world.store.visibility_map(q_uid, T_QUERY)) + 3
        qx, qy = query_point(world, where, fx, fy, far)
        specs.append(KnnQuerySpec(q_uid, qx, qy, k, T_QUERY))
    check(world, deployment, specs)


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_raw_ties_on_one_cell_are_verified_like_any_row(deployment):
    """Users 3 and 98 share a stratum and a cell, so either one's point
    band returns both rows: an issuer who sees one of them and one who
    sees both get the oracle's answer."""
    world = WORLDS["raw-ties"]
    codec = world.peb.codec
    assert world.peb.live.keys[3] == world.peb.live.keys[98]
    store = world.store
    sees = {
        q_uid: {3, 98} & set(store.visibility_map(q_uid, T_QUERY))
        for q_uid in world.uids
    }
    both = [q for q, seen in sees.items() if len(seen) == 2]
    one = [q for q, seen in sees.items() if len(seen) == 1]
    assert both and one
    x, y = world.states[3].position_at(T_QUERY)
    specs = [KnnQuerySpec(q, x, y, k, T_QUERY) for q in both[:2] + one[:2] for k in (1, 3)]
    check(world, deployment, specs)
    assert codec.decompose(world.peb.live.keys[3])[1] == codec.quantize_sv(
        store.sequence_value(98)
    )
