"""Pins for the one world builder (:mod:`repro.bench.world`).

Experiments, test worlds and four examples are set up by ``build_world``:
movement from ``seed``, policies from ``seed + 1``, Figure 5 sequence
values, objects inserted in generation order into the PEB-tree and the
Bx-tree.  The digests and leaf counts below were recorded on the
hand-wired chains the builder replaced (``tests/conftest.py``'s builder
and the harness's constructor), so a change to the seeds or the encoder
moves a digest, and one to the insert order or the page size moves a
leaf count (entries are hashed in key order, whatever the insert order).
"""

import hashlib
import random

from repro.bench.harness import ExperimentHarness
from repro.workloads.queries import QueryGenerator

from tests.conftest import TEST_CONFIG, build_world
from tests.test_harness import small_config


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def world_digest(world) -> str:
    """Sequence values, PEB-tree entries and Bx-tree entries, hashed."""
    return _digest(
        (
            [world.store.sequence_value(uid) for uid in world.uids],
            list(world.peb.btree.items()),
            list(world.bx.btree.items()),
        )
    )


DEFAULT_WORLD_DIGESTS = {"z": "cfeaac3c74952fd3", "hilbert": "ceb393f0ac40d5ee"}


def test_the_default_test_world_is_the_one_the_chain_built(curve_world):
    curve = curve_world.config.curve
    assert world_digest(curve_world) == DEFAULT_WORLD_DIGESTS[curve]
    assert curve_world.peb.btree.leaf_count == 27


def test_the_harness_world_is_the_one_its_constructor_built():
    harness = ExperimentHarness(small_config())
    assert world_digest(harness) == "86c1dcf092025832"
    assert harness.peb.btree.leaf_count == 26
    assert harness.now == 0.0


def test_deploy_inserts_every_state_across_the_shards(small_world):
    deployment = small_world.deploy(4, buffer_pages=64)
    assert len(deployment) == len(small_world.states)
    assert [tree.btree.leaf_count for tree in deployment.trees] == [7, 6, 6, 6]
    assert (
        _digest([list(tree.btree.items()) for tree in deployment.trees])
        == "983a210395f84559"
    )


def test_the_query_stream_is_seed_plus_two_and_shared():
    """Each ``query_generator()`` draws on the world's one stream, so
    two generators in turn give what one generator on ``seed + 2`` would."""
    world = build_world(n_users=60)
    first = world.query_generator().range_queries(world.uids, 3, 200.0, 0.0)
    second = world.query_generator().range_queries(world.uids, 3, 200.0, 0.0)
    generator = QueryGenerator(world.space_side, random.Random(TEST_CONFIG.seed + 2))
    assert generator.range_queries(world.uids, 3, 200.0, 0.0) == first
    assert generator.range_queries(world.uids, 3, 200.0, 0.0) == second
    assert first != second

