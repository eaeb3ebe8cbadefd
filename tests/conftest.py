"""Shared fixtures: tiny trees and a small prebuilt world.

The ``small_world`` fixture builds one complete system (movement, policy
store, sequence values, PEB-tree, Bx-tree baseline) per test session;
query-correctness tests reuse it instead of paying the build repeatedly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import settings

from repro.btree import BPlusTree, BTreeConfig
from repro.bxtree import BxTree, SpatialFilterBaseline
from repro.core.peb_tree import PEBTree
from repro.core.sequencing import assign_sequence_values
from repro.motion import MovingObject, TimePartitioner
from repro.policy.store import PolicyStore
from repro.spatial import Grid
from repro.storage import BufferPool, SimulatedDisk
from repro.workloads import PolicyGenerator, QueryGenerator, UniformMovement

#: ``pytest --hypothesis-profile=deep``: ten times hypothesis's default
#: examples, for property suites that scale their draws with the loaded
#: profile (``tests/test_pknn_walk_property.py``).
settings.register_profile("deep", max_examples=1000)


def make_tree(
    page_size: int = 512,
    buffer_pages: int = 32,
    key_bytes: int = 8,
    value_bytes: int = 16,
) -> BPlusTree:
    """A small-page B+-tree (deep trees from few keys)."""
    disk = SimulatedDisk(page_size=page_size)
    pool = BufferPool(disk, capacity=buffer_pages)
    config = BTreeConfig(
        key_bytes=key_bytes, value_bytes=value_bytes, page_size=page_size
    )
    return BPlusTree(pool, config)


@pytest.fixture
def tiny_tree() -> BPlusTree:
    return make_tree()


@dataclass
class World:
    """A complete small system shared by query tests."""

    space_side: float
    grid: Grid
    partitioner: TimePartitioner
    states: dict[int, MovingObject]
    store: PolicyStore
    peb: PEBTree
    bx: BxTree
    baseline: SpatialFilterBaseline
    query_rng: random.Random

    @property
    def uids(self) -> list[int]:
        return sorted(self.states)

    def query_generator(self) -> QueryGenerator:
        return QueryGenerator(self.space_side, self.query_rng)


def build_world(
    n_users: int = 400,
    n_policies: int = 10,
    theta: float = 0.7,
    seed: int = 11,
    page_size: int = 1024,
    max_speed: float = 3.0,
) -> World:
    space_side = 1000.0
    rng = random.Random(seed)
    grid = Grid(space_side, 10)
    partitioner = TimePartitioner(120.0, 2)
    movement = UniformMovement(space_side, max_speed, rng)
    objects = movement.initial_objects(n_users, t=0.0)
    states = {obj.uid: obj for obj in objects}

    generator = PolicyGenerator(space_side, 1440.0, random.Random(seed + 1))
    store = generator.generate(sorted(states), n_policies, theta)
    report = assign_sequence_values(sorted(states), store, space_side**2)
    store.set_sequence_values(report.sequence_values)

    peb_pool = BufferPool(SimulatedDisk(page_size=page_size), capacity=512)
    peb = PEBTree(peb_pool, grid, partitioner, store)
    bx_pool = BufferPool(SimulatedDisk(page_size=page_size), capacity=512)
    bx = BxTree(bx_pool, grid, partitioner)
    for obj in objects:
        peb.insert(obj)
        bx.insert(obj)

    return World(
        space_side=space_side,
        grid=grid,
        partitioner=partitioner,
        states=states,
        store=store,
        peb=peb,
        bx=bx,
        baseline=SpatialFilterBaseline(bx, store),
        query_rng=random.Random(seed + 2),
    )


@pytest.fixture(scope="session")
def small_world() -> World:
    return build_world()


def role_members(store, owner: int, role: str) -> frozenset[int]:
    """The viewers ``owner`` placed in ``role`` (Definition 2's
    ``qID in role``), read off the store's directory."""
    return frozenset(
        viewer
        for viewer in store.viewers_of(owner)
        if any(policy.role == role for policy in store.policies_for(owner, viewer))
    )


def roles_of(store, owner: int) -> list[str]:
    """The role names ``owner``'s policies use, sorted."""
    return sorted(
        {
            policy.role
            for viewer in store.viewers_of(owner)
            for policy in store.policies_for(owner, viewer)
        }
    )
