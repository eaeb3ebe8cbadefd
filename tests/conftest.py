"""Shared fixtures: tiny trees and a small prebuilt world.

The ``small_world`` fixture builds one complete system (movement, policy
store, sequence values, PEB-tree, Bx-tree baseline) per test session;
query-correctness tests reuse it instead of paying the build repeatedly.
``curve_world`` is the same system on each space-filling curve in turn.
``build_world`` is the library's builder at test-sized defaults.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.bench.world import ExperimentConfig, World
from repro.bench.world import build_world as world_of
from repro.btree import BPlusTree, BTreeConfig
from repro.spatial.curves import HILBERT, ZCURVE
from repro.storage import BufferPool, SimulatedDisk

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


#: The test-sized world: 400 users, 10 policies, 1 KiB pages and 512
#: build frames, seed 11 (Table 1 for everything else).
TEST_CONFIG = ExperimentConfig(
    n_users=400, n_policies=10, page_size=1024, build_buffer_pages=512, seed=11
)


def build_world(**overrides) -> World:
    """:func:`repro.bench.world.build_world` over ``TEST_CONFIG`` with
    ``overrides`` (any :class:`ExperimentConfig` field) replaced."""
    return world_of(TEST_CONFIG.scaled(**overrides))


@pytest.fixture(scope="session")
def small_world() -> World:
    return build_world()


@pytest.fixture(scope="session", params=[ZCURVE, HILBERT], ids=lambda c: c.name)
def curve_world(request, small_world) -> World:
    """``small_world``, then the same world built on the Hilbert curve."""
    if request.param is ZCURVE:
        return small_world
    return build_world(curve=request.param.name)


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
