"""Section 7.1's set-up, written once: :func:`build_world` turns an
:class:`ExperimentConfig` into a population, its policy store with
Figure 5 sequence values, and the PEB-tree beside the Bx-tree + filter
baseline, each on its own simulated disk.  Movement draws from
``seed``, policies from ``seed + 1`` and queries from ``seed + 2``, so
e.g. changing the query count never perturbs the dataset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.bxtree.filter_baseline import SpatialFilterBaseline
from repro.bxtree.tree import BxTree
from repro.core.peb_tree import PEBTree
from repro.core.sequencing import EncodingReport, assign_sequence_values
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.shard import ShardedPEBTree
from repro.spatial.curves import make_curve
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.workloads.network import NetworkMovement
from repro.workloads.policies import PolicyGenerator
from repro.workloads.queries import QueryGenerator
from repro.workloads.uniform import UniformMovement


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment; defaults follow Table 1.

    The paper-scale defaults (60 K users, 50 policies, 200 queries) are
    expensive in pure Python; the benchmark suite scales them down
    proportionally unless ``REPRO_SCALE=paper`` (see benchmarks/).
    """

    n_users: int = 60_000
    n_policies: int = 50
    grouping_factor: float = 0.7
    group_size: int | None = None
    space_side: float = 1000.0
    max_speed: float = 3.0
    distribution: str = "uniform"  # "uniform" | "network"
    n_destinations: int = 100
    grid_bits: int = 10
    curve: str = "z"  # "z" (paper) | "hilbert" (ablation)
    max_update_interval: float = 120.0
    n_phases: int = 2
    page_size: int = 4096
    buffer_pages: int = 50
    buffer_policy: str = "lru"  # "lru" (paper) | "fifo" | "clock" | "lfu"
    build_buffer_pages: int = 8192
    n_queries: int = 200
    window_side: float = 200.0
    k: int = 5
    time_domain: float = 1440.0
    seed: int = 7

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **overrides)


@dataclass
class World:
    """A population, its policy store, and the two indexes over it."""

    config: ExperimentConfig
    grid: Grid
    partitioner: TimePartitioner
    movement: UniformMovement | NetworkMovement
    states: dict[int, MovingObject]
    store: PolicyStore
    encoding_report: EncodingReport
    peb: PEBTree
    bx: BxTree
    baseline: SpatialFilterBaseline
    query_rng: random.Random

    @property
    def space_side(self) -> float:
        return self.config.space_side

    @property
    def uids(self) -> list[int]:
        return sorted(self.states)

    def query_generator(self) -> QueryGenerator:
        """A query generator on the world's one query stream."""
        return QueryGenerator(self.config.space_side, self.query_rng)

    def deploy(self, n_shards: int, **build_kwargs) -> ShardedPEBTree:
        """``n_shards`` fresh shards holding every state, inserted in uid
        order; ``build_kwargs`` go to :meth:`ShardedPEBTree.build`."""
        deployment = ShardedPEBTree.build(
            n_shards,
            self.grid,
            self.partitioner,
            self.store,
            uids=self.uids,
            page_size=self.config.page_size,
            **build_kwargs,
        )
        for uid in self.uids:
            deployment.insert(self.states[uid])
        return deployment


def build_world(config: ExperimentConfig) -> World:
    """Generate ``config``'s population and policies, encode them with
    Figure 5, and insert every object, in generation order, into a
    PEB-tree and a Bx-tree, each with a ``build_buffer_pages`` pool."""
    grid = Grid(config.space_side, config.grid_bits, make_curve(config.curve))
    partitioner = TimePartitioner(config.max_update_interval, config.n_phases)

    movement_rng = random.Random(config.seed)
    if config.distribution == "uniform":
        movement = UniformMovement(config.space_side, config.max_speed, movement_rng)
    elif config.distribution == "network":
        movement = NetworkMovement(
            config.space_side, config.n_destinations, movement_rng
        )
    else:
        raise ValueError(f"unknown distribution {config.distribution!r}")
    objects = movement.initial_objects(config.n_users, t=0.0)
    states = {obj.uid: obj for obj in objects}

    policy_generator = PolicyGenerator(
        config.space_side, config.time_domain, random.Random(config.seed + 1)
    )
    store = policy_generator.generate(
        sorted(states), config.n_policies, config.grouping_factor, config.group_size
    )
    encoding_report = assign_sequence_values(
        sorted(states), store, config.space_side**2
    )
    store.set_sequence_values(encoding_report.sequence_values)

    def make_pool() -> BufferPool:
        return BufferPool(
            SimulatedDisk(page_size=config.page_size),
            capacity=config.build_buffer_pages,
            policy=config.buffer_policy,
        )

    peb = PEBTree(make_pool(), grid, partitioner, store)
    bx = BxTree(make_pool(), grid, partitioner)
    for obj in objects:
        peb.insert(obj)
        bx.insert(obj)

    return World(
        config=config,
        grid=grid,
        partitioner=partitioner,
        movement=movement,
        states=states,
        store=store,
        encoding_report=encoding_report,
        peb=peb,
        bx=bx,
        baseline=SpatialFilterBaseline(bx, store),
        query_rng=random.Random(config.seed + 2),
    )
