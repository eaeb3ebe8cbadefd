"""repro — a reproduction of the PEB-tree (Lin et al., PVLDB 5(1), 2011).

"A Moving-Object Index for Efficient Query Processing with Peer-Wise
Location Privacy": a B+-tree-based moving-object index whose key
interleaves a time-partition id, a privacy-policy *sequence value*, and a
Z-curve location value, plus privacy-aware range (PRQ) and k-nearest-
neighbour (PkNN) query algorithms and the spatial-index + filter
baseline it is evaluated against.

Quick start::

    from repro import ExperimentConfig, ExperimentHarness

    harness = ExperimentHarness(ExperimentConfig(
        n_users=2000, n_policies=20, n_queries=20, page_size=1024))
    costs = harness.run_prq_batch()
    print(f"PEB-tree {costs.peb_io:.1f} I/Os vs baseline {costs.baseline_io:.1f}")

or assemble the pieces by hand — see ``examples/quickstart.py``.
"""

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentHarness,
    OverlapCosts,
    QueryCosts,
)
from repro.bench.oracle import brute_force_pknn, brute_force_prq
from repro.btree import BPlusTree, BTreeConfig
from repro.bxtree import BxTree, SpatialFilterBaseline, bx_knn, bx_range_query
from repro.core import (
    CostModel,
    PEBKeyCodec,
    PEBTree,
    assign_sequence_values,
    compatibility,
    pknn,
    prq,
)
from repro.core.multipolicy import set_compatibility
from repro.engine import BatchReport, ExecutionStats, QueryEngine
from repro.motion import MovingObject, TimePartitioner, UpdatePolicy
from repro.policy import (
    LocationPrivacyPolicy,
    MultiPolicyStore,
    PolicyStore,
    SemanticLocationRegistry,
    TimeInterval,
    TimeSet,
)
from repro.simio import IOScheduler, LatencyModel, SimClock, TimedDisk
from repro.spatial import Grid, Rect
from repro.storage import BufferPool, IOStats, SimulatedDisk
from repro.tprtree import TPBR, TPRFilterBaseline, TPRTree
from repro.workloads import (
    NetworkMovement,
    PolicyGenerator,
    QueryGenerator,
    UniformMovement,
)

__version__ = "1.0.0"

__all__ = [
    "BPlusTree",
    "BTreeConfig",
    "BatchReport",
    "BufferPool",
    "BxTree",
    "CostModel",
    "ExecutionStats",
    "QueryEngine",
    "ExperimentConfig",
    "ExperimentHarness",
    "Grid",
    "IOScheduler",
    "IOStats",
    "LatencyModel",
    "LocationPrivacyPolicy",
    "MovingObject",
    "MultiPolicyStore",
    "NetworkMovement",
    "OverlapCosts",
    "PEBKeyCodec",
    "PEBTree",
    "PolicyGenerator",
    "PolicyStore",
    "QueryCosts",
    "QueryGenerator",
    "Rect",
    "SemanticLocationRegistry",
    "SimClock",
    "SimulatedDisk",
    "SpatialFilterBaseline",
    "TPBR",
    "TPRFilterBaseline",
    "TPRTree",
    "TimeInterval",
    "TimePartitioner",
    "TimeSet",
    "TimedDisk",
    "UniformMovement",
    "UpdatePolicy",
    "assign_sequence_values",
    "brute_force_pknn",
    "brute_force_prq",
    "bx_knn",
    "bx_range_query",
    "compatibility",
    "pknn",
    "prq",
    "set_compatibility",
]
