"""Alternative sequence-value encoders (Section 8: "new encoding ...
techniques").

The Figure 5 algorithm (:func:`repro.core.sequencing.assign_sequence_values`)
is one way to linearize the *compatibility graph* — users as vertices,
non-zero C(u, v) as weighted edges — into one real per user; it reads
only the group sizes and one degree per member it places.  BFS walks
the whole graph, built here by :func:`compatibility_graph`.  Any
linearization that keeps related users close produces a working PEB-tree;
what changes is how well each friend cluster lands on few leaf pages.

One alternative is provided behind a common interface, beside the
paper's own algorithm wrapped for uniform access:

* :class:`Figure5Encoder` — the paper's group-by-group assignment.
* :class:`BFSEncoder` — breadth-first traversal of the compatibility
  graph from high-degree seeds; neighbours are visited in descending
  compatibility, and each visited user gets the predecessor's SV plus
  ``1 - C`` to its BFS parent.  Greedier locality within a group than
  Figure 5's one-level star.

All encoders emit assignments consumable by
:meth:`repro.policy.store.PolicyStore.set_sequence_values`; the index and
query algorithms are oblivious to which encoder produced the values, so
result sets are identical across encoders (asserted in the tests) while
I/O costs differ (measured in ``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Protocol

from repro.core.sequencing import (
    DEFAULT_DELTA,
    DEFAULT_INITIAL_SV,
    EncodingReport,
    assign_sequence_values,
)
from repro.obs.timer import timer
from repro.policy.store import PolicyStore

class SequenceEncoder(Protocol):
    """Anything that turns a policy store into sequence values."""

    name: str

    def encode(
        self, users: list[int], store: PolicyStore, space_area: float
    ) -> EncodingReport:
        """Assign one sequence value per user."""
        ...


def compatibility_graph(
    store: PolicyStore, space_area: float
) -> tuple[dict[int, dict[int, float]], int]:
    """The compatibility graph as ``{u: {peer: C}}``, and its edge count.

    Both directions of every edge of the store's pass
    (:meth:`repro.policy.store.PolicyStore.compatibility_edges`).  The
    pass dispatches on the store, so multi-policy directories (Section 8
    future work) plug in their set semantics.  BFS reads a degree for
    every edge it pushes; Figure 5 reads one per member it places and
    does without the graph.
    """
    adjacency: dict[int, dict[int, float]] = defaultdict(dict)
    pair_count = 0
    for u, v, degree in store.compatibility_edges(space_area):
        adjacency[u][v] = adjacency[v][u] = degree
        pair_count += 1
    return adjacency, pair_count


class Figure5Encoder:
    """The paper's own algorithm, wrapped in the encoder interface."""

    name = "figure5"

    def __init__(
        self, initial_sv: float = DEFAULT_INITIAL_SV, delta: float = DEFAULT_DELTA
    ):
        self.initial_sv = initial_sv
        self.delta = delta

    def encode(
        self, users: list[int], store: PolicyStore, space_area: float
    ) -> EncodingReport:
        return assign_sequence_values(
            users, store, space_area, self.initial_sv, self.delta
        )


class BFSEncoder:
    """Breadth-first linearization of the compatibility graph.

    Seeds are picked in descending vertex degree (as in Figure 5's sort);
    from each seed, users are dequeued in descending compatibility to
    their BFS parent, and each dequeued user is placed ``1 - C(parent,
    child)`` after the previously placed user.  Unlike Figure 5 — which
    only spreads a leader's *direct* neighbours before jumping δ ahead —
    BFS keeps second- and third-degree relations inside the same SV
    neighbourhood.
    """

    name = "bfs"

    def __init__(
        self, initial_sv: float = DEFAULT_INITIAL_SV, delta: float = DEFAULT_DELTA
    ):
        if initial_sv <= 1.0:
            raise ValueError(f"initial sequence value must exceed 1, got {initial_sv}")
        if delta <= 1.0:
            raise ValueError(f"delta must exceed 1, got {delta}")
        self.initial_sv = initial_sv
        self.delta = delta

    def encode(
        self, users: list[int], store: PolicyStore, space_area: float
    ) -> EncodingReport:
        watch = timer()
        adjacency, pair_count = compatibility_graph(store, space_area)

        seeds = sorted(users, key=lambda uid: -len(adjacency.get(uid, ())))
        values: dict[int, float] = {}
        cursor = self.initial_sv - self.delta
        group_count = 0
        for seed in seeds:
            if seed in values:
                continue
            group_count += 1
            cursor += self.delta
            values[seed] = cursor
            # Max-heap on compatibility; ties broken by uid for determinism.
            frontier = [
                (-degree, peer)
                for peer, degree in adjacency.get(seed, {}).items()
                if peer not in values
            ]
            heapq.heapify(frontier)
            while frontier:
                neg_compat, uid = heapq.heappop(frontier)
                if uid in values:
                    continue
                cursor = cursor + (1.0 + neg_compat)  # 1 - C to the parent
                values[uid] = cursor
                for peer, degree in adjacency[uid].items():
                    if peer not in values:
                        heapq.heappush(frontier, (-degree, peer))

        elapsed = watch.stop()
        return EncodingReport(
            sequence_values=values,
            elapsed_seconds=elapsed,
            group_count=group_count,
            related_pair_count=pair_count,
        )


#: Registry used by the CLI and the ablation benchmarks.
ENCODERS: dict[str, type] = {
    Figure5Encoder.name: Figure5Encoder,
    BFSEncoder.name: BFSEncoder,
}


def make_encoder(name: str, **kwargs) -> SequenceEncoder:
    """Instantiate a registered encoder by name."""
    try:
        factory = ENCODERS[name]
    except KeyError:
        known = ", ".join(sorted(ENCODERS))
        raise ValueError(f"unknown encoder {name!r}; known: {known}") from None
    return factory(**kwargs)
