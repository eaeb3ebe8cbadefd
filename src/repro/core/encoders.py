"""Alternative sequence-value encoders (Section 8: "new encoding ...
techniques").

The Figure 5 algorithm (:func:`repro.core.sequencing.assign_sequence_values`)
is one way to linearize the *compatibility graph* — users as vertices,
non-zero C(u, v) as weighted edges — into one real per user.  Any
linearization that keeps related users close produces a working PEB-tree;
what changes is how well each friend cluster lands on few leaf pages.

Three alternatives are provided behind a common interface, plus the
paper's own algorithm wrapped for uniform access:

* :class:`Figure5Encoder` — the paper's group-by-group assignment.
* :class:`BFSEncoder` — breadth-first traversal of the compatibility
  graph from high-degree seeds; neighbours are visited in descending
  compatibility, and each visited user gets the predecessor's SV plus
  ``1 - C`` to its BFS parent.  Greedier locality within a group than
  Figure 5's one-level star.
* :class:`SpectralEncoder` — classic spectral seriation: order users by
  the Fiedler vector of the compatibility graph's Laplacian (computed
  per connected component with dense numpy eigendecomposition, falling
  back to BFS for oversized components), then space consecutive users by
  ``1 - C`` (or δ across component boundaries).

All encoders emit assignments consumable by
:meth:`repro.policy.store.PolicyStore.set_sequence_values`; the index and
query algorithms are oblivious to which encoder produced the values, so
result sets are identical across encoders (asserted in the tests) while
I/O costs differ (measured in ``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import heapq
from typing import Protocol

from repro.core.sequencing import (
    DEFAULT_DELTA,
    DEFAULT_INITIAL_SV,
    EncodingReport,
    assign_sequence_values,
    compatibility_graph,
)
from repro.obs.timer import timer
from repro.policy.store import PolicyStore

#: Components larger than this fall back to BFS ordering inside the
#: spectral encoder — dense eigendecomposition is O(n^3).
SPECTRAL_COMPONENT_LIMIT = 1500


class SequenceEncoder(Protocol):
    """Anything that turns a policy store into sequence values."""

    name: str

    def encode(
        self, users: list[int], store: PolicyStore, space_area: float
    ) -> EncodingReport:
        """Assign one sequence value per user."""
        ...


def _edge(adjacency: dict[int, dict[int, float]], u: int, v: int) -> float:
    return adjacency.get(u, {}).get(v, 0.0)


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
                (-_edge(adjacency, seed, peer), peer)
                for peer in adjacency.get(seed, ())
                if peer not in values
            ]
            heapq.heapify(frontier)
            while frontier:
                neg_compat, uid = heapq.heappop(frontier)
                if uid in values:
                    continue
                cursor = cursor + (1.0 + neg_compat)  # 1 - C to the parent
                values[uid] = cursor
                for peer in adjacency.get(uid, ()):
                    if peer not in values:
                        heapq.heappush(
                            frontier, (-_edge(adjacency, uid, peer), peer)
                        )

        elapsed = watch.stop()
        return EncodingReport(
            sequence_values=values,
            elapsed_seconds=elapsed,
            group_count=group_count,
            related_pair_count=pair_count,
        )


class SpectralEncoder:
    """Fiedler-vector seriation of the compatibility graph.

    For each connected component (up to
    :data:`SPECTRAL_COMPONENT_LIMIT` vertices), users are sorted by their
    entry in the eigenvector of the second-smallest eigenvalue of the
    component's weighted graph Laplacian — the classic relaxation of the
    minimum-linear-arrangement problem, which is exactly what the SV
    assignment approximates.  Consecutive users are spaced by ``1 - C``
    (δ when not directly related), and components are laid out in
    descending size, δ apart.
    """

    name = "spectral"

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

        components = _connected_components(users, adjacency)
        # Descending size mirrors Figure 5's "higher priority to larger
        # groups"; ties by smallest member for determinism.
        components.sort(key=lambda comp: (-len(comp), min(comp)))

        values: dict[int, float] = {}
        cursor = self.initial_sv - self.delta
        for component in components:
            ordering = _component_order(component, adjacency)
            cursor += self.delta
            values[ordering[0]] = cursor
            for previous, uid in zip(ordering, ordering[1:]):
                compat = _edge(adjacency, previous, uid)
                step = (1.0 - compat) if compat > 0.0 else self.delta
                cursor += step
                values[uid] = cursor

        elapsed = watch.stop()
        return EncodingReport(
            sequence_values=values,
            elapsed_seconds=elapsed,
            group_count=len(components),
            related_pair_count=pair_count,
        )


def _connected_components(
    users: list[int], adjacency: dict[int, dict[int, float]]
) -> list[list[int]]:
    """Connected components; isolated users are singleton components."""
    seen: set[int] = set()
    components: list[list[int]] = []
    for uid in users:
        if uid in seen:
            continue
        stack = [uid]
        seen.add(uid)
        component = []
        while stack:
            node = stack.pop()
            component.append(node)
            for peer in adjacency.get(node, ()):
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        components.append(component)
    return components


def _component_order(
    component: list[int],
    adjacency: dict[int, dict[int, float]],
) -> list[int]:
    """Fiedler ordering of one component (BFS fallback when oversized)."""
    if len(component) <= 2:
        return sorted(component)
    if len(component) > SPECTRAL_COMPONENT_LIMIT:
        return _bfs_order(component, adjacency)

    import numpy as np

    nodes = sorted(component)
    index = {uid: i for i, uid in enumerate(nodes)}
    laplacian = np.zeros((len(nodes), len(nodes)))
    for uid in nodes:
        for peer in adjacency.get(uid, ()):
            weight = _edge(adjacency, uid, peer)
            i, j = index[uid], index[peer]
            laplacian[i, j] -= weight
            laplacian[i, i] += weight
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    fiedler = eigenvectors[:, np.argsort(eigenvalues)[1]]
    # Stable sort on (fiedler entry, uid): deterministic under eigenvector
    # sign ambiguity up to a global reversal, which is locality-neutral.
    order = sorted(range(len(nodes)), key=lambda i: (fiedler[i], nodes[i]))
    return [nodes[i] for i in order]


def _bfs_order(
    component: list[int],
    adjacency: dict[int, dict[int, float]],
) -> list[int]:
    """Compatibility-greedy BFS order (fallback for huge components)."""
    start = max(component, key=lambda uid: (len(adjacency.get(uid, ())), -uid))
    order = [start]
    seen = {start}
    frontier = [
        (-_edge(adjacency, start, peer), peer) for peer in adjacency.get(start, ())
    ]
    heapq.heapify(frontier)
    while frontier:
        _, uid = heapq.heappop(frontier)
        if uid in seen:
            continue
        seen.add(uid)
        order.append(uid)
        for peer in adjacency.get(uid, ()):
            if peer not in seen:
                heapq.heappush(frontier, (-_edge(adjacency, uid, peer), peer))
    # A component is connected by construction, but guard regardless.
    for uid in sorted(component):
        if uid not in seen:
            order.append(uid)
    return order


#: Registry used by the CLI and the ablation benchmarks.
ENCODERS: dict[str, type] = {
    Figure5Encoder.name: Figure5Encoder,
    BFSEncoder.name: BFSEncoder,
    SpectralEncoder.name: SpectralEncoder,
}


def make_encoder(name: str, **kwargs) -> SequenceEncoder:
    """Instantiate a registered encoder by name."""
    try:
        factory = ENCODERS[name]
    except KeyError:
        known = ", ".join(sorted(ENCODERS))
        raise ValueError(f"unknown encoder {name!r}; known: {known}") from None
    return factory(**kwargs)
