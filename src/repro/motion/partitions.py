"""Label timestamps and index partitions (Figure 1, Equation 2).

The Bx-tree "partitions the time axis into intervals of duration
Δt_mu / n"; an update at ``tu`` is indexed *as of* the nearest later
label timestamp of ``tu + Δt_mu / n``, and the partition id cycles
through ``n + 1`` values:

    index_partition = (t_lab / (Δt_mu / n) - 1) mod (n + 1)    (Eq. 2)

Worked example from Section 2.1: with ``n = 2``, objects updated in
``(0, Δt_mu/2]`` get ``t_lab = Δt_mu`` and partition 1 ('01' binary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Tolerance when deciding whether a timestamp sits exactly on a label.
LABEL_EPS = 1e-9


@dataclass(frozen=True)
class TimePartitioner:
    """Computes label timestamps and partition ids.

    Args:
        max_update_interval: Δt_mu — objects must update at least this often.
        n: number of phases Δt_mu is divided into; the tree cycles through
            ``n + 1`` partition ids.
    """

    max_update_interval: float = 120.0
    n: int = 2

    def __post_init__(self):
        if self.max_update_interval <= 0:
            raise ValueError("max_update_interval must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def phase(self) -> float:
        """Duration of one time partition, Δt_mu / n."""
        return self.max_update_interval / self.n

    @property
    def num_partitions(self) -> int:
        """Number of distinct partition ids, n + 1."""
        return self.n + 1

    def label_timestamp(self, t_update: float) -> float:
        """``t_lab`` — the future label timestamp an update is indexed as of.

        The nearest later label timestamp of ``t_update + phase``: the
        smallest label (multiple of ``phase``) greater than or equal to it.
        """
        shifted = t_update / self.phase + 1.0
        index = int(shifted)
        if shifted - index > LABEL_EPS:
            index += 1
        return index * self.phase

    def partition_of_label(self, t_lab: float) -> int:
        """Partition id of a label timestamp (Equation 2)."""
        ratio = int(round(t_lab / self.phase))
        return (ratio - 1) % self.num_partitions

    def partition(self, t_update: float) -> int:
        """Partition id an update at ``t_update`` lands in."""
        return self.partition_of_label(self.label_timestamp(t_update))

    def live_labels(self, now: float) -> list[float]:
        """Label timestamps that may still hold live entries at ``now``.

        An entry with label ``L`` was updated at ``tu in (L - 2*phase,
        L - phase]`` and is replaced no later than ``tu + Δt_mu`` — a
        query at exactly that deadline must still see it — so it can be
        live at ``now`` only if ``now - (n-1)*phase <= L < now +
        2*phase``.  That half-open window holds exactly ``n + 1``
        labels — one per partition id; fewer only while it still
        reaches below the first label — and is exactly what query
        processing iterates ("The search stops after all n time
        partitions are checked", Figure 7).
        """
        k_min = math.ceil(now / self.phase - (self.n - 1) - LABEL_EPS)
        return [k * self.phase for k in range(max(k_min, 1), k_min + self.n + 1)]
