"""Analytical I/O cost model for PRQ on the PEB-tree (Section 6).

The sequence value dominates the PEB-key, so the model focuses on how the
SV assignment scatters a query's related users across leaf nodes:

    C1 = 1 + Np - Np**θ          if Np <= Nl          (Equation 6)
    C1 = 1 + Nl - Np**θ          if Np >  Nl

with ``Np`` the number of policies per user (the worst-case cost — one
leaf per related user), ``Nl`` the number of leaves (an absolute bound),
``θ`` the grouping factor (``Np**θ`` is the benefit of grouping), and the
constant 1 the best case of a single leaf.

The effect of the total user count ``N`` is linear and enters through the
density ``N / L²``:

    C = 1 + (a1 · N/L² + a2) · (min(Np, Nl) - Np**θ)   (Equation 7)

``a1``/``a2`` "are obtained by taking as input any two sample points
(i.e., the query cost C) from the experiments on the datasets with the
same location distribution".
"""

from __future__ import annotations

from dataclasses import dataclass


def base_cost(n_policies: int, theta: float, n_leaves: int) -> float:
    """Equation 6 — the grouping-only cost estimate C1."""
    _validate(n_policies, theta, n_leaves)
    bound = min(n_policies, n_leaves)
    return 1.0 + bound - n_policies**theta


@dataclass(frozen=True)
class CostSample:
    """One calibration observation: a measured average query I/O."""

    n_users: int
    n_policies: int
    theta: float
    n_leaves: int
    measured_io: float


@dataclass(frozen=True)
class CostModel:
    """Equation 7 with calibrated density coefficients.

    Args:
        a1: weight of the object density ``N / L²``.
        a2: density-independent weight.
        space_side: side length L of the space domain.
    """

    a1: float
    a2: float
    space_side: float

    def estimate(
        self, n_users: int, n_policies: int, theta: float, n_leaves: int
    ) -> float:
        """Predicted average I/O per privacy-aware range query."""
        _validate(n_policies, theta, n_leaves)
        density = n_users / (self.space_side * self.space_side)
        bound = min(n_policies, n_leaves)
        return 1.0 + (self.a1 * density + self.a2) * (bound - n_policies**theta)

    @classmethod
    def calibrate(
        cls, first: CostSample, second: CostSample, space_side: float
    ) -> "CostModel":
        """Solve for ``(a1, a2)`` from two measured sample points.

        Rearranging Equation 7, each sample yields one linear equation
        ``a1 · density + a2 = (C - 1) / (min(Np, Nl) - Np**θ)``.
        """
        rows = []
        for sample in (first, second):
            bound = min(sample.n_policies, sample.n_leaves)
            spread = bound - sample.n_policies**sample.theta
            if spread <= 0:
                raise ValueError(
                    "calibration sample has no grouping spread "
                    f"(Np={sample.n_policies}, θ={sample.theta}); "
                    "pick a sample with θ < 1"
                )
            density = sample.n_users / (space_side * space_side)
            rows.append((density, (sample.measured_io - 1.0) / spread))
        (d1, rhs1), (d2, rhs2) = rows
        if abs(d1 - d2) < 1e-12:
            raise ValueError(
                "calibration samples must differ in user density to "
                "separate a1 from a2"
            )
        a1 = (rhs1 - rhs2) / (d1 - d2)
        a2 = rhs1 - a1 * d1
        return cls(a1=a1, a2=a2, space_side=space_side)


def _validate(n_policies: int, theta: float, n_leaves: int) -> None:
    if n_policies < 0:
        raise ValueError(f"n_policies must be non-negative, got {n_policies}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if n_leaves < 1:
        raise ValueError(f"n_leaves must be positive, got {n_leaves}")
