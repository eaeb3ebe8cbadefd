"""Compatibility over *sets* of policies between two users.

Section 8 names this the paper's first future-work item: "it is relevant
to consider multiple policies between two users for computing policy
compatibility degree", and Section 5.1 anticipates it ("the above
equations can be extended to cover the case where multiple policies
exist between two users").

The extension follows directly from reading a policy as a box in the
three-dimensional space-time domain ``space x [0, T)``: a policy
``<role, locr, tint>`` grants visibility inside the region ``locr``
during ``tint``, i.e. on the set ``locr x tint``.  A *set* of policies
grants visibility on the union of its boxes, and the two Section 5.1
cases generalize verbatim:

* **Mutual**: the users can sometimes see each other simultaneously —
  their grant sets intersect in space-time.  With ``W`` the volume of
  that intersection::

      α = W / (S · T)

  For single policies ``W = O(locr1, locr2) · D(tint1, tint2)``, so this
  reduces exactly to the paper's formula.

* **Non-simultaneous**: the grant sets are disjoint (or one side grants
  nothing).  With ``V1``, ``V2`` the per-side grant volumes::

      α = 1/2 (V1/(S·T) + V2/(S·T))

  again reducing to ``1/2 (|locr|/S · |tint|/T + ...)`` for single
  policies, with a missing side's term omitted.

``C`` then follows Equation 4 unchanged.  Volumes of unions of boxes are
computed exactly by sweeping the time axis: between two consecutive
interval endpoints the active region set is constant, so each time slab
contributes ``union_area(active regions) x slab duration``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.compatibility import CompatibilityResult, check_domains
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect
from repro.spatial.union import pairwise_intersections, union_area


def time_pieces(tint: TimeInterval | TimeSet) -> list[TimeInterval]:
    """The disjoint intervals making up a policy's ``tint``."""
    if isinstance(tint, TimeSet):
        return list(tint.intervals)
    return [tint]


def _boxes(
    policies: Sequence[LocationPrivacyPolicy],
) -> list[tuple[Rect, float, float]]:
    """Flatten policies into ``(region, t_start, t_end)`` space-time boxes."""
    boxes = []
    for policy in policies:
        for piece in time_pieces(policy.tint):
            if piece.duration > 0.0 and policy.locr.area > 0.0:
                boxes.append((policy.locr, piece.start, piece.end))
    return boxes


def _sweep_volume(boxes: list[tuple[Rect, float, float]]) -> float:
    """Exact volume of a union of space-time boxes (time-axis sweep)."""
    if not boxes:
        return 0.0
    breakpoints = sorted({t for _, start, end in boxes for t in (start, end)})
    volume = 0.0
    for t_lo, t_hi in zip(breakpoints, breakpoints[1:]):
        duration = t_hi - t_lo
        if duration <= 0.0:
            continue
        active = [
            region for region, start, end in boxes if start <= t_lo and end >= t_hi
        ]
        if active:
            volume += union_area(active) * duration
    return volume


def grant_volume(
    policies: Sequence[LocationPrivacyPolicy], time_domain: float
) -> float:
    """Space-time volume of the visibility one user grants another.

    The measure of ``∪ (locr_i x tint_i)`` — overlapping policies are not
    double-counted, which is what keeps α within its normalization even
    when a user stacks redundant policies on the same peer.
    """
    if time_domain <= 0:
        raise ValueError(f"time_domain must be positive, got {time_domain}")
    return _sweep_volume(_boxes(policies))


def simultaneous_volume(
    granted_by_u1: Sequence[LocationPrivacyPolicy],
    granted_by_u2: Sequence[LocationPrivacyPolicy],
    time_domain: float,
) -> float:
    """Volume of space-time where both users are visible to each other.

    ``(∪ boxes1) ∩ (∪ boxes2)`` is itself a union of boxes — one per
    (piece1, piece2) pair with intersecting regions and intervals — so
    the same sweep applies.
    """
    if time_domain <= 0:
        raise ValueError(f"time_domain must be positive, got {time_domain}")
    boxes1 = _boxes(granted_by_u1)
    boxes2 = _boxes(granted_by_u2)
    overlaps: list[tuple[Rect, float, float]] = []
    for region1, start1, end1 in boxes1:
        for region2, start2, end2 in boxes2:
            t_lo = max(start1, start2)
            t_hi = min(end1, end2)
            if t_hi <= t_lo:
                continue
            pieces = pairwise_intersections([region1], [region2])
            overlaps.extend((piece, t_lo, t_hi) for piece in pieces)
    return _sweep_volume(overlaps)


def set_compatibility(
    granted_by_u1: Sequence[LocationPrivacyPolicy],
    granted_by_u2: Sequence[LocationPrivacyPolicy],
    space_area: float,
    time_domain: float,
) -> CompatibilityResult:
    """α and C(u1, u2) generalized to policy sets.

    Args:
        granted_by_u1: u1's policies regarding u2 (possibly empty).
        granted_by_u2: u2's policies regarding u1 (possibly empty).
        space_area: S, the area of the space domain.
        time_domain: T, the duration of the (cyclic) time domain.

    Returns the same :class:`CompatibilityResult` the single-policy
    :func:`repro.core.compatibility.compatibility` produces; for
    one-element inputs the two functions agree exactly (property-tested).
    """
    check_domains(space_area, time_domain)
    if not granted_by_u1 and not granted_by_u2:
        return CompatibilityResult(alpha=0.0, degree=0.0, mutual=False)

    normalizer = space_area * time_domain
    shared = simultaneous_volume(granted_by_u1, granted_by_u2, time_domain)
    if shared > 0.0:
        alpha = shared / normalizer
        return CompatibilityResult(
            alpha=alpha, degree=(1.0 + alpha) / 2.0, mutual=True
        )

    alpha = (
        grant_volume(granted_by_u1, time_domain)
        + grant_volume(granted_by_u2, time_domain)
    ) / (2.0 * normalizer)
    return CompatibilityResult(alpha=alpha, degree=alpha, mutual=False)
