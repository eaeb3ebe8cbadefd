"""Policy comparison: the α score and compatibility degree C (Section 5.1).

Two cases are distinguished for users ``u1``, ``u2`` with policies
``P(1->2)`` and ``P(2->1)``:

* **Mutual** (``P(1->2) <-> P(2->1)``): both policies exist and their
  regions *and* time intervals overlap — the users can sometimes see each
  other simultaneously::

      α = O(locr1, locr2)/S · D(tint1, tint2)/T
      C = (1 + α) / 2                      -> always in (0.5, 1]

* **Non-simultaneous** (``P(1->2) = P(2->1)``): the policies never hold at
  the same place-and-time (or only one exists)::

      α = 1/2 (|locr1|/S·|tint1|/T + |locr2|/S·|tint2|/T)
      C = α                                -> never exceeds 0.5

  (a missing policy's term is omitted).  With no policy in either
  direction, α = C = 0 and the users are *unrelated*.

``S`` is the area of the space domain and ``T`` the duration of the time
domain, used for normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.policy.lpp import LocationPrivacyPolicy


@dataclass(frozen=True)
class CompatibilityResult:
    """The α score, the degree C, and which case of Equation 4 applied."""

    alpha: float
    degree: float
    mutual: bool

    @property
    def related(self) -> bool:
        """Users with non-zero compatibility are *related* (Section 5.1)."""
        return self.degree > 0.0


def compatibility(
    p12: LocationPrivacyPolicy | None,
    p21: LocationPrivacyPolicy | None,
    space_area: float,
    time_domain: float,
) -> CompatibilityResult:
    """Compute α and C(u1, u2) per Section 5.1 and Equation 4.

    Args:
        p12: u1's policy regarding u2 (or None).
        p21: u2's policy regarding u1 (or None).
        space_area: S, the area of the space domain.
        time_domain: T, the duration of the time domain.
    """
    check_domains(space_area, time_domain)
    weight12 = one_way_weight(p12, space_area, time_domain)
    weight21 = one_way_weight(p21, space_area, time_domain)
    return CompatibilityResult(
        *equation4(p12, p21, weight12, weight21, space_area, time_domain)
    )


def check_domains(space_area: float, time_domain: float) -> None:
    """Reject a normalization Equation 4 cannot divide by.

    Both must be positive and finite: a NaN passes every ``<= 0`` test
    and would make every degree NaN, and an infinite S or T rounds every
    one-way weight to 0, silently unrelating every one-way pair.
    """
    if not (0.0 < space_area < math.inf and 0.0 < time_domain < math.inf):
        raise ValueError(
            "space_area and time_domain must be positive and finite, got "
            f"{space_area} and {time_domain}"
        )


def one_way_weight(
    policy: LocationPrivacyPolicy | None, space_area: float, time_domain: float
) -> float:
    """A policy's term ``|locr|/S · |tint|/T`` of the non-simultaneous α.

    A missing policy's term is omitted, i.e. weighs 0.
    """
    if policy is None:
        return 0.0
    return (policy.region_area / space_area) * (policy.time_duration / time_domain)


def equation4(
    p12: LocationPrivacyPolicy | None,
    p21: LocationPrivacyPolicy | None,
    weight12: float,
    weight21: float,
    space_area: float,
    time_domain: float,
) -> tuple[float, float, bool]:
    """``(α, C, mutual)`` from the two policies and their one-way weights.

    The scalar core shared by :func:`compatibility` and the store's edge
    pass (:meth:`repro.policy.store.PolicyStore.compatibility_edges`),
    which validates S and T once and computes each weight once per policy
    instead of once per pair.

    C is monotone in each weight and a mutual pair ranks above 0.5, so C
    is 0 only when both one-way terms ``weight / 2`` are 0:
    :meth:`repro.policy.store.PolicyStore.compatibility_peers` evaluates
    this function only for such pairs.
    """
    if p12 is not None and p21 is not None:
        region_overlap = p12.locr.overlap_area(p21.locr)
        if region_overlap > 0.0:
            time_overlap = _time_overlap(p12, p21)
            if time_overlap > 0.0:
                alpha = (region_overlap / space_area) * (time_overlap / time_domain)
                degree = (1.0 + alpha) / 2.0
                if degree <= 0.5:
                    # alpha below the double-precision ulp of 1.0 rounds
                    # (1 + alpha)/2 to exactly 0.5; keep the documented
                    # invariant that mutual pairs rank strictly above every
                    # non-simultaneous pair (whose degree caps at 0.5).
                    degree = math.nextafter(0.5, 1.0)
                return alpha, degree, True
    alpha = (weight12 + weight21) / 2.0
    return alpha, alpha, False


def _time_overlap(p12: LocationPrivacyPolicy, p21: LocationPrivacyPolicy) -> float:
    """D(tint1, tint2) — overlap duration; TimeInterval and TimeSet mix.

    ``TimeSet.overlap`` accepts either kind, while ``TimeInterval.overlap``
    only accepts another interval, so a TimeSet operand (if any) must be
    the receiver.
    """
    from repro.policy.timeset import TimeSet

    tint1, tint2 = p12.tint, p21.tint
    if isinstance(tint1, TimeSet):
        return tint1.overlap(tint2)
    if isinstance(tint2, TimeSet):
        return tint2.overlap(tint1)
    return tint1.overlap(tint2)
