"""Sequence-value assignment (Section 5.1, Figure 5).

Users are sorted in descending order of their number of *related* users
(non-zero compatibility); sequence values are then handed out group by
group:

* the first user in the list gets ``SV = sv0``;
* every not-yet-assigned user related to a group leader ``u`` gets
  ``SV(u) + (1 - C(u, member))`` — high compatibility means a *close*
  sequence value;
* the next unassigned user in the sorted list gets the *previous list
  entry's* SV plus the group gap δ ("δ is an interval that helps separate
  different groups of users as well as leaves adjustment space for future
  policy updates").

The group sizes come from the policy directory
(:meth:`repro.policy.store.PolicyStore.compatibility_peers`), and C is
evaluated once per member placed, not once per related pair: a group's
members are only those not yet placed, so most of the pairs Figure 5's
lines 1-4 would compare are never read.

The function reproduces the worked example of Section 5.1 exactly (see
``tests/test_sequencing.py``).

Policy encoding is a one-time offline step (Section 5.1: "policy updates
are usually infrequent"); the returned report carries the wall-clock
duration so the Figure 11 preprocessing experiment can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.timer import timer
from repro.policy.store import PolicyStore

#: Paper defaults: "Let the initial sequence value be 2 and also let δ = 2."
DEFAULT_INITIAL_SV = 2.0
DEFAULT_DELTA = 2.0


@dataclass
class EncodingReport:
    """Outcome of one policy-encoding run.

    Attributes:
        sequence_values: the SV assignment, uid -> SV.
        elapsed_seconds: wall-clock preprocessing time (Figure 11).
        group_count: number of group leaders (users that started a group).
        related_pair_count: number of user pairs with non-zero C.
    """

    sequence_values: dict[int, float]
    elapsed_seconds: float
    group_count: int
    related_pair_count: int


def assign_sequence_values(
    users: list[int],
    store: PolicyStore,
    space_area: float,
    initial_sv: float = DEFAULT_INITIAL_SV,
    delta: float = DEFAULT_DELTA,
) -> EncodingReport:
    """Run the Figure 5 algorithm over all users.

    Args:
        users: every uid in the system, in registration order (the sort is
            stable, so registration order breaks group-size ties exactly
            like the paper's worked example).
        store: policy directory; only a leader and the members it places
            are compared, everything else has C = 0 by definition or is
            never read.
        space_area: S, the normalization area of the space domain.
        initial_sv: SV of the first user in the sorted list (sv > 1).
        delta: group separation gap (δ > 1).

    Returns:
        An :class:`EncodingReport` with the assignment and timing.
    """
    if initial_sv <= 1.0:
        raise ValueError(f"initial sequence value must exceed 1, got {initial_sv}")
    if delta <= 1.0:
        raise ValueError(f"delta must exceed 1, got {delta}")

    watch = timer()

    # Lines 1-4: the groups G(u), without their degrees.
    groups = store.compatibility_peers(space_area)

    # Line 5: sort users by group size, descending; Python's sort is
    # stable, so ties keep registration order.
    ordered = sorted(users, key=lambda uid: -len(groups.get(uid, ())))

    # Lines 6-12: hand out sequence values.
    sequence_values: dict[int, float] = {}
    group_count = 0
    previous_sv = initial_sv - delta
    for uid in ordered:
        if uid not in sequence_values:
            leader_sv = previous_sv + delta
            sequence_values[uid] = leader_sv
            group_count += 1
            for member in groups.get(uid, ()):
                if member not in sequence_values:
                    # C in the orientation of the store's edge pass
                    # (smaller uid first), so the float is the pass's.
                    pair = (uid, member) if uid < member else (member, uid)
                    degree = store.pair_compatibility(*pair, space_area).degree
                    sequence_values[member] = leader_sv + (1.0 - degree)
        previous_sv = sequence_values[uid]

    elapsed = watch.stop()
    return EncodingReport(
        sequence_values=sequence_values,
        elapsed_seconds=elapsed,
        group_count=group_count,
        related_pair_count=sum(map(len, groups.values())) // 2,
    )
