"""Random location-privacy policies with grouped structure (Section 6).

"To simulate different relationships among users, we first randomly
divide users into groups and then generate policies for each user based
on ... the grouping factor θ = Ngr / Np, where Ngr is the number of
policies that a user has regarding other users in the same group and Np
is the user's total number of policies."

* θ = 1: every policy targets a same-group user;
* θ = 0: no groups — targets are drawn from the whole population.

The paper does not state the group size; we default to ``2 * Np``
(documented in DESIGN.md) so the intra-group quota is always satisfiable.
Each user's targets are split round-robin over three role names, one LPP
per role, matching the paper's one-policy-per-peer assumption
(Section 7.4) while exercising role-based sharing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect

#: Role names cycled over each user's policies.
ROLE_NAMES = ("family", "friend", "colleague")


class _Outsiders(Sequence):
    """A population without one group's members, in population order.

    ``rng.sample`` reads a sequence only through ``len`` and indexing,
    so this view draws exactly what the materialised list would — built
    once per group from the members' positions instead of once per user
    from the whole population (6 000 users × 5 900 membership tests at
    the benchmark's scale), and without holding one population-sized
    list per group.

    Args:
        population: every user id.
        member_positions: ascending indices of the group's members in
            ``population``.
    """

    def __init__(self, population: list[int], member_positions: list[int]):
        self._population = population
        # Outsiders that precede the i-th member; ascending.
        self._outsiders_before = [
            position - rank for rank, position in enumerate(member_positions)
        ]

    def __len__(self) -> int:
        return len(self._population) - len(self._outsiders_before)

    def __getitem__(self, index: int) -> int:
        if index < 0:
            raise IndexError(index)
        # The index-th outsider follows every member with at most
        # ``index`` outsiders before it.
        return self._population[
            index + bisect_right(self._outsiders_before, index)
        ]


class PolicyGenerator:
    """Draws random LPPs over a user population.

    Args:
        space_side: side length L of the space domain.
        time_domain: duration T of the cyclic time domain.
        rng: dedicated random generator.
        region_fraction: ``(lo, hi)`` — policy regions have side lengths
            drawn uniformly from ``[lo*L, hi*L]``.  The default favours
            permissive regions so a realistic share of policies admit at
            query time.
        duration_fraction: ``(lo, hi)`` — policy time windows cover this
            fraction range of the time domain.
    """

    def __init__(
        self,
        space_side: float,
        time_domain: float,
        rng: random.Random,
        region_fraction: tuple[float, float] = (0.4, 0.9),
        duration_fraction: tuple[float, float] = (0.5, 1.0),
    ):
        self.space_side = space_side
        self.time_domain = time_domain
        self.rng = rng
        self.region_fraction = region_fraction
        self.duration_fraction = duration_fraction

    # ------------------------------------------------------------------
    # Population-level generation
    # ------------------------------------------------------------------

    def generate(
        self,
        uids: list[int],
        n_policies: int,
        grouping_factor: float,
        group_size: int | None = None,
    ) -> PolicyStore:
        """Build a :class:`PolicyStore` for the whole population.

        Args:
            uids: all user ids.
            n_policies: Np — policies per user.
            grouping_factor: θ in [0, 1].
            group_size: users per group; default ``2 * n_policies``.
        """
        if not 0.0 <= grouping_factor <= 1.0:
            raise ValueError(f"grouping_factor must be in [0, 1], got {grouping_factor}")
        if n_policies < 0:
            raise ValueError(f"n_policies must be non-negative, got {n_policies}")
        if n_policies >= len(uids):
            raise ValueError(
                f"cannot give each of {len(uids)} users {n_policies} distinct peers"
            )
        store = self._make_store()
        groups = self._partition_into_groups(uids, n_policies, group_size)
        group_of = {
            uid: index for index, group in enumerate(groups) for uid in group
        }
        population = list(uids)
        position_of = {uid: position for position, uid in enumerate(population)}
        outsiders = [
            _Outsiders(population, sorted(position_of[uid] for uid in group))
            for group in groups
        ]
        for uid in uids:
            index = group_of[uid]
            targets = self._pick_targets(
                uid,
                groups[index],
                population,
                outsiders[index],
                n_policies,
                grouping_factor,
            )
            self._install_policies(store, uid, targets)
        return store

    def _make_store(self) -> PolicyStore:
        """The directory policies are installed into (subclass hook)."""
        return PolicyStore(time_domain=self.time_domain)

    def _partition_into_groups(
        self, uids: list[int], n_policies: int, group_size: int | None
    ) -> list[list[int]]:
        if group_size is None:
            group_size = max(2 * n_policies, 2)
        group_size = min(group_size, len(uids))
        shuffled = list(uids)
        self.rng.shuffle(shuffled)
        return [
            shuffled[start : start + group_size]
            for start in range(0, len(shuffled), group_size)
        ]

    def _pick_targets(
        self,
        uid: int,
        group: list[int],
        population: list[int],
        outsiders: Sequence[int],
        n_policies: int,
        theta: float,
    ) -> list[int]:
        if theta == 0.0:
            # No groups at all: any user may be a peer (Section 6).
            candidates = [peer for peer in population if peer != uid]
            return self.rng.sample(candidates, n_policies)
        in_group_quota = round(theta * n_policies)
        group_peers = [peer for peer in group if peer != uid]
        in_group_quota = min(in_group_quota, len(group_peers))
        targets = self.rng.sample(group_peers, in_group_quota)
        out_quota = n_policies - len(targets)
        if out_quota > 0:
            targets.extend(self.rng.sample(outsiders, min(out_quota, len(outsiders))))
        return targets

    def _install_policies(
        self, store: PolicyStore, owner: int, targets: list[int]
    ) -> None:
        buckets: dict[str, list[int]] = {}
        for index, target in enumerate(targets):
            role = ROLE_NAMES[index % len(ROLE_NAMES)]
            buckets.setdefault(role, []).append(target)
        for role, members in buckets.items():
            policy = LocationPrivacyPolicy(
                owner=owner,
                role=role,
                locr=self.random_region(),
                tint=self.random_interval(),
            )
            store.add_policy(policy, members)

    # ------------------------------------------------------------------
    # Single-policy draws (also used directly by tests and examples)
    # ------------------------------------------------------------------

    def random_region(self) -> Rect:
        """A random policy region, clamped inside the space."""
        lo, hi = self.region_fraction
        width = self.rng.uniform(lo, hi) * self.space_side
        height = self.rng.uniform(lo, hi) * self.space_side
        x_lo = self.rng.uniform(0.0, max(self.space_side - width, 0.0))
        y_lo = self.rng.uniform(0.0, max(self.space_side - height, 0.0))
        return Rect(x_lo, x_lo + width, y_lo, y_lo + height)

    def random_interval(self) -> TimeInterval | TimeSet:
        """A random policy time window on the cyclic domain.

        The start is uniform over the whole day and the window *wraps*
        midnight when needed (e.g. a night-shift policy from 22:00 to
        06:00 becomes the union [22:00, 24:00) ∪ [00:00, 06:00)), so
        every instant of the day is covered with the same probability —
        otherwise experiments querying near t = 0 would see almost no
        qualifying policies.
        """
        lo, hi = self.duration_fraction
        duration = self.rng.uniform(lo, hi) * self.time_domain
        start = self.rng.uniform(0.0, self.time_domain)
        end = start + duration
        if end <= self.time_domain:
            return TimeInterval(start, end)
        return TimeSet(
            [
                TimeInterval(start, self.time_domain),
                TimeInterval(0.0, end - self.time_domain),
            ]
        )


class MultiPolicyGenerator(PolicyGenerator):
    """Workload generator for the multi-policy extension (Section 8).

    Target selection (groups, θ) is inherited unchanged; what differs is
    installation: each (owner, target) pair receives between one and
    ``max_policies_per_pair`` *stacked* policies with independently drawn
    regions and time windows — Bob shares his downtown location during
    work hours *and* the gym district in the evening.  The produced
    directory is a :class:`repro.policy.multistore.MultiPolicyStore`, so
    the sequence-value encoders automatically use set-compatibility.

    Args:
        max_policies_per_pair: upper bound on stacked policies per pair
            (drawn uniformly from ``1..max``); remaining arguments as in
            :class:`PolicyGenerator`.
    """

    def __init__(self, *args, max_policies_per_pair: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        if max_policies_per_pair < 1:
            raise ValueError(
                f"max_policies_per_pair must be >= 1, got {max_policies_per_pair}"
            )
        self.max_policies_per_pair = max_policies_per_pair

    def _make_store(self) -> PolicyStore:
        # Imported here to keep the single-policy path free of the
        # multistore module (and its core.multipolicy dependency).
        from repro.policy.multistore import MultiPolicyStore

        return MultiPolicyStore(time_domain=self.time_domain)

    def _install_policies(
        self, store: PolicyStore, owner: int, targets: list[int]
    ) -> None:
        for index, target in enumerate(targets):
            role = ROLE_NAMES[index % len(ROLE_NAMES)]
            for _ in range(self.rng.randint(1, self.max_policies_per_pair)):
                policy = LocationPrivacyPolicy(
                    owner=owner,
                    role=role,
                    locr=self.random_region(),
                    tint=self.random_interval(),
                )
                store.add_policy(policy, [target])
