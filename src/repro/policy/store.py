"""The server-side policy directory.

The server "has access to all users' privacy policies" (Section 3).  The
store resolves roles once so queries can ask directly for the policy one
user holds about another.  Every policy edge owner -> viewer is stored
once, in the viewer-major directory ``{viewer: {owner: (policy, ...)}}``
written by :meth:`PolicyStore._install`; the per-user *friend lists* of
Section 5.3 ("a list for each user that stores the SV values of users
who have policies with respect to the list owner") are derived from a
viewer's row of it and sorted ascending by SV on each call, and so is
role membership: a viewer is in an owner's role exactly when
:meth:`PolicyStore.policies_for` holds a policy of that role, so no
second copy of who may see whom exists to fall out of step.

Following Section 7.4 we assume at most one policy per (owner, viewer)
pair; :meth:`add_policy` rejects duplicates so experiments cannot
silently double-count.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, KeysView

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.timeset import DEFAULT_TIME_DOMAIN, fold
from repro.policy.translation import SemanticLocationRegistry

if TYPE_CHECKING:
    from repro.spatial.geometry import Rect


class PolicyStore:
    """All users' policies, their roles, and SV friend lists.

    Args:
        time_domain: length of the cyclic time domain policies live on.
        locations: semantic-location registry used to translate policies
            whose ``locr`` is a name; optional when all policies are
            already Euclidean.
    """

    #: Section 7.4's assumption; the multi-policy store lifts it.
    ONE_POLICY_PER_PAIR = True

    def __init__(
        self,
        time_domain: float = DEFAULT_TIME_DOMAIN,
        locations: SemanticLocationRegistry | None = None,
    ):
        if not 0.0 < time_domain < math.inf:
            raise ValueError(
                f"time_domain must be positive and finite, got {time_domain}"
            )
        self.time_domain = time_domain
        self.locations = locations if locations is not None else SemanticLocationRegistry()
        # The one policy table, viewer-major: a verifier resolves one
        # viewer's visibility over thousands of candidates, so it probes
        # that viewer's small row instead of hashing an (owner, viewer)
        # tuple into one big table for every candidate.
        self._directory: dict[int, dict[int, tuple[LocationPrivacyPolicy, ...]]] = {}
        # Owner-major index of the same edges, for viewers_of().
        self._viewers_by_owner: dict[int, set[int]] = {}
        self._sequence_values: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_policy(
        self, policy: LocationPrivacyPolicy, members: Iterable[int]
    ) -> None:
        """Install a policy and the role membership that scopes it.

        Args:
            policy: the LPP; a semantic ``locr`` is translated here.
            members: uids the owner places in ``policy.role``.  One policy
                per (owner, viewer) pair (Section 7.4).
        """
        locr = self.locations.resolve(policy.locr)
        if locr is not policy.locr:
            policy = LocationPrivacyPolicy(
                owner=policy.owner, role=policy.role, locr=locr, tint=policy.tint
            )
        self._install(policy, list(members))

    def _install(self, policy: LocationPrivacyPolicy, viewers: list[int]) -> None:
        """Write the edges ``policy.owner -> viewer`` — the only writer.

        Every edge is validated before the first is written, so a
        rejected call leaves the directory as it was.
        """
        owner = policy.owner
        if not viewers:
            return
        if owner in viewers:
            raise ValueError(f"user {owner} cannot hold a policy about itself")
        if self.ONE_POLICY_PER_PAIR:
            taken: set[int] = set()
            for viewer in viewers:
                if viewer in taken or owner in self._directory.get(viewer, ()):
                    raise ValueError(
                        f"duplicate policy: user {owner} already has a "
                        f"policy for viewer {viewer}"
                    )
                taken.add(viewer)
        self._viewers_by_owner.setdefault(owner, set()).update(viewers)
        edge = (policy,)  # one tuple shared by every row it enters
        for viewer in viewers:
            row = self._directory.setdefault(viewer, {})
            row[owner] = row[owner] + edge if owner in row else edge

    def set_sequence_values(self, sequence_values: dict[int, float]) -> None:
        """Attach the SV assignment produced by the policy encoder."""
        self._sequence_values = dict(sequence_values)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def policies_for(self, owner: int, viewer: int) -> tuple[LocationPrivacyPolicy, ...]:
        """All policies ``owner`` holds about ``viewer`` (may be empty).

        Zero or one in the base store.  Query code (e.g. the continuous
        monitor) uses this so it need not care which directory it runs
        against.
        """
        return self._directory.get(viewer, {}).get(owner, ())

    def policy_for(self, owner: int, viewer: int) -> LocationPrivacyPolicy | None:
        """The policy ``P(owner -> viewer)``, or None.

        Refuses to pick among several (multi-policy store): code aware
        of stacked policies should use :meth:`policies_for`.
        """
        policies = self.policies_for(owner, viewer)
        if len(policies) > 1:
            raise LookupError(
                f"user {owner} holds {len(policies)} policies about "
                f"{viewer}; use policies_for()"
            )
        return policies[0] if policies else None

    def evaluate(self, owner: int, viewer: int, x: float, y: float, t: float) -> bool:
        """Full Definition-2 policy condition for ``owner`` seen by ``viewer``.

        True when the owner has a policy whose role covers the viewer, the
        owner's location ``(x, y)`` is inside ``locr``, and ``t`` falls in
        ``tint`` — any of the owner's policies toward the viewer may admit.
        """
        for policy in self.policies_for(owner, viewer):
            if policy.admits(x, y, t, self.time_domain):
                return True
        return False

    def visibility_map(
        self,
        viewer: int,
        t: float,
        window: "Rect | None" = None,
        owners: Iterable[int] | None = None,
    ) -> dict[int, tuple[tuple[float, float, float, float], ...]]:
        """Regions where each owner is visible to ``viewer`` at instant ``t``.

        A query verifies every candidate at the same ``t_query``, so the
        time condition of Definition 2 is a per-policy constant for the
        whole query: this resolves it once and returns, for each owner
        with at least one time-admitting policy toward ``viewer``, the
        ``(x_lo, x_hi, y_lo, y_hi)`` bounds of those policies' ``locr``
        regions.  A candidate at ``(x, y)`` then passes
        :meth:`evaluate` exactly when its owner maps to a bounds tuple
        containing the point — the batched verifier's per-row check.
        Given a ``window``, only regions that meet it are kept (closed
        intervals, as the verifier admits a point on both edges), and an
        owner none of whose regions meets it is left out: a verifier that
        tests the window first reaches the same verdict on every point.
        Given ``owners``, only those owners are resolved (one outside the
        viewer's row is skipped), so the map is the full one restricted
        to them — a range plan resolves only the friends whose cell can
        reach its window.  Reads the viewer's row of the directory, the
        table :meth:`policies_for` reads, so the multi-policy store
        inherits the any-policy-admits semantics unchanged.
        """
        folded = fold(t, self.time_domain)
        if window is None:
            w_xlo = w_ylo = -math.inf
            w_xhi = w_yhi = math.inf
        else:
            w_xlo, w_xhi = window.x_lo, window.x_hi
            w_ylo, w_yhi = window.y_lo, window.y_hi
        row = self._directory.get(viewer, {})
        if owners is None:
            granted = row.items()
        else:
            granted = [(owner, row[owner]) for owner in owners if owner in row]
        visible: dict[int, tuple[tuple[float, float, float, float], ...]] = {}
        for owner, policies in granted:
            bounds = []
            for policy in policies:
                if policy.tint.contains(folded):
                    locr = policy.locr
                    x_lo, x_hi, y_lo, y_hi = locr.x_lo, locr.x_hi, locr.y_lo, locr.y_hi
                    if x_lo <= w_xhi and w_xlo <= x_hi and y_lo <= w_yhi and w_ylo <= y_hi:
                        bounds.append((x_lo, x_hi, y_lo, y_hi))
            if bounds:
                visible[owner] = tuple(bounds)
        return visible

    def pair_compatibility(self, u: int, v: int, space_area: float):
        """C(u, v) for the pair, per this store's policy semantics.

        The base store applies the single-policy Equation 4 of
        Section 5.1; :class:`repro.policy.multistore.MultiPolicyStore`
        overrides this, and :meth:`compatibility_edges`, with the
        set-compatibility generalization.
        """
        # Imported here: repro.core.compatibility imports repro.policy.lpp,
        # so a module-level import would cycle through the packages.
        from repro.core.compatibility import compatibility

        return compatibility(
            self.policy_for(u, v), self.policy_for(v, u), space_area, self.time_domain
        )

    def compatibility_edges(
        self, space_area: float
    ) -> Iterator[tuple[int, int, float]]:
        """``(u, v, C(u, v))`` per related pair: once, ``u < v``, ``C > 0``.

        The compatibility graph the BFS encoder linearizes, in one pass
        over the directory: S and T are validated once and a policy's
        one-way weight is computed once however many edges share the
        policy.  Degrees equal :meth:`pair_compatibility`'s.
        """
        from repro.core.compatibility import check_domains, equation4, one_way_weight

        time_domain = self.time_domain
        check_domains(space_area, time_domain)
        weights: dict[int, float] = {}  # by id(): policies outlive the pass

        def weight(policy):
            known = weights.get(id(policy))
            if known is None:
                known = weights[id(policy)] = one_way_weight(
                    policy, space_area, time_domain
                )
            return known

        for u, v, granted_by_u, granted_by_v in self._related():
            p12 = granted_by_u[0] if granted_by_u else None
            p21 = granted_by_v[0] if granted_by_v else None
            degree = equation4(
                p12, p21, weight(p12), weight(p21), space_area, time_domain
            )[1]
            if degree > 0.0:
                yield u, v, degree

    def compatibility_peers(self, space_area: float) -> dict[int, set[int]]:
        """``{u: {v : C(u, v) > 0}}``: each user's related peers, no degrees.

        The pairs :meth:`compatibility_edges` yields, read off the
        directory: a user's peers are the owners in its row and the
        viewers it granted, less the pairs whose degree is 0.  Equation 4
        is monotone in each one-way weight and ranks a mutual pair above
        0.5, so only a pair none of whose policies has a positive one-way
        term (``weight / 2``) can have degree 0, and only such a pair is
        compared in full.
        """
        from repro.core.compatibility import check_domains, one_way_weight

        time_domain = self.time_domain
        check_domains(space_area, time_domain)

        def weightless(policies: tuple[LocationPrivacyPolicy, ...]) -> bool:
            return not (
                policies
                and one_way_weight(policies[0], space_area, time_domain) / 2.0 > 0.0
            )

        directory = self._directory
        peers = {viewer: set(row) for viewer, row in directory.items()}
        for owner, viewers in self._viewers_by_owner.items():
            if owner in peers:
                peers[owner] |= viewers
            else:
                peers[owner] = set(viewers)
        # One policy tuple per install, shared by every row it entered.
        grants: dict[int, tuple[LocationPrivacyPolicy, ...]] = {}
        for row in directory.values():
            grants.update(zip(map(id, row.values()), row.values()))
        for policies in grants.values():
            if not weightless(policies):
                continue
            owner = policies[0].owner
            for viewer in self._viewers_by_owner[owner]:
                reverse = directory.get(owner, {}).get(viewer, ())
                if directory[viewer][owner] is policies and weightless(reverse):
                    u, v = (owner, viewer) if owner < viewer else (viewer, owner)
                    if not self.pair_compatibility(u, v, space_area).degree > 0.0:
                        peers[u].discard(v)
                        peers[v].discard(u)
        return peers

    def sequence_value(self, uid: int) -> float:
        """SV of a user (KeyError until the encoder ran)."""
        return self._sequence_values[uid]

    def max_sequence_value(self) -> float | None:
        """Largest SV assigned (None before the encoder ran)."""
        return max(self._sequence_values.values(), default=None)

    def friend_list(self, viewer: int) -> list[tuple[float, int]]:
        """Users with a policy about ``viewer``, sorted ascending by SV.

        Returns ``(sv, owner_uid)`` pairs — the friend list the PRQ and
        PkNN algorithms consume (Figures 7 and 10).
        """
        owners = self._directory.get(viewer, ())
        pairs = [(self._sequence_values[owner], owner) for owner in owners]
        pairs.sort()
        return pairs

    def owners_granting(self, viewer: int) -> KeysView[int]:
        """Uids holding a policy about ``viewer`` (unsorted, no SVs).

        A read-only view of the viewer's row, not a copy: a range plan
        walks one per query.  Do not hold it across an install; take a
        ``frozenset`` of it to keep a snapshot.
        """
        return self._directory.get(viewer, {}).keys()

    def viewers_of(self, owner: int) -> frozenset[int]:
        """Uids the owner has granted (possibly conditional) visibility."""
        return frozenset(self._viewers_by_owner.get(owner, ()))

    def related_pairs(self) -> Iterator[tuple[int, int]]:
        """Unordered user pairs connected by at least one policy.

        Each pair is yielded once with ``u < v``.  These are the only
        pairs with non-zero compatibility, so the policy encoder iterates
        them instead of the full N^2 pair space.
        """
        return ((u, v) for u, v, _, _ in self._related())

    def _related(self) -> Iterator[tuple[int, int, tuple, tuple]]:
        """``(u, v, u's policies about v, v's about u)`` per related pair.

        An edge owner -> viewer yields its pair unless the reverse edge
        exists and owns the pair (the edge whose owner is the smaller
        uid does), so no pair repeats and none has to be remembered.
        """
        directory = self._directory
        for viewer, row in directory.items():
            for owner, policies in row.items():
                reverse = directory.get(owner, {}).get(viewer, ())
                if owner < viewer:
                    yield owner, viewer, policies, reverse
                elif not reverse:
                    yield viewer, owner, reverse, policies

    def policy_count(self) -> int:
        """Total number of policy edges (owner, viewer, policy)."""
        return sum(
            len(policies) for row in self._directory.values() for policies in row.values()
        )

    def pair_count(self) -> int:
        """Number of directed (owner, viewer) pairs holding policies."""
        return sum(len(row) for row in self._directory.values())

    def all_users(self) -> frozenset[int]:
        """Every uid appearing as owner or viewer of some policy."""
        return frozenset(self._directory) | frozenset(self._viewers_by_owner)
