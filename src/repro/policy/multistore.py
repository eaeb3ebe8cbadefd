"""A policy directory allowing multiple policies per (owner, viewer) pair.

The base :class:`repro.policy.store.PolicyStore` enforces the Section 7.4
experimental assumption — "each user has only one location privacy policy
with respect to a particular user".  Real deployments break it routinely:
Bob may let colleagues see him downtown during work hours *and* near the
office gym in the early evening.  This store lifts the restriction and
plugs the generalized set-compatibility of
:mod:`repro.core.multipolicy` into the sequence-value encoder, realizing
the paper's first future-work item (Section 8).

Every query-side operation keeps Definition 2's semantics under the
natural reading for sets: a viewer may see the owner when *any* of the
owner's policies toward the viewer admits the owner's current
space-time position.
"""

from __future__ import annotations

from typing import Iterator

from repro.policy.store import PolicyStore


class MultiPolicyStore(PolicyStore):
    """Policy directory with policy *lists* per (owner, viewer) pair.

    Storage, lookups, friend lists, sequence values, and the role
    registry are the base store's — its directory already holds a tuple
    of policies per pair; only the duplicate rule and the compatibility
    of a pair change.
    """

    #: A second policy for the same (owner, viewer) pair stacks up
    #: instead of being rejected; ``policy_count`` counts policies,
    #: ``pair_count`` the pairs holding them.
    ONE_POLICY_PER_PAIR = False

    def pair_compatibility(self, u: int, v: int, space_area: float):
        """Set-compatibility over all policies between ``u`` and ``v``."""
        # Imported here: repro.core.multipolicy imports repro.policy.lpp,
        # so a module-level import would cycle through the packages.
        from repro.core.multipolicy import set_compatibility

        return set_compatibility(
            self.policies_for(u, v),
            self.policies_for(v, u),
            space_area,
            self.time_domain,
        )

    def compatibility_edges(
        self, space_area: float
    ) -> Iterator[tuple[int, int, float]]:
        """The base store's edge pass under set-compatibility."""
        from repro.core.compatibility import check_domains
        from repro.core.multipolicy import set_compatibility

        check_domains(space_area, self.time_domain)
        for u, v, granted_by_u, granted_by_v in self._related():
            degree = set_compatibility(
                granted_by_u, granted_by_v, space_area, self.time_domain
            ).degree
            if degree > 0.0:
                yield u, v, degree

    def compatibility_peers(self, space_area: float) -> dict[int, set[int]]:
        """The edge pass folded into peer sets.

        A stacked pair's degree is a volume sweep: no one policy's weight
        decides whether it is 0, so every pair is compared.
        """
        peers: dict[int, set[int]] = {}
        for u, v, _ in self.compatibility_edges(space_area):
            peers.setdefault(u, set()).add(v)
            peers.setdefault(v, set()).add(u)
        return peers
