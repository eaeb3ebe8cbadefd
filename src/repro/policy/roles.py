"""Role membership, inspired by Role-Based Access Control [7].

"The use of the concept of role ... avoids writing the same policy for
multiple people with the same relationship" (Section 3).  Each user owns
a private mapping from role names ("friend", "colleague", ...) to member
sets; the policy check ``qID in role`` of Definition 2 resolves through
this registry.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable


class RoleRegistry:
    """Per-owner role definitions.

    A role is identified by ``(owner_uid, role_name)``; its members are
    the uids the owner placed in that relationship.
    """

    def __init__(self):
        self._members: dict[tuple[int, str], set[int]] = defaultdict(set)

    def assign(self, owner: int, role: str, member: int) -> None:
        """Put ``member`` into the owner's role."""
        self._members[(owner, role)].add(member)

    def assign_all(self, owner: int, role: str, members: Iterable[int]) -> None:
        """Put every one of ``members`` into the owner's role."""
        self._members[(owner, role)].update(members)

    def revoke(self, owner: int, role: str, member: int) -> None:
        """Remove ``member`` from the owner's role (no-op if absent)."""
        self._members.get((owner, role), set()).discard(member)

    def members(self, owner: int, role: str) -> frozenset[int]:
        """Members of the owner's role (empty if undefined)."""
        return frozenset(self._members.get((owner, role), ()))

    def is_in_role(self, owner: int, role: str, uid: int) -> bool:
        """The ``qID in role`` check of Definitions 2 and 3."""
        return uid in self._members.get((owner, role), ())

    def roles_of(self, owner: int) -> list[str]:
        """Role names the owner has defined."""
        return sorted({name for own, name in self._members if own == owner})
