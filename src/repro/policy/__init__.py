"""Location-privacy policies (LPP) and their server-side store.

Definition 1 of the paper: a policy ``P(u1 -> u2) = <role, locr, tint>``
states that if ``u2`` is related to ``u1`` by ``role`` then ``u2`` may see
``u1``'s location while ``u1`` is inside region ``locr`` during time
interval ``tint``.

* :mod:`repro.policy.lpp` — the policy record and its runtime evaluation;
* :mod:`repro.policy.timeset` — time intervals and unions of intervals on
  a cyclic time-of-day domain;
* :mod:`repro.policy.translation` — semantic-location -> Euclidean-region
  translation ("policy translation", Section 5.1);
* :mod:`repro.policy.store` — the server's policy directory, including
  the per-user sorted SV friend lists the query algorithms consume and
  the role membership (inspired by RBAC [7]) its edges carry;
* :mod:`repro.policy.multistore` — directory variant with multiple
  policies per (owner, viewer) pair (Section 8 future work).
"""

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.policy.translation import SemanticLocationRegistry

__all__ = [
    "LocationPrivacyPolicy",
    "MultiPolicyStore",
    "PolicyStore",
    "SemanticLocationRegistry",
    "TimeInterval",
    "TimeSet",
]
