"""Every entry point of Equation 4 refuses an S or T it cannot normalize by.

A NaN passes every ``<= 0`` test: Figure 5 at ``S = nan`` used to return
one group per user and no related pair, and ``compatibility()`` a NaN
degree.  An infinite S or T rounds every one-way weight to 0, so every
one-way pair fell out of the encoding.  A checkpoint payload's
``time_domain`` reaches the store unchecked unless the store's
constructor refuses it: NaN made every later ``evaluate`` False, 0.0
raised ``ZeroDivisionError`` at the first one.  Each case here must
raise ``ValueError`` instead.
"""

import math

import pytest

from repro.core.compatibility import compatibility
from repro.core.encoders import BFSEncoder
from repro.core.multipolicy import set_compatibility
from repro.core.sequencing import assign_sequence_values
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.serialization import store_from_dict, store_to_dict
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval
from repro.spatial.geometry import Rect

S = 1000.0 * 1000.0
T = 1440.0
BAD = [math.nan, math.inf, -math.inf, 0.0, -5.0]

P01 = LocationPrivacyPolicy(0, "friend", Rect(0, 600, 0, 600), TimeInterval(0, 720))
P10 = LocationPrivacyPolicy(1, "friend", Rect(300, 900, 0, 900), TimeInterval(600, 1440))


def store_of(store_type):
    store = store_type(time_domain=T)
    store.add_policy(P01, [1])
    store.add_policy(P10, [0])
    return store


def payload_with(store_type, time_domain):
    payload = store_to_dict(store_of(store_type))
    payload["time_domain"] = time_domain
    return payload


CASES = {
    "compatibility-S": lambda bad: compatibility(P01, P10, bad, T),
    "compatibility-T": lambda bad: compatibility(P01, P10, S, bad),
    "set_compatibility-S": lambda bad: set_compatibility([P01], [P10], bad, T),
    "set_compatibility-T": lambda bad: set_compatibility([P01], [P10], S, bad),
    "edges-single": lambda bad: list(store_of(PolicyStore).compatibility_edges(bad)),
    "edges-multi": lambda bad: list(
        store_of(MultiPolicyStore).compatibility_edges(bad)
    ),
    "peers-single": lambda bad: store_of(PolicyStore).compatibility_peers(bad),
    "peers-multi": lambda bad: store_of(MultiPolicyStore).compatibility_peers(bad),
    "figure5": lambda bad: assign_sequence_values([0, 1], store_of(PolicyStore), bad),
    "figure5-multi": lambda bad: assign_sequence_values(
        [0, 1], store_of(MultiPolicyStore), bad
    ),
    "bfs": lambda bad: BFSEncoder().encode([0, 1], store_of(PolicyStore), bad),
    "store-T": lambda bad: PolicyStore(time_domain=bad),
    "multistore-T": lambda bad: MultiPolicyStore(time_domain=bad),
    "store_from_dict-single": lambda bad: store_from_dict(
        payload_with(PolicyStore, bad)
    ),
    "store_from_dict-multi": lambda bad: store_from_dict(
        payload_with(MultiPolicyStore, bad)
    ),
}


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_domain_that_cannot_normalize_is_refused(case, bad):
    with pytest.raises(ValueError):
        CASES[case](bad)


@pytest.mark.parametrize("good", [T, S])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_finite_positive_domain_is_accepted(case, good):
    CASES[case](good)
