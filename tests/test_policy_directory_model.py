"""Model-based test of the policy directory.

A policy edge owner -> viewer lives in one table that one install step
writes; every accessor of ``PolicyStore`` / ``MultiPolicyStore`` derives
its answer from it.  The model is the plainest possible directory —
``{(owner, viewer): [policies]}`` — and after every ``add_policy`` of a
random interleaving (several owners, roles, overlapping member lists,
calls the store must reject whole) every accessor has to agree with it,
as does the store a ``store_to_dict`` -> ``store_from_dict`` round trip
rebuilds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.serialization import store_from_dict, store_to_dict
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect

from tests.conftest import role_members, roles_of

T = 1440.0
USERS = range(5)
ROLES = ("family", "friend", "colleague")
REGIONS = (Rect(0, 1000, 0, 1000), Rect(0, 400, 0, 400), Rect(300, 900, 300, 900))
WINDOWS = (
    TimeInterval(0, T),
    TimeInterval(480, 1020),
    TimeSet([TimeInterval(1320, T), TimeInterval(0, 360)]),
)
PROBES = ((200.0, 200.0, 100.0), (350.0, 350.0, 700.0), (950.0, 50.0, T + 1400.0))
#: Query windows for the windowed map: clear of the third region, on
#: the edges of the second and third, and clear of all three.
QUERY_WINDOWS = (
    Rect(50, 150, 50, 150),
    Rect(400, 450, 0, 300),
    Rect(1001, 1100, 0, 1000),
)
SEQUENCE_VALUES = {uid: 2.0 + ((uid * 7) % 5) / 4 for uid in USERS}

CALLS = st.lists(
    st.tuples(
        st.sampled_from(USERS),
        st.sampled_from(ROLES),
        st.lists(st.sampled_from(USERS), max_size=4),
        st.sampled_from(REGIONS),
        st.sampled_from(WINDOWS),
    ),
    max_size=10,
)


def model_rejects(model, single, owner, members):
    if owner in members:
        return True
    return single and (
        len(set(members)) < len(members)
        or any((owner, viewer) in model for viewer in members)
    )


def assert_agrees(store, model):
    single = type(store) is PolicyStore
    owners_of = {uid: {o for o, v in model if v == uid} for uid in USERS}
    viewers_of = {uid: {v for o, v in model if o == uid} for uid in USERS}

    assert store.policy_count() == sum(len(held) for held in model.values())
    assert store.pair_count() == len(model)
    assert store.all_users() == {uid for pair in model for uid in pair}
    assert sorted(store.related_pairs()) == sorted(
        {(min(pair), max(pair)) for pair in model}
    )
    for viewer in USERS:
        assert store.owners_granting(viewer) == owners_of[viewer]
        assert store.viewers_of(viewer) == viewers_of[viewer]
        assert store.friend_list(viewer) == sorted(
            (SEQUENCE_VALUES[owner], owner) for owner in owners_of[viewer]
        )
        for owner in USERS:
            held = model.get((owner, viewer), [])
            assert store.policies_for(owner, viewer) == tuple(held)
            if len(held) > 1:
                with pytest.raises(LookupError):
                    store.policy_for(owner, viewer)
            else:
                assert store.policy_for(owner, viewer) == (held[0] if held else None)
            for x, y, t in PROBES:
                assert store.evaluate(owner, viewer, x, y, t) == any(
                    policy.admits(x, y, t, T) for policy in held
                )
        for _, _, t in PROBES:
            expected = {}
            for owner in owners_of[viewer]:
                bounds = tuple(
                    (p.locr.x_lo, p.locr.x_hi, p.locr.y_lo, p.locr.y_hi)
                    for p in model[(owner, viewer)]
                    if p.tint.contains(t % T)
                )
                if bounds:
                    expected[owner] = bounds
            assert store.visibility_map(viewer, t) == expected
            for window in QUERY_WINDOWS:
                windowed = {}
                for owner, bounds in expected.items():
                    kept = tuple(b for b in bounds if Rect(*b).intersects(window))
                    if kept:
                        windowed[owner] = kept
                assert store.visibility_map(viewer, t, window) == windowed
    for owner in USERS:
        for role in ROLES:
            assert role_members(store, owner, role) == {
                viewer
                for (o, viewer), held in model.items()
                if o == owner and any(policy.role == role for policy in held)
            }
        assert roles_of(store, owner) == sorted(
            {policy.role for (o, _), held in model.items() if o == owner for policy in held}
        )

    payload = store_to_dict(store)
    assert payload["store"] == ("single" if single else "multi")
    assert [record[:3] for record in payload["policies"]] == [
        [owner, viewer, policy.role]
        for (owner, viewer), held in sorted(model.items())
        for policy in held
    ]


@pytest.mark.parametrize("store_type", [PolicyStore, MultiPolicyStore])
@settings(max_examples=60, deadline=None)
@given(calls=CALLS)
def test_every_accessor_agrees_with_the_model_after_every_step(store_type, calls):
    store = store_type(time_domain=T)
    store.set_sequence_values(SEQUENCE_VALUES)
    model: dict[tuple[int, int], list[LocationPrivacyPolicy]] = {}
    single = store_type is PolicyStore
    for owner, role, members, locr, tint in calls:
        policy = LocationPrivacyPolicy(owner=owner, role=role, locr=locr, tint=tint)
        if model_rejects(model, single, owner, members):
            with pytest.raises(ValueError):
                store.add_policy(policy, members)
        else:
            store.add_policy(policy, members)
            for viewer in members:
                model.setdefault((owner, viewer), []).append(policy)
        assert_agrees(store, model)

    restored = store_from_dict(json.loads(json.dumps(store_to_dict(store))))
    assert type(restored) is store_type
    assert_agrees(restored, model)
    assert store_to_dict(restored) == store_to_dict(store)
