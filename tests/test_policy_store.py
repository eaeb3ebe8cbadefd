"""Tests for the server-side policy directory."""

import pytest

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.serialization import store_from_dict, store_to_dict
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval
from repro.spatial.geometry import Rect

from tests.conftest import role_members, roles_of

EVERYWHERE = Rect(0, 1000, 0, 1000)
ALWAYS = TimeInterval(0, 1440)


def policy(owner, role="friend", locr=EVERYWHERE, tint=ALWAYS):
    return LocationPrivacyPolicy(owner=owner, role=role, locr=locr, tint=tint)


def test_add_and_lookup():
    store = PolicyStore()
    store.add_policy(policy(1), members=[2, 3])
    assert store.policy_for(1, 2) is not None
    assert store.policy_for(1, 3) is not None
    assert store.policy_for(1, 4) is None
    assert store.policy_for(2, 1) is None  # direction matters
    assert store.policy_count() == 2


def test_role_membership_registered():
    store = PolicyStore()
    store.add_policy(policy(1, role="colleague"), members=[2])
    store.add_policy(policy(1, role="family"), members=[3])
    store.add_policy(policy(4, role="colleague"), members=[1])
    assert role_members(store, 1, "colleague") == {2}
    assert role_members(store, 1, "family") == {3}
    assert role_members(store, 1, "friend") == frozenset()
    assert role_members(store, 2, "colleague") == frozenset()  # roles are per-owner
    assert roles_of(store, 1) == ["colleague", "family"]


def test_role_membership_cannot_diverge_from_what_queries_see():
    """Defect twenty-three: ``PolicyStore.roles`` was a registry that
    ``_install`` wrote and no query read, so after
    ``store.roles.revoke(1, "friend", 2)`` user 2 was out of the role
    while ``evaluate``, ``visibility_map`` and ``viewers_of`` still
    showed user 1 to user 2.  Role membership is read off the
    directory (``viewers_of`` and ``policies_for``): there is no second
    copy to revoke from."""
    store = PolicyStore()
    store.add_policy(policy(1, role="friend"), members=[2, 3])
    assert not hasattr(store, "roles")
    assert role_members(store, 1, "friend") == {2, 3} == store.viewers_of(1)
    assert store.evaluate(1, 2, 5, 5, 10)
    assert 1 in store.visibility_map(2, 10)


def test_duplicate_pair_rejected():
    store = PolicyStore()
    store.add_policy(policy(1), members=[2])
    with pytest.raises(ValueError):
        store.add_policy(policy(1, role="family"), members=[2])


def test_self_policy_rejected():
    store = PolicyStore()
    with pytest.raises(ValueError):
        store.add_policy(policy(1), members=[1])


def test_evaluate_applies_definition_2():
    store = PolicyStore()
    store.add_policy(
        policy(1, locr=Rect(0, 100, 0, 100), tint=TimeInterval(0, 720)),
        members=[2],
    )
    assert store.evaluate(owner=1, viewer=2, x=50, y=50, t=100)
    assert not store.evaluate(owner=1, viewer=2, x=500, y=50, t=100)  # region
    assert not store.evaluate(owner=1, viewer=2, x=50, y=50, t=800)  # time
    assert not store.evaluate(owner=1, viewer=3, x=50, y=50, t=100)  # role
    assert not store.evaluate(owner=2, viewer=1, x=50, y=50, t=100)  # direction


def test_evaluate_folds_time():
    store = PolicyStore(time_domain=100.0)
    store.add_policy(policy(1, tint=TimeInterval(0, 50)), members=[2])
    assert store.evaluate(1, 2, 1, 1, t=520)  # 520 mod 100 = 20
    assert not store.evaluate(1, 2, 1, 1, t=575)


def test_semantic_location_translated_on_entry():
    store = PolicyStore()
    store.locations.register("campus", Rect(10, 20, 10, 20))
    semantic = LocationPrivacyPolicy(
        owner=1, role="friend", locr="campus", tint=ALWAYS
    )
    store.add_policy(semantic, members=[2])
    stored = store.policy_for(1, 2)
    assert stored.locr == Rect(10, 20, 10, 20)


def test_friend_list_sorted_by_sv():
    store = PolicyStore()
    for owner in (10, 11, 12):
        store.add_policy(policy(owner), members=[1])
    store.set_sequence_values({10: 5.0, 11: 2.0, 12: 9.0})
    assert store.friend_list(1) == [(2.0, 11), (5.0, 10), (9.0, 12)]
    assert store.friend_list(99) == []


def test_owners_and_viewers():
    store = PolicyStore()
    store.add_policy(policy(1), members=[2, 3])
    store.add_policy(policy(2), members=[1])
    assert store.owners_granting(1) == frozenset({2})
    assert store.owners_granting(2) == frozenset({1})
    assert store.viewers_of(1) == frozenset({2, 3})
    assert store.all_users() == frozenset({1, 2, 3})


def test_related_pairs_unordered_unique():
    store = PolicyStore()
    store.add_policy(policy(1), members=[2])
    store.add_policy(policy(2), members=[1])  # mutual pair -> one entry
    store.add_policy(policy(3), members=[1])
    pairs = sorted(store.related_pairs())
    assert pairs == [(1, 2), (1, 3)]


def test_sequence_value_lookup():
    store = PolicyStore()
    store.set_sequence_values({7: 3.25})
    assert store.sequence_value(7) == 3.25
    with pytest.raises(KeyError):
        store.sequence_value(8)


# ----------------------------------------------------------------------
# A rejected call or payload leaves no state behind
# ----------------------------------------------------------------------


def snapshot(store, users=range(1, 9), roles=("friend", "family")):
    """Everything the accessors say about the directory."""
    store.set_sequence_values({uid: float(uid) for uid in users})
    return {
        "policy_count": store.policy_count(),
        "owners_granting": {uid: store.owners_granting(uid) for uid in users},
        "viewers_of": {uid: store.viewers_of(uid) for uid in users},
        "friend_list": {uid: store.friend_list(uid) for uid in users},
        "members": {
            (uid, role): role_members(store, uid, role)
            for uid in users
            for role in roles
        },
        "all_users": store.all_users(),
        "payload": store_to_dict(store),
    }


@pytest.mark.parametrize(
    "members",
    [
        [3, 4, 1],  # the owner herself, after two valid members
        [3, 2, 4],  # a pair the directory already holds, in the middle
        [3, 4, 3],  # the same member twice in one call
    ],
    ids=["self", "held-pair", "repeated-member"],
)
def test_rejected_add_policy_leaves_no_partial_state(members):
    store = PolicyStore()
    store.add_policy(policy(1, role="family"), members=[2])
    store.add_policy(policy(5), members=[1, 3])
    before = snapshot(store)
    with pytest.raises(ValueError):
        store.add_policy(policy(1, role="friend"), members)
    assert snapshot(store) == before


def test_empty_member_list_installs_nothing():
    store = PolicyStore()
    store.add_policy(policy(1), members=[])
    assert store.policy_count() == 0
    assert store.all_users() == frozenset()
    assert roles_of(store, 1) == []


def valid_payload(kind="single"):
    store = PolicyStore() if kind == "single" else MultiPolicyStore()
    store.add_policy(policy(1), members=[2, 3])
    store.add_policy(policy(2, role="family"), members=[1])
    store.set_sequence_values({1: 2.0, 2: 2.5, 3: 2.75})
    return store_to_dict(store)


SELF_RECORD = [7, 7, "friend", 0, 10, 0, 10, [0, 100]]
DUPLICATE_RECORD = [1, 2, "family", 0, 10, 0, 10, [0, 100]]


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("single", lambda payload: payload["policies"].append(SELF_RECORD)),
        ("multi", lambda payload: payload["policies"].append(SELF_RECORD)),
        ("single", lambda payload: payload["policies"].append(DUPLICATE_RECORD)),
        ("single", lambda payload: payload.update(store="triple")),
        ("single", lambda payload: payload.update(version=2)),
        ("single", lambda payload: payload.update(format="something-else")),
    ],
    ids=[
        "self-policy",
        "self-policy-multi",
        "duplicate-pair",
        "unknown-kind",
        "wrong-version",
        "wrong-format",
    ],
)
def test_store_from_dict_rejects_a_bad_payload(kind, corrupt):
    """A checkpointed payload cannot make a user her own friend, stack a
    second policy on a single-policy pair, or load as a store this build
    does not know."""
    payload = valid_payload(kind)
    assert store_from_dict(payload).policy_count() == 3
    corrupt(payload)
    with pytest.raises(ValueError):
        store_from_dict(payload)


def test_multi_payload_stacks_a_repeated_pair():
    payload = valid_payload("multi")
    payload["policies"].append(DUPLICATE_RECORD)
    restored = store_from_dict(payload)
    assert len(restored.policies_for(1, 2)) == 2
    assert restored.pair_count() == 3 and restored.policy_count() == 4
