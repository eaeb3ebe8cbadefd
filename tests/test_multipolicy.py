"""Tests for multi-policy compatibility and the MultiPolicyStore.

The paper's Section 8 future-work item: "consider multiple policies
between two users for computing policy compatibility degree".  The
generalization must (a) reduce exactly to the single-policy Equation 4
when each side holds one policy, (b) never double-count overlapping
grants, and (c) plug into the unchanged Figure 5 sequence-value encoder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compatibility import compatibility
from repro.core.multipolicy import (
    grant_volume,
    set_compatibility,
    simultaneous_volume,
)
from repro.core.sequencing import assign_sequence_values
from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.timeset import TimeInterval, TimeSet
from repro.spatial.geometry import Rect

S = 1000.0 * 1000.0
T = 1440.0


def policy(owner, locr, tint, role="friend"):
    return LocationPrivacyPolicy(owner=owner, role=role, locr=locr, tint=tint)


# ----------------------------------------------------------------------
# Volumes
# ----------------------------------------------------------------------


def test_grant_volume_empty():
    assert grant_volume([], T) == 0.0


def test_grant_volume_single_policy_is_area_times_duration():
    p = policy(1, Rect(0, 100, 0, 50), TimeInterval(60, 180))
    assert grant_volume([p], T) == pytest.approx(100 * 50 * 120)


def test_grant_volume_disjoint_policies_add():
    p1 = policy(1, Rect(0, 10, 0, 10), TimeInterval(0, 60))
    p2 = policy(1, Rect(50, 60, 50, 60), TimeInterval(600, 720))
    assert grant_volume([p1, p2], T) == pytest.approx(100 * 60 + 100 * 120)


def test_grant_volume_identical_policies_not_double_counted():
    p = policy(1, Rect(0, 10, 0, 10), TimeInterval(0, 60))
    assert grant_volume([p, p], T) == pytest.approx(grant_volume([p], T))


def test_grant_volume_same_region_overlapping_times():
    region = Rect(0, 10, 0, 10)
    p1 = policy(1, region, TimeInterval(0, 100))
    p2 = policy(1, region, TimeInterval(50, 150))
    assert grant_volume([p1, p2], T) == pytest.approx(100 * 150)


def test_grant_volume_timeset_policy():
    tint = TimeSet([TimeInterval(0, 60), TimeInterval(600, 660)])
    p = policy(1, Rect(0, 10, 0, 10), tint)
    assert grant_volume([p], T) == pytest.approx(100 * 120)


def test_grant_volume_rejects_bad_domain():
    with pytest.raises(ValueError):
        grant_volume([], 0.0)


def test_simultaneous_volume_disjoint_times_zero():
    p1 = policy(1, Rect(0, 10, 0, 10), TimeInterval(0, 60))
    p2 = policy(2, Rect(0, 10, 0, 10), TimeInterval(120, 180))
    assert simultaneous_volume([p1], [p2], T) == 0.0


def test_simultaneous_volume_disjoint_regions_zero():
    p1 = policy(1, Rect(0, 10, 0, 10), TimeInterval(0, 60))
    p2 = policy(2, Rect(100, 110, 0, 10), TimeInterval(0, 60))
    assert simultaneous_volume([p1], [p2], T) == 0.0


def test_simultaneous_volume_single_pair_matches_product():
    p1 = policy(1, Rect(0, 200, 0, 200), TimeInterval(0, 720))
    p2 = policy(2, Rect(100, 300, 100, 300), TimeInterval(360, 1080))
    expected = (100 * 100) * 360  # O(locr1, locr2) * D(tint1, tint2)
    assert simultaneous_volume([p1], [p2], T) == pytest.approx(expected)


def test_simultaneous_volume_multiple_grants_union_not_sum():
    # u1 grants the same window twice; the shared volume must not double.
    p1a = policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 120))
    p1b = policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 120))
    p2 = policy(2, Rect(0, 100, 0, 100), TimeInterval(0, 120))
    assert simultaneous_volume([p1a, p1b], [p2], T) == pytest.approx(
        simultaneous_volume([p1a], [p2], T)
    )


# ----------------------------------------------------------------------
# Set compatibility vs the single-policy Equation 4
# ----------------------------------------------------------------------


def rect_strategy():
    coord = st.integers(min_value=0, max_value=1000)

    def to_rect(values):
        x1, x2, y1, y2 = values
        return Rect(min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))

    return st.tuples(coord, coord, coord, coord).map(to_rect)


def interval_strategy():
    minute = st.integers(min_value=0, max_value=1440)
    return st.tuples(minute, minute).map(
        lambda pair: TimeInterval(min(pair), max(pair))
    )


@settings(max_examples=200)
@given(rect_strategy(), interval_strategy(), rect_strategy(), interval_strategy())
def test_single_policy_reduces_to_equation_4(locr1, tint1, locr2, tint2):
    p12 = policy(1, locr1, tint1)
    p21 = policy(2, locr2, tint2)
    single = compatibility(p12, p21, S, T)
    multi = set_compatibility([p12], [p21], S, T)
    assert multi.mutual == single.mutual
    assert multi.alpha == pytest.approx(single.alpha, abs=1e-12)
    assert multi.degree == pytest.approx(single.degree, abs=1e-12)


@settings(max_examples=100)
@given(rect_strategy(), interval_strategy())
def test_one_sided_reduces_to_equation_4(locr, tint):
    p12 = policy(1, locr, tint)
    single = compatibility(p12, None, S, T)
    multi = set_compatibility([p12], [], S, T)
    assert multi.alpha == pytest.approx(single.alpha, abs=1e-12)
    assert multi.degree == pytest.approx(single.degree, abs=1e-12)
    assert not multi.mutual


def test_no_policies_unrelated():
    result = set_compatibility([], [], S, T)
    assert result.degree == 0.0
    assert not result.related


def test_mutual_case_exceeds_half():
    p12 = policy(1, Rect(0, 500, 0, 500), TimeInterval(0, 720))
    p21 = policy(2, Rect(0, 500, 0, 500), TimeInterval(0, 720))
    result = set_compatibility([p12], [p21], S, T)
    assert result.mutual
    assert result.degree > 0.5


def test_degree_never_exceeds_one():
    everywhere = Rect(0, 1000, 0, 1000)
    always = TimeInterval(0, 1440)
    p12 = [policy(1, everywhere, always), policy(1, everywhere, always)]
    p21 = [policy(2, everywhere, always)]
    result = set_compatibility(p12, p21, S, T)
    assert result.alpha == pytest.approx(1.0)
    assert result.degree == pytest.approx(1.0)


def test_stacked_policies_cannot_push_alpha_past_one():
    """Redundant grants must not break the [0, 1] normalization."""
    everywhere = Rect(0, 1000, 0, 1000)
    p12 = [policy(1, everywhere, TimeInterval(0, 1440)) for _ in range(5)]
    result = set_compatibility(p12, [], S, T)
    assert result.alpha <= 0.5 + 1e-12


def test_second_policy_extends_mutual_window():
    """A second policy adding an overlap flips the pair to mutual."""
    p12_morning = policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360))
    p21_evening = policy(2, Rect(0, 100, 0, 100), TimeInterval(720, 1080))
    base = set_compatibility([p12_morning], [p21_evening], S, T)
    assert not base.mutual

    p12_evening = policy(1, Rect(0, 100, 0, 100), TimeInterval(720, 1080))
    extended = set_compatibility([p12_morning, p12_evening], [p21_evening], S, T)
    assert extended.mutual
    assert extended.degree > base.degree


def test_rejects_bad_normalizers():
    with pytest.raises(ValueError):
        set_compatibility([], [], 0.0, T)
    with pytest.raises(ValueError):
        set_compatibility([], [], S, -1.0)


# ----------------------------------------------------------------------
# MultiPolicyStore
# ----------------------------------------------------------------------


def make_store():
    return MultiPolicyStore(time_domain=T)


def test_multistore_accepts_duplicate_pairs():
    store = make_store()
    store.add_policy(policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [2])
    store.add_policy(policy(1, Rect(200, 300, 0, 100), TimeInterval(600, 720)), [2])
    assert len(store.policies_for(1, 2)) == 2
    assert store.policy_count() == 2
    assert store.pair_count() == 1


def test_multistore_policy_for_single_ok_multiple_raises():
    store = make_store()
    assert store.policy_for(1, 2) is None
    store.add_policy(policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [2])
    assert store.policy_for(1, 2) is not None
    store.add_policy(policy(1, Rect(0, 50, 0, 50), TimeInterval(600, 700)), [2])
    with pytest.raises(LookupError):
        store.policy_for(1, 2)


def test_multistore_rejects_self_policy():
    store = make_store()
    with pytest.raises(ValueError):
        store.add_policy(policy(1, Rect(0, 1, 0, 1), TimeInterval(0, 1)), [1])


def test_multistore_evaluate_any_policy_admits():
    store = make_store()
    store.add_policy(policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [2])
    store.add_policy(policy(1, Rect(200, 300, 0, 100), TimeInterval(600, 720)), [2])
    assert store.evaluate(1, 2, 50, 50, 100)  # first policy
    assert store.evaluate(1, 2, 250, 50, 650)  # second policy
    assert not store.evaluate(1, 2, 250, 50, 100)  # right place, wrong time
    assert not store.evaluate(1, 2, 500, 500, 100)  # neither region
    assert not store.evaluate(1, 3, 50, 50, 100)  # no policy for viewer 3


def test_multistore_evaluate_folds_time():
    store = make_store()
    store.add_policy(policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [2])
    assert store.evaluate(1, 2, 50, 50, T + 100)


def test_multistore_related_pairs_deduplicated():
    store = make_store()
    store.add_policy(policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [2])
    store.add_policy(policy(1, Rect(0, 50, 0, 50), TimeInterval(0, 100)), [2])
    store.add_policy(policy(2, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [1])
    assert list(store.related_pairs()) == [(1, 2)]


def test_multistore_pair_compatibility_uses_set_semantics():
    store = make_store()
    region = Rect(0, 100, 0, 100)
    p12a = policy(1, region, TimeInterval(0, 100))
    p12b = policy(1, region, TimeInterval(0, 100))
    p21 = policy(2, region, TimeInterval(50, 150))
    store.add_policy(p12a, [2])
    store.add_policy(p12b, [2])
    store.add_policy(p21, [1])
    expected = set_compatibility([p12a, p12b], [p21], S, T)
    result = store.pair_compatibility(1, 2, S)
    assert result.alpha == pytest.approx(expected.alpha)
    assert result.mutual


def test_multistore_friend_list_sorted_by_sv():
    store = make_store()
    store.add_policy(policy(1, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [9])
    store.add_policy(policy(2, Rect(0, 100, 0, 100), TimeInterval(0, 360)), [9])
    store.set_sequence_values({1: 4.0, 2: 2.0})
    assert store.friend_list(9) == [(2.0, 2), (4.0, 1)]


def test_sequencing_runs_on_multistore():
    """Figure 5 must work unchanged on the multi-policy directory."""
    store = make_store()
    region = Rect(0, 200, 0, 200)
    store.add_policy(policy(1, region, TimeInterval(0, 720)), [2])
    store.add_policy(policy(1, region, TimeInterval(720, 1080)), [2])
    store.add_policy(policy(2, region, TimeInterval(0, 720)), [1])
    store.add_policy(policy(3, region, TimeInterval(0, 100)), [1])
    report = assign_sequence_values([1, 2, 3], store, S)
    values = report.sequence_values
    assert set(values) == {1, 2, 3}
    # 1 and 2 are mutually compatible: their SVs differ by 1 - C < 0.5.
    assert abs(values[1] - values[2]) < 0.5
    assert report.related_pair_count == 2


def test_base_store_pair_compatibility_matches_direct_call():
    """The dispatch hook on the base store reproduces the direct formula."""
    from repro.policy.store import PolicyStore

    store = PolicyStore(time_domain=T)
    p12 = policy(1, Rect(0, 200, 0, 200), TimeInterval(0, 720))
    p21 = policy(2, Rect(100, 300, 100, 300), TimeInterval(360, 1080))
    store.add_policy(p12, [2])
    store.add_policy(p21, [1])
    direct = compatibility(p12, p21, S, T)
    via_store = store.pair_compatibility(1, 2, S)
    assert via_store.alpha == pytest.approx(direct.alpha)
    assert via_store.degree == pytest.approx(direct.degree)


def test_rejected_multistore_add_policy_leaves_no_partial_state():
    """The self check covers the whole member list before the first
    write: the members ahead of the owner are not installed."""
    from tests.test_policy_store import snapshot

    store = make_store()
    region = Rect(0, 100, 0, 100)
    store.add_policy(policy(1, region, TimeInterval(0, 360)), [2])
    before = snapshot(store), store.pair_count()
    with pytest.raises(ValueError):
        store.add_policy(policy(1, region, TimeInterval(0, 100)), [3, 4, 1])
    assert (snapshot(store), store.pair_count()) == before
