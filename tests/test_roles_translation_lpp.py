"""Tests for semantic translation and LPP evaluation.

Role membership is read off the policy directory; its tests live with
the directory's (``tests/test_policy_store.py``,
``tests/test_policy_directory_model.py``).
"""

import pytest

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.timeset import TimeInterval, TimeSet
from repro.policy.translation import SemanticLocationRegistry, UnknownLocationError
from repro.spatial.geometry import Rect


# ----------------------------------------------------------------------
# SemanticLocationRegistry
# ----------------------------------------------------------------------

def test_translation_of_named_place():
    registry = SemanticLocationRegistry()
    chicago = Rect(100, 300, 100, 280)
    registry.register("Chicago", chicago)
    assert registry.resolve("Chicago") == chicago
    assert "Chicago" in registry
    assert registry.known_names() == ["Chicago"]
    assert len(registry) == 1


def test_euclidean_region_passes_through():
    registry = SemanticLocationRegistry()
    region = Rect(0, 1, 0, 1)
    assert registry.resolve(region) is region


def test_unknown_place_raises():
    registry = SemanticLocationRegistry()
    with pytest.raises(UnknownLocationError):
        registry.resolve("Atlantis")


def test_empty_name_rejected():
    registry = SemanticLocationRegistry()
    with pytest.raises(ValueError):
        registry.register("", Rect(0, 1, 0, 1))


# ----------------------------------------------------------------------
# LocationPrivacyPolicy
# ----------------------------------------------------------------------

def bob_policy():
    """The paper's example: Bob lets colleagues see him in town during
    work hours (8 a.m. to 5 p.m.)."""
    return LocationPrivacyPolicy(
        owner=1,
        role="colleague",
        locr=Rect(100, 300, 100, 280),
        tint=TimeInterval(480, 1020),
    )


def test_admits_inside_region_and_hours():
    assert bob_policy().admits(x=200, y=200, t=600)


def test_denies_outside_region():
    assert not bob_policy().admits(x=500, y=200, t=600)


def test_denies_outside_hours():
    assert not bob_policy().admits(x=200, y=200, t=100)


def test_time_folding_across_days():
    # Day 3, 10:00 -> folds to 600 which is within work hours.
    assert bob_policy().admits(x=200, y=200, t=3 * 1440 + 600)
    assert not bob_policy().admits(x=200, y=200, t=3 * 1440 + 100)


def test_timeset_tint():
    split = LocationPrivacyPolicy(
        owner=1,
        role="friend",
        locr=Rect(0, 1000, 0, 1000),
        tint=TimeSet([TimeInterval(0, 60), TimeInterval(1380, 1440)]),
    )
    assert split.admits(5, 5, t=30)
    assert split.admits(5, 5, t=1400)
    assert not split.admits(5, 5, t=700)
    assert split.time_duration == 120


def test_region_area_and_duration_accessors():
    policy = bob_policy()
    assert policy.region_area == 200 * 180
    assert policy.time_duration == 540
