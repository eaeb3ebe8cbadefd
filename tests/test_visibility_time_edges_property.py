"""``visibility_map``'s time test, on the edges of every window.

:meth:`repro.policy.store.PolicyStore.visibility_map` keeps a policy
whose time window holds the folded query instant.  The reference here
is the map built from ``tint.contains`` per policy, straight from the
store's public accessors.  Both are asked at the instants where a
half-open ``[start, end)`` test can go wrong — each piece's ``start``,
``end`` and ``end`` minus one ulp, and ``0`` and ``T`` — with and
without a window, on a :class:`PolicyStore` and on a
:class:`MultiPolicyStore` that stacks several policies on one pair,
with plain :class:`TimeInterval` and wrapped :class:`TimeSet` windows.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.lpp import LocationPrivacyPolicy
from repro.policy.multistore import MultiPolicyStore
from repro.policy.store import PolicyStore
from repro.policy.timeset import TimeInterval, TimeSet, fold
from repro.spatial.geometry import Rect

VIEWER = 0
SIDE = 100.0


def reference_map(store, viewer, t, window):
    folded = fold(t, store.time_domain)
    visible = {}
    for owner in store.owners_granting(viewer):
        bounds = tuple(
            (p.locr.x_lo, p.locr.x_hi, p.locr.y_lo, p.locr.y_hi)
            for p in store.policies_for(owner, viewer)
            if p.tint.contains(folded)
            and (
                window is None
                or (
                    p.locr.x_lo <= window.x_hi
                    and window.x_lo <= p.locr.x_hi
                    and p.locr.y_lo <= window.y_hi
                    and window.y_lo <= p.locr.y_hi
                )
            )
        )
        if bounds:
            visible[owner] = bounds
    return visible


def pieces(tint):
    return tint.intervals if isinstance(tint, TimeSet) else [tint]


@st.composite
def rects(draw):
    x_lo, x_hi = sorted((draw(st.floats(0, SIDE)), draw(st.floats(0, SIDE))))
    y_lo, y_hi = sorted((draw(st.floats(0, SIDE)), draw(st.floats(0, SIDE))))
    return Rect(x_lo, x_hi, y_lo, y_hi)


@st.composite
def tints(draw, domain):
    edge = st.one_of(
        st.sampled_from([0.0, domain, domain / 2, math.nextafter(domain, 0.0)]),
        st.floats(0.0, domain),
    )
    a, b = draw(edge), draw(edge)
    shape = draw(st.sampled_from(["interval", "wrapped", "set"]))
    if shape == "interval":
        return TimeInterval(min(a, b), max(a, b))
    if shape == "wrapped":
        # Late evening to early morning: [late, T) and [0, early).
        early, late = min(a, b), max(a, b)
        return TimeSet([TimeInterval(late, domain), TimeInterval(0.0, early)])
    c, d = sorted((draw(edge), draw(edge)))
    return TimeSet([TimeInterval(min(a, b), max(a, b)), TimeInterval(c, d)])


@st.composite
def stores(draw):
    domain = draw(st.sampled_from([1440.0, 7.0, 0.3]))
    multi = draw(st.booleans())
    store = (MultiPolicyStore if multi else PolicyStore)(time_domain=domain)
    owners = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True))
    for owner in owners:
        for _ in range(draw(st.integers(1, 3)) if multi else 1):
            policy = LocationPrivacyPolicy(
                owner=owner, role="friend", locr=draw(rects()), tint=draw(tints(domain))
            )
            store.add_policy(policy, [VIEWER])
    return store


@settings(max_examples=300, deadline=None)
@given(store=stores(), window=st.one_of(st.none(), rects()), data=st.data())
def test_inline_time_check_is_tint_contains(store, window, data):
    domain = store.time_domain
    instants = {0.0, domain}
    for owner in store.owners_granting(VIEWER):
        for policy in store.policies_for(owner, VIEWER):
            for piece in pieces(policy.tint):
                instants |= {piece.start, piece.end, math.nextafter(piece.end, -math.inf)}
    # A whole number of domains later folds onto the same instants.
    shift = data.draw(st.sampled_from([0.0, domain, 3 * domain]))
    for t in sorted(instants):
        expected = reference_map(store, VIEWER, t + shift, window)
        assert store.visibility_map(VIEWER, t + shift, window) == expected, t


def test_the_edges_of_a_plain_and_a_wrapped_window():
    store = PolicyStore(time_domain=1440.0)
    here = Rect(0.0, 10.0, 0.0, 10.0)
    store.add_policy(
        LocationPrivacyPolicy(1, "work", here, TimeInterval(480.0, 1020.0)), [VIEWER]
    )
    store.add_policy(
        LocationPrivacyPolicy(
            2, "night", here, TimeSet([TimeInterval(1320.0, 1440.0), TimeInterval(0.0, 120.0)])
        ),
        [VIEWER],
    )
    visible_at = lambda t: sorted(store.visibility_map(VIEWER, t))
    assert visible_at(480.0) == [1]
    assert visible_at(math.nextafter(1020.0, 0.0)) == [1]
    assert visible_at(1020.0) == []
    assert visible_at(0.0) == visible_at(1440.0) == [2]
    assert visible_at(math.nextafter(120.0, 0.0)) == [2]
    assert visible_at(120.0) == []
    assert visible_at(math.nextafter(1320.0, 0.0)) == []
