"""Direct pins for the two batched primitives every engine path runs on.

No consumer calls the per-entry forms any more, so their equivalence is
pinned here rather than left to the oracle's end results:

* ``CandidateVerifier.admit_rows`` against the loop over
  ``CandidateVerifier.admit`` (Definition 2, one entry at a time): same
  ``located`` set, same ``candidates_examined``, the same qualifying
  ``(uid, x, y)`` sequence handed to the callback, the same stopping row.
* ``PEBTree.scan_band_rows`` / ``get_many`` against the paper-literal
  ``PEBTree.scan_band``: the same ``(zv, object)`` pairs in the same
  order for the same page reads, on the SV-major layout and the
  ZV-first ablation layout, for single-SV bands, multi-SV spans and
  point bands (``get_many``'s keys).
  (``ShardScatterScanner.scan`` against the single tree's
  ``scan_band`` on boundary-straddling bands:
  ``test_shard_property.test_boundary_straddling_band_scans_identically``.)
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablation import make_zv_first_tree
from repro.engine import CandidateVerifier
from repro.spatial.geometry import Rect
from repro.storage import BufferPool, SimulatedDisk

from tests.conftest import build_world
from tests.test_residency_pin import cold_reads

N_USERS = 220
LAYOUTS = ("sv-major", "zv-first")


@lru_cache(maxsize=None)
def _world():
    """Users alternate between the two live partitions; ``trees`` holds
    the same population under either key layout."""
    world = build_world(n_users=N_USERS, n_policies=8, seed=5)
    for uid in world.uids[::2]:
        world.states[uid] = replace(world.states[uid], t_update=30.0)
        world.peb.update(world.states[uid])
    pool = BufferPool(SimulatedDisk(page_size=1024), capacity=512)
    swapped = make_zv_first_tree(pool, world.grid, world.partitioner, world.store)
    for uid in world.uids:
        swapped.insert(world.states[uid])
    world.trees = dict(zip(LAYOUTS, (world.peb, swapped)))
    return world


UID = st.integers(min_value=0, max_value=N_USERS - 1)  # build_world's uids
Z = st.integers(min_value=0, max_value=(1 << 20) - 1)  # its 10-bit grid
#: ``(tid, a user, another user or None, z, z)``: the band between the
#: two users' quantized SVs (a single-SV band of the first's when None).
BANDS = st.tuples(st.integers(0, 1), UID, st.one_of(st.none(), UID), Z, Z)


def band_of(world, tid, uid_a, uid_b, z_a, z_b):
    """The drawn band as ``scan_band``'s ``(tid, sv_lo_q, sv_hi_q, z_lo, z_hi)``."""
    sv_a, sv_b = (
        world.peb.codec.quantize_sv(world.store.sequence_value(uid))
        for uid in (uid_a, uid_a if uid_b is None else uid_b)
    )
    return tid, min(sv_a, sv_b), max(sv_a, sv_b), min(z_a, z_b), max(z_a, z_b)


# ----------------------------------------------------------------------
# admit_rows == the loop over admit
# ----------------------------------------------------------------------


def stopping_callback(stop_after):
    """Records every qualifier; True (stop) on the ``stop_after``-th."""
    calls = []

    def on_qualify(obj, x, y):
        calls.append((obj.uid, x, y))
        return len(calls) == stop_after

    return calls, on_qualify


def admit_one_by_one(verifier, rows, within, on_qualify):
    """The per-entry loop ``admit_rows`` replaced, verbatim."""
    for _, obj in rows:
        hit = verifier.admit(obj, within=within)
        if hit is None:
            continue
        x, y, qualifies = hit
        if qualifies and on_qualify is not None and on_qualify(obj, x, y):
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(
    issuer=UID,
    tid=st.integers(0, 1),
    ends=st.tuples(UID, UID),
    zs=st.one_of(st.just((0, (1 << 20) - 1)), st.tuples(Z, Z)),
    window=st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),
            st.floats(min_value=0.0, max_value=1000.0),
            st.floats(min_value=50.0, max_value=900.0),
        ),
    ),
    # Mostly soon after the reports: later, nobody is in the space any more.
    t_query=st.one_of(
        st.floats(min_value=0.0, max_value=120.0),
        st.floats(min_value=0.0, max_value=1440.0),
    ),
    located=st.sets(UID, max_size=40),
    # None: no callback at all; 0: a callback that never stops.
    stop_after=st.sampled_from((1, 2, 0, 3, None)),
)
def test_admit_rows_equals_the_per_entry_loop(
    issuer, tid, ends, zs, window, t_query, located, stop_after
):
    world = _world()
    # A span between two of the issuer's friends (only their rows can
    # qualify), with whoever else's SV falls between.
    friends = world.store.friend_list(issuer)
    if friends:
        ends = [friends[end % len(friends)][1] for end in ends]
    rows = world.peb.scan_band_rows(*band_of(world, tid, *ends, *zs))
    within = None if window is None else Rect.from_center(*window)

    outcomes = []
    for admit in (
        lambda v, cb: v.admit_rows(rows, within, cb),
        lambda v, cb: admit_one_by_one(v, rows, within, cb),
    ):
        verifier = CandidateVerifier(world.store, issuer, t_query)
        verifier.located.update(located)
        calls, on_qualify = stopping_callback(stop_after)
        stopped = admit(verifier, None if stop_after is None else on_qualify)
        outcomes.append(
            (stopped, calls, verifier.located, verifier.candidates_examined)
        )
    batched, per_entry = outcomes
    assert batched == per_entry
    stopped, calls, _, _ = batched
    assert stopped == bool(stop_after and len(calls) == stop_after)


# ----------------------------------------------------------------------
# scan_band_rows / get_many == scan_band
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), band=BANDS)
def test_band_rows_equal_the_per_entry_scan(layout, band):
    world = _world()
    tree = world.trees[layout]
    band = band_of(world, *band)
    rows, row_reads = cold_reads(tree, lambda: tree.scan_band_rows(*band))
    pairs, pair_reads = cold_reads(tree, lambda: list(tree.scan_band(*band)))
    assert list(rows) == pairs
    assert rows.zvs == [zv for zv, _ in pairs]
    assert [rec[:6] for rec in rows.records] == [
        (o.uid, o.x, o.y, o.vx, o.vy, o.t_update) for _, o in pairs
    ]
    assert row_reads == pair_reads
    if band[1] != band[2] or layout == "zv-first":
        assert rows.proven is None  # only a contiguous stratum is proven


#: ``(a user, its live key or None, tid, z)``: a point band at the
#: user's live key, or at ``(tid, its quantized SV, z)`` when None.
POINTS = st.tuples(UID, st.booleans(), st.integers(0, 1), Z)


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), points=st.lists(POINTS, max_size=8))
def test_a_multi_get_equals_one_per_entry_point_scan_per_key(layout, points):
    world = _world()
    tree = world.trees[layout]
    codec = tree.codec
    keys = sorted(
        tree.live.keys[uid]
        if live
        else codec.compose_quantized(
            tid, codec.quantize_sv(world.store.sequence_value(uid)), z
        )
        for uid, live, tid, z in points
    )
    fetched, fetched_reads = cold_reads(tree, lambda: list(tree.get_many(keys)))
    bands = [(tid, sv_q, sv_q, zv, zv) for tid, sv_q, zv in map(codec.decompose, keys)]
    singly, single_reads = cold_reads(
        tree, lambda: [list(tree.scan_band(*band)) for band in bands]
    )
    assert [list(rows) for rows in fetched] == singly
    assert any(singly) or not any(live for _, live, _, _ in points)
    assert fetched_reads == single_reads
