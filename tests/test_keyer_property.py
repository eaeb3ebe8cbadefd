"""One keyer: :meth:`PEBTree.key_for` equals the composed chain it replaced.

``key_for`` computes the label timestamp, the TID, the position at the
label, the clamped cell, its curve value, the quantized SV and the
shift-or over ``codec.layout`` in one function.  :func:`chain_key_for`
is the former composition of ``partitioner.label_timestamp``,
``partition_of_label``, ``obj.position_at``, ``grid.z_value``,
``store.sequence_value`` and ``codec.compose``, kept here as the
reference.  Over random states — positions and velocities far outside
the space, instants on and beside label boundaries, SVs at the edge of
the packed scale, non-finite fields, unknown users — on Z and Hilbert
grids and on the ZV-first ablation codec, the two must return the same
key or refuse with the same exception class.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablation import make_zv_first_tree
from repro.core.peb_key import PEBKeyCodec
from repro.core.peb_tree import PEBTree
from repro.motion.objects import MovingObject
from repro.motion.partitions import TimePartitioner
from repro.policy.store import PolicyStore
from repro.shard.tree import ShardedPEBTree
from repro.spatial.curves import HILBERT, ZCURVE
from repro.spatial.grid import Grid
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

SPACE = 1000.0
SV_BITS = 12
SV_SCALE = 16
#: The largest raw SV that still packs into ``SV_BITS`` at ``SV_SCALE``.
SV_EDGE = ((1 << SV_BITS) - 1) / SV_SCALE
PARTITIONER = TimePartitioner(120.0, 2)
PHASE = PARTITIONER.phase

#: uid -> SV: ordinary values, zero, both sides of the scale's edge
#: (a half step below rounds in, a half step above rounds out), a
#: negative, NaN and infinity.  Users 100+ have no SV.
SVS = {
    0: 0.0,
    1: 1.5,
    2: 17.25,
    3: SV_EDGE,
    4: SV_EDGE + 0.49 / SV_SCALE,
    5: SV_EDGE + 0.51 / SV_SCALE,
    6: SV_EDGE + 1.0,
    7: -0.5,
    8: math.nan,
    9: math.inf,
    10: 1e-9,
    11: 3.0 / SV_SCALE,
}


def chain_key_for(tree, obj):
    """The former ``PEBTree.key_for``: six composed calls."""
    label = tree.partitioner.label_timestamp(obj.t_update)
    tid = tree.partitioner.partition_of_label(label)
    x, y = obj.position_at(label)
    zv = tree.grid.z_value(x, y)
    sv = tree.store.sequence_value(obj.uid)
    return tree.codec.compose(tid, sv, zv)


def _store():
    store = PolicyStore()
    store.set_sequence_values(SVS)
    return store


def _trees():
    store = _store()
    trees = {}
    for name, curve, bits in (("z", ZCURVE, 10), ("hilbert", HILBERT, 6), ("z3", ZCURVE, 3)):
        pool = BufferPool(SimulatedDisk(page_size=512), capacity=8)
        trees[name] = PEBTree(
            pool, Grid(SPACE, bits, curve), PARTITIONER, store,
            sv_bits=SV_BITS, sv_scale=SV_SCALE,
        )
    trees["zv_first"] = make_zv_first_tree(
        BufferPool(SimulatedDisk(page_size=512), capacity=8),
        Grid(SPACE, 10), PARTITIONER, store, sv_bits=SV_BITS, sv_scale=SV_SCALE,
    )
    return trees


TREES = _trees()


def outcome(key_for, tree, obj):
    try:
        return key_for(tree, obj)
    except Exception as exc:  # the class is what must agree
        return type(exc)


coordinates = st.one_of(
    st.floats(-2 * SPACE, 3 * SPACE),
    st.sampled_from([0.0, -0.0, SPACE, SPACE - 1e-9, SPACE / 1024, -1e300, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
velocities = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, 1e6, -1e6]),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: Instants on label boundaries and a hair either side of them (the
#: label rounding's tolerance), as well as anywhere.
label_instants = st.builds(
    lambda k, nudge: k * PHASE + nudge,
    st.integers(-3, 200),
    st.sampled_from([0.0, 1e-10, -1e-10, 1e-8, -1e-8, 1e-9, -1e-9, PHASE / 2]),
)
instants = st.one_of(
    label_instants,
    st.floats(-1e3, 1e5),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
)
states = st.builds(
    MovingObject,
    uid=st.one_of(st.sampled_from(sorted(SVS)), st.integers(100, 103)),
    x=coordinates,
    y=coordinates,
    vx=velocities,
    vy=velocities,
    t_update=instants,
)


@settings(max_examples=400, deadline=None)
@given(state=states, layout=st.sampled_from(sorted(TREES)))
def test_key_for_equals_the_composed_chain(state, layout):
    tree = TREES[layout]
    assert outcome(PEBTree.key_for, tree, state) == outcome(chain_key_for, tree, state)


def test_the_edge_cases_both_refuse_and_accept_alike():
    """The drawn space's corners, spelled out: each SV case on one
    ordinary state, on every layout."""
    for tree in TREES.values():
        for uid in [*SVS, 100]:
            for t in (0.0, PHASE, PHASE - 1e-10, PHASE + 1e-10, math.nan):
                obj = MovingObject(uid, 1500.0, -3.0, 2.0, -1.0, t)
                expected = outcome(chain_key_for, tree, obj)
                assert outcome(PEBTree.key_for, tree, obj) == expected
    tree = TREES["z"]
    ok = MovingObject(3, 10.0, 10.0, 0.0, 0.0, 0.0)
    assert isinstance(tree.key_for(ok), int)  # the edge SV packs
    for uid, refused in ((5, ValueError), (7, ValueError), (8, ValueError),
                         (9, OverflowError), (100, KeyError)):
        assert outcome(PEBTree.key_for, tree, MovingObject(uid, 10.0, 10.0, 0.0, 0.0, 0.0)) is refused


def test_a_sharded_deployment_keys_with_its_shard_trees_keyer():
    store = _store()
    sharded = ShardedPEBTree.build(
        2, Grid(SPACE, 10), PARTITIONER, store, uids=[0, 1, 2, 3],
        page_size=512, sv_bits=SV_BITS, sv_scale=SV_SCALE,
    )
    for uid in (0, 1, 2, 3):
        obj = MovingObject(uid, 100.0 * uid, 900.0, 1.0, -2.0, 33.0)
        assert sharded.key_for(obj) == chain_key_for(sharded.trees[0], obj)


def test_a_codec_narrower_than_the_partitioner_or_grid_refuses_alike():
    """A tree attached with a codec that has fewer TIDs than the
    partitioner cycles through, or fewer ZV bits than the grid's curve
    values, refuses the states compose would refuse."""
    store = _store()
    for narrow in (
        PEBKeyCodec(tid_count=2, sv_bits=SV_BITS, zv_bits=20, sv_scale=SV_SCALE),
        PEBKeyCodec(tid_count=3, sv_bits=SV_BITS, zv_bits=8, sv_scale=SV_SCALE),
    ):
        tree = PEBTree(
            BufferPool(SimulatedDisk(page_size=512), capacity=8),
            Grid(SPACE, 10), PARTITIONER, store, sv_bits=SV_BITS, sv_scale=SV_SCALE,
        )
        tree.codec = narrow
        outcomes = set()
        for t in (0.0, PHASE, 2 * PHASE):
            for x in (1.0, 999.0):
                obj = MovingObject(1, x, x, 0.0, 0.0, t)
                expected = outcome(chain_key_for, tree, obj)
                assert outcome(PEBTree.key_for, tree, obj) == expected
                outcomes.add(expected if isinstance(expected, type) else int)
        assert outcomes == {int, ValueError}
