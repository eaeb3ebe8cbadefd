"""The bisecting cut of a key-sorted op run against per-op routing.

:meth:`ShardRouter.split_sorted_run` cuts a run at each TID block's
boundary keys instead of routing every op.  On random routers — empty,
duplicate (a shard squeezed empty), zero and past-the-field boundaries —
and random key-sorted runs over every TID, its ``(shard, run)`` pairs
must equal routing each op alone with :meth:`ShardRouter.shard_of_key`.
(``ShardedPEBTree.update_batch`` reads each user's shard off the cut;
``tests/test_sv_quantizer.py`` pins its refusal of a move across a
shard boundary.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablation import ZVFirstKeyCodec
from repro.core.peb_key import PEBKeyCodec
from repro.shard import ShardRouter

CODEC = PEBKeyCodec(tid_count=3, sv_bits=8, zv_bits=6, sv_scale=1)
MAX_SV = (1 << CODEC.sv_bits) - 1
MAX_Z = (1 << CODEC.zv_bits) - 1


def routed_per_op(router, ops):
    """The former cut: one ``shard_of_key`` per op, in one stable pass."""
    runs = {}
    for op in ops:
        runs.setdefault(router.shard_of_key(op[1]), []).append(op)
    return sorted(runs.items())


boundary = st.one_of(
    st.sampled_from([0, 1, MAX_SV, MAX_SV + 1, 2 * MAX_SV]),
    st.integers(0, MAX_SV),
)


@st.composite
def runs(draw):
    boundaries = sorted(draw(st.lists(boundary, max_size=6)))
    if boundaries and draw(st.booleans()):  # squeeze a shard empty
        at = draw(st.integers(0, len(boundaries) - 1))
        boundaries.insert(at, boundaries[at])
    near = [max(0, b + d) for b in boundaries for d in (-1, 0, 1) if b + d <= MAX_SV]
    sv = st.one_of(st.sampled_from(near), st.integers(0, MAX_SV)) if near else st.integers(0, MAX_SV)
    entry = st.tuples(
        st.integers(0, CODEC.tid_count - 1),
        sv,
        st.sampled_from([0, MAX_Z]) | st.integers(0, MAX_Z),
        st.integers(0, 3),
    )
    ops = []
    for tid, sv_q, zv, uid in draw(st.lists(entry, max_size=60)):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        ops.append((kind, CODEC.compose_quantized(tid, sv_q, zv), uid, None))
    ops = sorted({op[1:3]: op for op in ops}.values(), key=lambda op: (op[1], op[2]))
    return ShardRouter(CODEC, boundaries), ops


@settings(max_examples=400, deadline=None)
@given(case=runs())
def test_the_cut_equals_per_op_routing(case):
    router, ops = case
    cut = router.split_sorted_run(ops)
    assert cut == routed_per_op(router, ops)
    for _, run in cut:  # the ops themselves, not copies
        assert all(any(op is mine for mine in ops) for op in run)


def test_every_shard_of_every_tid_block():
    router = ShardRouter(CODEC, (64, 64, 128))  # shard 1 squeezed empty
    ops = [
        ("insert", CODEC.compose_quantized(tid, sv_q, zv), tid, None)
        for tid in range(CODEC.tid_count)
        for sv_q in (0, 63, 64, 127, 128, MAX_SV)
        for zv in (0, MAX_Z)
    ]
    cut = router.split_sorted_run(ops)
    assert [shard for shard, _ in cut] == [0, 2, 3]
    assert cut == routed_per_op(router, ops)
    assert router.split_sorted_run([]) == []


def test_a_router_needs_an_sv_major_codec():
    zv_first = ZVFirstKeyCodec(tid_count=3, sv_bits=8, zv_bits=6, sv_scale=1)
    with pytest.raises(ValueError, match="SV-major"):
        ShardRouter(zv_first, (64,))
