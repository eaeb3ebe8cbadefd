"""Tests for moving objects and the leaf-record codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion.objects import MovingObject, ObjectRecordCodec

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def mover(**overrides):
    fields = dict(uid=7, x=10.0, y=20.0, vx=1.0, vy=-2.0, t_update=5.0)
    fields.update(overrides)
    return MovingObject(**fields)


def test_position_extrapolation():
    obj = mover()
    assert obj.position_at(5.0) == (10.0, 20.0)
    assert obj.position_at(8.0) == (13.0, 14.0)
    assert obj.position_at(3.0) == (8.0, 24.0)  # backwards in time works too


def test_speed():
    assert mover(vx=3.0, vy=4.0).speed == 5.0
    assert mover(vx=0.0, vy=0.0).speed == 0.0


def test_moved_to_preserves_identity():
    obj = mover()
    moved = obj.moved_to(1.0, 2.0, 3.0, 4.0, 9.0)
    assert moved.uid == obj.uid
    assert (moved.x, moved.y, moved.vx, moved.vy, moved.t_update) == (1, 2, 3, 4, 9)
    # The original is frozen and unchanged.
    assert obj.x == 10.0


def test_record_codec_round_trip():
    codec = ObjectRecordCodec()
    obj = mover(x=123.456789, vy=-0.000123)
    payload = codec.pack(obj, pntp=99)
    assert len(payload) == ObjectRecordCodec.SIZE
    # The uid is not in the payload: it comes from the leaf's uid column.
    assert codec.pack(mover(uid=8, x=123.456789, vy=-0.000123), pntp=99) == payload
    restored, pntp = codec.unpack(obj.uid, payload)
    assert restored == obj
    assert pntp == 99
    keys = [(1000, obj.uid), (1001, 8)]
    run = payload + codec.pack(mover(uid=8), pntp=5)
    assert codec.unpack_many(keys, run) == [(obj, 99), (mover(uid=8), 5)]
    assert codec.unpack_records(keys, run) == [
        (7, 123.456789, 20.0, 1.0, -0.000123, 5.0, 99),
        (8, 10.0, 20.0, 1.0, -2.0, 5.0, 5),
    ]


def test_record_size_is_44_bytes():
    # Five f64 + pntp u32: the paper's entry stores the UID once, in the
    # B+-tree's uid column.
    assert ObjectRecordCodec.SIZE == 44


def test_full_double_precision_preserved():
    codec = ObjectRecordCodec()
    obj = mover(x=1.0 / 3.0, y=2.0 / 7.0, vx=1e-15)
    restored, _ = codec.unpack(obj.uid, codec.pack(obj))
    assert restored.x == obj.x
    assert restored.y == obj.y
    assert restored.vx == obj.vx


@settings(max_examples=100, deadline=None)
@given(
    uid=st.integers(min_value=0, max_value=(1 << 32) - 1),
    x=finite,
    y=finite,
    vx=finite,
    vy=finite,
    t=finite,
    pntp=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_codec_round_trip_property(uid, x, y, vx, vy, t, pntp):
    codec = ObjectRecordCodec()
    obj = MovingObject(uid=uid, x=x, y=y, vx=vx, vy=vy, t_update=t)
    restored, restored_pntp = codec.unpack(uid, codec.pack(obj, pntp))
    assert restored == obj
    assert restored_pntp == pntp


@settings(max_examples=100, deadline=None)
@given(x=finite, y=finite, vx=finite, vy=finite, dt=st.floats(0, 1e3))
def test_linear_motion_is_additive(x, y, vx, vy, dt):
    """pos(t0 + a + b) reached directly equals re-basing at t0 + a."""
    obj = MovingObject(uid=1, x=x, y=y, vx=vx, vy=vy, t_update=0.0)
    half = obj.position_at(dt / 2)
    rebased = obj.moved_to(half[0], half[1], vx, vy, dt / 2)
    direct = obj.position_at(dt)
    via = rebased.position_at(dt)
    assert direct[0] == pytest.approx(via[0], rel=1e-9, abs=1e-6)
    assert direct[1] == pytest.approx(via[1], rel=1e-9, abs=1e-6)
