"""The column-call leaf packer against the entry-at-a-time reference.

:meth:`repro.btree.serialization.BTreeNodeSerializer._pack_leaf` builds
the key column with one ``map(int.to_bytes, ...)`` join, the uid column
with one ``struct.pack`` and hands a packed value column over as it is.
On random leaves — empty and full ones, ``list[bytes]`` and
:class:`PackedValues` columns (also of another stride), keys at the top
of their width — its images must equal ``tests/reference_pack.py``'s
byte for byte and parse back to the leaf, and on a bad leaf it must
raise the exception class the reference raises: a key one past its
width or negative, a uid of ``2**32``, a value of the wrong width and a
key/value count mismatch, alone or together.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import NO_PAGE, LeafNode, PackedValues
from repro.btree.serialization import LEAF_HEADER_SIZE, UID_SIZE, BTreeNodeSerializer
from tests.reference_pack import ReferencePackSerializer

FAULTS = ("wide_key", "negative_key", "wide_uid", "wrong_width_value", "count_mismatch")
COLUMNS = ("list", "packed", "packed_other_stride")


def outcome(serializer, node):
    """``("image", bytes)`` of a packed leaf, or ``("raises", class)``."""
    try:
        return "image", serializer.pack(node)
    except Exception as error:  # the class is what is compared
        return "raises", type(error)


def column(kind, values, vb):
    if kind == "list":
        return list(values)
    if kind == "packed":
        return PackedValues(vb, b"".join(values), count=len(values))
    # A column of another stride: each value one byte wider.
    return PackedValues(vb + 1, b"".join(value + b"\x00" for value in values), count=len(values))


@st.composite
def leaves(draw):
    """``(kb, vb, node, bad)``: a leaf, possibly with faults applied, and
    whether it must fail to pack."""
    kb = draw(st.integers(min_value=1, max_value=12))
    vb = draw(st.integers(min_value=0, max_value=12))
    top = (1 << (8 * kb)) - 1
    page_size = draw(st.integers(min_value=64, max_value=1024))
    capacity = max(2, (page_size - LEAF_HEADER_SIZE) // (kb + UID_SIZE + vb))
    count = draw(
        st.one_of(st.just(0), st.just(capacity), st.integers(0, capacity))
    )
    key = st.one_of(st.just(top), st.integers(min_value=0, max_value=top))
    uid = st.one_of(st.just((1 << 32) - 1), st.integers(0, (1 << 32) - 1))
    keys = draw(st.lists(st.tuples(key, uid), min_size=count, max_size=count))
    values = draw(
        st.lists(st.binary(min_size=vb, max_size=vb), min_size=count, max_size=count)
    )
    kind = draw(st.sampled_from(COLUMNS))
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    if count == 0:
        faults &= {"count_mismatch"}
    bad = bool(faults) or (kind == "packed_other_stride" and count > 0)
    if faults:
        at = draw(st.integers(0, count - 1)) if count else 0
        if "wide_key" in faults:
            keys[at] = (top + 1, keys[at][1])
        if "negative_key" in faults:
            where = draw(st.integers(0, count - 1))
            keys[where] = (-1 - draw(st.integers(0, top)), keys[where][1])
        if "wide_uid" in faults:
            where = draw(st.integers(0, count - 1))
            keys[where] = (keys[where][0], 1 << 32)
        if "wrong_width_value" in faults:
            kind = "list"
            values[at] = values[at] + b"!" if draw(st.booleans()) or not vb else values[at][1:]
        if "count_mismatch" in faults:
            if count and draw(st.booleans()):
                values.pop()
            else:
                values.append(bytes(vb))
    next_leaf = draw(st.one_of(st.just(NO_PAGE), st.integers(0, 1 << 40)))
    node = LeafNode(keys=keys, values=column(kind, values, vb), next_leaf=next_leaf)
    return kb, vb, node, bad


@settings(max_examples=300, deadline=None)
@given(case=leaves())
def test_leaf_images_and_errors_equal_the_reference(case):
    kb, vb, node, bad = case
    shipped = BTreeNodeSerializer(kb, vb)
    expected = outcome(ReferencePackSerializer(kb, vb), node)
    assert outcome(shipped, node) == expected
    assert (expected[0] == "raises") == bad
    if not bad:
        parsed = shipped.parse(expected[1])
        assert parsed.keys == node.keys
        assert list(parsed.values) == list(node.values)
        assert parsed.next_leaf == node.next_leaf


@pytest.mark.parametrize(
    "keys, values, error",
    [
        ([(1, 1), (2, 2)], [b"ab"], ValueError),  # count mismatch
        ([(1, 1)], [b"abc"], ValueError),  # wrong-width value
        ([(1 << 16, 1)], [b"ab"], OverflowError),  # key one past the width
        ([(-1, 1)], [b"ab"], OverflowError),  # negative key
        ([(1, 1 << 32)], [b"ab"], struct.error),  # uid out of range
        ([(1 << 16, 1 << 32)], [b"abc"], OverflowError),  # the key column first
        ([(1, 1 << 32)], [b"abc"], struct.error),  # then the uid column
    ],
)
def test_a_bad_leaf_raises_its_check_class(keys, values, error):
    for serializer in (BTreeNodeSerializer(2, 2), ReferencePackSerializer(2, 2)):
        with pytest.raises(error):
            serializer.pack(LeafNode(keys=keys, values=values))
