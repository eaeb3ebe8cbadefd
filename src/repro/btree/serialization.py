"""Byte layout of B+-tree pages.

Every node must pack into one disk page.  The layouts are:

Leaf page (columnar)::

    type:u8  count:u16  next_leaf:i64
    count * key:u{kb*8}    -- packed key column
    count * uid:u32        -- packed uid column
    count * value:bytes[vb]-- packed value column

Internal page::

    type:u8  count:u16  count * [key:u{kb*8} uid:u32]  (count+1) * [child:i64]

``kb`` (key bytes) and ``vb`` (value bytes) are fixed per tree; fan-out is
derived from them in :class:`repro.btree.tree.BTreeConfig`.  Integers are
big-endian so byte order matches numeric order (useful when debugging
hexdumps of pages).

Leaves store their three fields as parallel packed columns rather than
interleaved entries: a page holds exactly the same bytes either way (same
capacity, same splits, same I/O), but the columnar form decodes straight
into batch operations — one ``struct.unpack`` for the whole uid column,
one contiguous payload run handed to the record codec's
``struct.iter_unpack`` — and a parsed leaf keeps its payloads packed in a
:class:`repro.btree.node.PackedValues` column, never as per-entry tuples.
Packing runs the other way, column by column, each in one C-level call:
the key column is one join over ``map(int.to_bytes, ...)``, the uid
column one ``struct.pack``, and a packed value column is joined as it
is, without a copy.  The checks stay in that order: a key/value count
mismatch raises ``ValueError``, a negative or too-wide key
``OverflowError``, an out-of-range uid ``struct.error`` and a value of
the wrong width ``ValueError``.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import itemgetter

from repro.btree.node import (
    INTERNAL_TYPE,
    LEAF_TYPE,
    InternalNode,
    LeafNode,
    PackedValues,
)

_LEAF_HEADER = struct.Struct(">BHq")  # type, count, next_leaf
_INTERNAL_HEADER = struct.Struct(">BH")  # type, count
_UID = struct.Struct(">I")
_CHILD = struct.Struct(">q")
_KEY_OF = itemgetter(0)
_UID_OF = itemgetter(1)

#: Leaf header bytes (1 + 2 + 8).
LEAF_HEADER_SIZE = _LEAF_HEADER.size
#: Internal header bytes (1 + 2).
INTERNAL_HEADER_SIZE = _INTERNAL_HEADER.size
#: Bytes per uid field.
UID_SIZE = _UID.size
#: Bytes per child-pointer field.
CHILD_SIZE = _CHILD.size


class BTreeNodeSerializer:
    """Packs :class:`LeafNode` / :class:`InternalNode` to page images.

    Args:
        key_bytes: width of the integer index key in bytes.  Keys must be
            non-negative and fit the width; the PEB-key codec guarantees
            this by construction.
        value_bytes: width of every leaf payload.
    """

    def __init__(self, key_bytes: int, value_bytes: int):
        if key_bytes <= 0 or value_bytes < 0:
            raise ValueError(
                f"invalid widths: key_bytes={key_bytes} value_bytes={value_bytes}"
            )
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes

    # ------------------------------------------------------------------
    # PageSerializer protocol
    # ------------------------------------------------------------------

    def pack(self, node) -> bytes:
        if node.is_leaf:
            return self._pack_leaf(node)
        return self._pack_internal(node)

    def parse(self, image: bytes):
        node_type = image[0]
        if node_type == LEAF_TYPE:
            return self._parse_leaf(image)
        if node_type == INTERNAL_TYPE:
            return self._parse_internal(image)
        raise ValueError(f"unknown node type byte {node_type!r}")

    # ------------------------------------------------------------------
    # Leaf layout
    # ------------------------------------------------------------------

    def _pack_leaf(self, node: LeafNode) -> bytes:
        keys = node.keys
        values = node.values
        count = len(keys)
        if len(values) != count:
            raise ValueError(
                f"leaf has {count} keys but {len(values)} values"
            )
        kb = self.key_bytes
        vb = self.value_bytes
        header = _LEAF_HEADER.pack(LEAF_TYPE, count, node.next_leaf)
        # One C-level call per column.  A negative or too-wide key
        # raises OverflowError, an out-of-range uid struct.error, in
        # that order and before any value is checked.
        key_col = b"".join(
            map(int.to_bytes, map(_KEY_OF, keys), repeat(kb), repeat("big"))
        )
        uid_col = struct.pack(f">{count}I", *map(_UID_OF, keys))
        if isinstance(values, PackedValues) and values.stride == vb:
            return b"".join((header, key_col, uid_col, values.data))
        for value in values:
            if len(value) != vb:
                raise ValueError(
                    f"leaf value is {len(value)} bytes, expected {vb}"
                )
        return b"".join((header, key_col, uid_col, *values))

    def _parse_leaf(self, image: bytes) -> LeafNode:
        _, count, next_leaf = _LEAF_HEADER.unpack_from(image, 0)
        kb = self.key_bytes
        vb = self.value_bytes
        offset = LEAF_HEADER_SIZE
        key_col = image[offset : offset + count * kb]
        offset += count * kb
        uids = struct.unpack_from(f">{count}I", image, offset)
        offset += count * UID_SIZE
        from_bytes = int.from_bytes
        keys = [
            (from_bytes(key_col[pos : pos + kb], "big"), uid)
            for pos, uid in zip(range(0, count * kb, kb), uids)
        ]
        values = PackedValues(vb, image[offset : offset + count * vb], count=count)
        return LeafNode(keys=keys, values=values, next_leaf=next_leaf)

    # ------------------------------------------------------------------
    # Internal layout
    # ------------------------------------------------------------------

    def _pack_internal(self, node: InternalNode) -> bytes:
        if len(node.children) != len(node.separators) + 1:
            raise ValueError(
                f"internal node has {len(node.separators)} separators but "
                f"{len(node.children)} children"
            )
        parts = [_INTERNAL_HEADER.pack(INTERNAL_TYPE, len(node.separators))]
        for key, uid in node.separators:
            parts.append(key.to_bytes(self.key_bytes, "big"))
            parts.append(_UID.pack(uid))
        for child in node.children:
            parts.append(_CHILD.pack(child))
        return b"".join(parts)

    def _parse_internal(self, image: bytes) -> InternalNode:
        _, count = _INTERNAL_HEADER.unpack_from(image, 0)
        kb = self.key_bytes
        stride = kb + UID_SIZE
        offset = INTERNAL_HEADER_SIZE
        sep_end = offset + count * stride
        from_bytes = int.from_bytes
        uid_at = _UID.unpack_from
        separators = [
            (from_bytes(image[pos : pos + kb], "big"), uid_at(image, pos + kb)[0])
            for pos in range(offset, sep_end, stride)
        ]
        children = list(struct.unpack_from(f">{count + 1}q", image, sep_end))
        return InternalNode(separators=separators, children=children)
