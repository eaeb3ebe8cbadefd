"""The entry-at-a-time leaf packer: the reference for leaf page images.

Test equipment, not a mode of the program.  The shipped
:meth:`repro.btree.serialization.BTreeNodeSerializer._pack_leaf` builds
each column in one C-level call; :class:`ReferencePackSerializer` packs
the key column one ``key.to_bytes`` at a time from a generator, the uid
column from a generator, and copies a packed value column out with
``PackedValues.to_bytes()``.  Its images and the exception class it
raises on a bad leaf are what ``tests/test_leaf_pack_property.py`` pins
the shipped packer to.  Internal pages and parsing are inherited.
"""

import struct

from repro.btree.node import LEAF_TYPE, LeafNode, PackedValues
from repro.btree.serialization import _LEAF_HEADER, BTreeNodeSerializer


class ReferencePackSerializer(BTreeNodeSerializer):
    """A :class:`BTreeNodeSerializer` whose leaves pack entry by entry."""

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
        parts = [
            _LEAF_HEADER.pack(LEAF_TYPE, count, node.next_leaf),
            b"".join(key.to_bytes(kb, "big") for key, _ in keys),
            struct.pack(f">{count}I", *(uid for _, uid in keys)),
        ]
        if isinstance(values, PackedValues) and values.stride == vb:
            parts.append(values.to_bytes())
        else:
            chunks = []
            for value in values:
                if len(value) != vb:
                    raise ValueError(
                        f"leaf value is {len(value)} bytes, expected {vb}"
                    )
                chunks.append(value)
            parts.append(b"".join(chunks))
        return b"".join(parts)
