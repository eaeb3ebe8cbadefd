"""TPR-tree nodes and their byte layout.

Every node packs into one disk page, like the B+-tree's nodes, so the
TPR-tree baseline is measured on exactly the same storage substrate as
the PEB-tree and the Bx-tree.

Leaf page::

    type:u8  count:u16  count * [uid:u32 x:f64 y:f64 vx:f64 vy:f64 t:f64 pntp:u32]

Internal page::

    type:u8  count:u16  count * [child:i64 tpbr:9*f64]

A leaf entry is the other indexes' entry without its key — the UID and
the moving-object record, 48 bytes; internal entries carry a full TPBR
(80 bytes incl. the child pointer), giving the realistically smaller
internal fan-out of R-tree-family structures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.motion.objects import MovingObject
from repro.tprtree.tpbr import TPBR, union_all

LEAF_TYPE = 1
INTERNAL_TYPE = 2

_HEADER = struct.Struct(">BH")  # type, count
_LEAF_ENTRY = struct.Struct(">IdddddI")  # uid x y vx vy t pntp
_INTERNAL_ENTRY = struct.Struct(">q9d")  # child + tpbr fields

#: Node header bytes.
HEADER_SIZE = _HEADER.size
#: Leaf entry bytes (48).
LEAF_ENTRY_SIZE = _LEAF_ENTRY.size
#: Internal entry bytes (80).
INTERNAL_ENTRY_SIZE = _INTERNAL_ENTRY.size


@dataclass
class TPRLeaf:
    """A leaf: moving-object states plus their policy links."""

    entries: list[tuple[MovingObject, int]] = field(default_factory=list)

    is_leaf = True

    def tpbr(self) -> TPBR:
        """Tightest TPBR over the member objects."""
        return union_all([TPBR.from_object(obj) for obj, _ in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class TPRInternal:
    """An internal node: child page ids with their conservative TPBRs."""

    entries: list[tuple[int, TPBR]] = field(default_factory=list)

    is_leaf = False

    def tpbr(self) -> TPBR:
        """Tightest TPBR over the child TPBRs."""
        return union_all([tpbr for _, tpbr in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


class TPRNodeSerializer:
    """PageSerializer for TPR-tree nodes."""

    def pack(self, node) -> bytes:
        if node.is_leaf:
            parts = [_HEADER.pack(LEAF_TYPE, len(node.entries))]
            for obj, pntp in node.entries:
                parts.append(
                    _LEAF_ENTRY.pack(
                        obj.uid, obj.x, obj.y, obj.vx, obj.vy, obj.t_update, pntp
                    )
                )
            return b"".join(parts)
        parts = [_HEADER.pack(INTERNAL_TYPE, len(node.entries))]
        for child, tpbr in node.entries:
            parts.append(
                _INTERNAL_ENTRY.pack(
                    child,
                    tpbr.x_lo,
                    tpbr.x_hi,
                    tpbr.y_lo,
                    tpbr.y_hi,
                    tpbr.vx_lo,
                    tpbr.vx_hi,
                    tpbr.vy_lo,
                    tpbr.vy_hi,
                    tpbr.t_ref,
                )
            )
        return b"".join(parts)

    def parse(self, image: bytes):
        node_type, count = _HEADER.unpack_from(image, 0)
        offset = HEADER_SIZE
        if node_type == LEAF_TYPE:
            entries = []
            for _ in range(count):
                uid, x, y, vx, vy, t, pntp = _LEAF_ENTRY.unpack_from(image, offset)
                offset += LEAF_ENTRY_SIZE
                entries.append(
                    (MovingObject(uid=uid, x=x, y=y, vx=vx, vy=vy, t_update=t), pntp)
                )
            return TPRLeaf(entries=entries)
        if node_type == INTERNAL_TYPE:
            children = []
            for _ in range(count):
                fields = _INTERNAL_ENTRY.unpack_from(image, offset)
                offset += INTERNAL_ENTRY_SIZE
                children.append(
                    (
                        fields[0],
                        TPBR(
                            x_lo=fields[1],
                            x_hi=fields[2],
                            y_lo=fields[3],
                            y_hi=fields[4],
                            vx_lo=fields[5],
                            vx_hi=fields[6],
                            vy_lo=fields[7],
                            vy_hi=fields[8],
                            t_ref=fields[9],
                        ),
                    )
                )
            return TPRInternal(entries=children)
        raise ValueError(f"unknown node type byte {node_type!r}")
