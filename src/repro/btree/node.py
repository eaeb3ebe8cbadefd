"""In-memory B+-tree node representations.

All structural logic (splits, sheds, borrows, merges) lives in
:mod:`repro.btree.tree` and the page layout in
:mod:`repro.btree.serialization`.  Keys are composite ``(key, uid)``
pairs: ``key`` is the index key (a Bx-value or PEB-key packed into a
non-negative integer) and ``uid`` disambiguates entries that share a key.

A leaf carries its page's three packed columns — key, uid and value —
next to the ``keys`` list the tree searches, so writing a leaf back is
one join and never re-encodes an entry the edit did not touch.
:class:`PackedValues` holds the value column in one contiguous
``bytearray`` with a fixed stride, exactly as the page stores it, so a
band scan can hand a whole leaf's payload run to a batched decoder
(``struct.iter_unpack``) without materializing per-entry ``bytes``; it
reads like a list.  The key and uid columns are plain ``bytearray``s.
Every edit of a leaf — entry insert and delete, value rewrite, the cut
of a split, and the entries a shed, borrow or merge moves between two
leaves — is a :class:`LeafNode` method that changes ``keys`` and all
three columns together.  The columns are derived state: they take no
part in a leaf's ``==`` or ``repr``.  A leaf built without them (a
hand-made fixture: ``key_col`` None, ``values`` perhaps a
``list[bytes]``) can be packed but not edited.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator

#: Sentinel page id meaning "no sibling" in the leaf chain.
NO_PAGE = -1

LEAF_TYPE = 1
INTERNAL_TYPE = 2

#: One uid field of a page: 4 bytes, big-endian.
UID_FIELD = struct.Struct(">I")
UID_SIZE = UID_FIELD.size


class PackedValues:
    """Fixed-stride value column backing one leaf's payloads.

    Args:
        stride: byte width of every value (the tree's ``value_bytes``).
        data: initial packed contents — typically a slice of a page
            image; length must be a multiple of ``stride``.
        count: entry count, required only when ``stride`` is 0 (zero
            division of zero bytes is ambiguous); otherwise validated
            against ``len(data) // stride`` when given.

    Reads like a list (index, iterate, compare).  ``data`` and ``count``
    change only through the :class:`LeafNode` that owns the column.
    """

    __slots__ = ("stride", "data", "count")

    def __init__(self, stride: int, data: bytes | bytearray = b"", count: int | None = None):
        if stride < 0:
            raise ValueError(f"stride must be non-negative, got {stride}")
        self.stride = stride
        self.data = bytearray(data)
        if stride:
            extra = len(self.data) % stride
            if extra:
                raise ValueError(
                    f"packed data of {len(self.data)} bytes is not a "
                    f"multiple of stride {stride}"
                )
            derived = len(self.data) // stride
            if count is not None and count != derived:
                raise ValueError(f"count {count} != {derived} packed entries")
            self.count = derived
        else:
            if self.data:
                raise ValueError("stride-0 column cannot hold payload bytes")
            self.count = count if count is not None else 0

    def view(self, start: int, stop: int) -> bytes:
        """The contiguous payload run of entries ``[start, stop)``.

        One allocation for the whole run — this is what a per-leaf scan
        chunk hands to ``struct.iter_unpack``.
        """
        stride = self.stride
        return bytes(self.data[start * stride : stop * stride])

    def to_bytes(self) -> bytes:
        """The whole column, as stored on the page."""
        return bytes(self.data)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> bytes:
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError(f"index {i} out of range for {self.count} values")
        stride = self.stride
        return bytes(self.data[i * stride : (i + 1) * stride])

    def __iter__(self) -> Iterator[bytes]:
        stride = self.stride
        if stride == 0:
            for _ in range(self.count):
                yield b""
            return
        data = self.data
        for pos in range(0, self.count * stride, stride):
            yield bytes(data[pos : pos + stride])

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedValues):
            if self.stride == other.stride:
                return self.count == other.count and self.data == other.data
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"PackedValues(stride={self.stride}, count={self.count})"


@dataclass
class LeafNode:
    """A leaf page: sorted ``(key, uid)`` pairs with fixed-width payloads.

    ``keys[i]`` and ``values[i]`` describe one entry.  ``next_leaf`` is the
    page id of the right sibling (:data:`NO_PAGE` at the rightmost leaf).
    On every leaf the tree or the serializer makes, ``values`` is a
    :class:`PackedValues` column and ``key_col``/``uid_col`` hold the
    page's key and uid columns (``key_bytes`` and :data:`UID_SIZE` bytes
    an entry, big-endian); :meth:`empty` makes one.
    """

    keys: list[tuple[int, int]] = field(default_factory=list)
    values: "PackedValues | list[bytes]" = field(default_factory=list)
    next_leaf: int = NO_PAGE
    key_col: bytearray | None = field(default=None, compare=False, repr=False)
    uid_col: bytearray | None = field(default=None, compare=False, repr=False)
    key_bytes: int = field(default=0, compare=False, repr=False)
    is_leaf = True  # a plain class attribute: every descent level reads it

    @classmethod
    def empty(cls, key_bytes: int, value_bytes: int) -> "LeafNode":
        """A leaf with no entries and (empty) columns of these widths."""
        return cls(
            values=PackedValues(value_bytes),
            key_col=bytearray(),
            uid_col=bytearray(),
            key_bytes=key_bytes,
        )

    def __len__(self) -> int:
        return len(self.keys)

    def payload_slice(self, start: int, stop: int) -> bytes:
        """Entries ``[start, stop)`` as one contiguous payload run."""
        values = self.values
        if isinstance(values, PackedValues):
            return values.view(start, stop)
        return b"".join(values[start:stop])

    # ------------------------------------------------------------------
    # Edits: each changes keys and the three columns together
    # ------------------------------------------------------------------

    def insert_entry(self, pos: int, ck: tuple[int, int], value: bytes) -> None:
        """Insert entry ``ck -> value`` at index ``pos``.

        Everything is encoded before anything changes: a key too wide
        for the column raises ``OverflowError``, a uid outside 4 bytes
        ``struct.error`` and a value of the wrong width ``ValueError``,
        each with the leaf untouched.
        """
        key, uid = ck
        kb = self.key_bytes
        key_field = key.to_bytes(kb, "big")
        uid_field = UID_FIELD.pack(uid)
        values = self.values
        vb = values.stride
        if len(value) != vb:
            raise ValueError(f"value is {len(value)} bytes, expected {vb}")
        self.keys.insert(pos, ck)
        at = pos * kb
        self.key_col[at:at] = key_field
        at = pos * UID_SIZE
        self.uid_col[at:at] = uid_field
        at = pos * vb
        values.data[at:at] = value
        values.count += 1

    def delete_entry(self, pos: int) -> None:
        """Remove the entry at index ``pos``."""
        del self.keys[pos]
        kb = self.key_bytes
        del self.key_col[pos * kb : (pos + 1) * kb]
        del self.uid_col[pos * UID_SIZE : (pos + 1) * UID_SIZE]
        values = self.values
        vb = values.stride
        del values.data[pos * vb : (pos + 1) * vb]
        values.count -= 1

    def set_value(self, pos: int, value: bytes) -> None:
        """Rewrite the payload of the entry at index ``pos``."""
        values = self.values
        vb = values.stride
        if len(value) != vb:
            raise ValueError(f"value is {len(value)} bytes, expected {vb}")
        values.data[pos * vb : (pos + 1) * vb] = value

    def split_off(self, at: int) -> "LeafNode":
        """Move entries ``[at:]`` to a new leaf and return it; the new
        leaf inherits ``next_leaf``."""
        kb = self.key_bytes
        values = self.values
        vb = values.stride
        right = LeafNode(
            keys=self.keys[at:],
            values=PackedValues(vb, values.data[at * vb :], count=values.count - at),
            next_leaf=self.next_leaf,
            key_col=self.key_col[at * kb :],
            uid_col=self.uid_col[at * UID_SIZE :],
            key_bytes=kb,
        )
        del self.keys[at:]
        del self.key_col[at * kb :]
        del self.uid_col[at * UID_SIZE :]
        del values.data[at * vb :]
        values.count = at
        return right

    def take_from_left(self, left: "LeafNode", n: int) -> None:
        """Move the last ``n`` entries of ``left``, the leaf before this
        one, to the front of this leaf."""
        cut = len(left.keys) - n
        self.keys[:0] = left.keys[cut:]
        del left.keys[cut:]
        for mine, theirs, stride in self._column_pairs(left):
            mine[:0] = theirs[cut * stride :]
            del theirs[cut * stride :]
        self.values.count += n
        left.values.count -= n

    def take_from_right(self, right: "LeafNode", n: int) -> None:
        """Move the first ``n`` entries of ``right``, the leaf after this
        one, to the end of this leaf."""
        self.keys += right.keys[:n]
        del right.keys[:n]
        for mine, theirs, stride in self._column_pairs(right):
            mine += theirs[: n * stride]
            del theirs[: n * stride]
        self.values.count += n
        right.values.count -= n

    def _column_pairs(self, other: "LeafNode"):
        """``(this column, other's column, stride)`` for the three."""
        return (
            (self.key_col, other.key_col, self.key_bytes),
            (self.uid_col, other.uid_col, UID_SIZE),
            (self.values.data, other.values.data, self.values.stride),
        )


@dataclass
class InternalNode:
    """An internal page: separator keys routing to child pages.

    ``children`` has exactly ``len(separators) + 1`` page ids.  A lookup of
    composite key ``ck`` descends into ``children[bisect_right(separators,
    ck)]``: child ``i`` holds keys ``separators[i-1] <= ck < separators[i]``.
    """

    separators: list[tuple[int, int]] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    is_leaf = False

    def __len__(self) -> int:
        return len(self.separators)
