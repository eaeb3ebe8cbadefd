"""In-memory B+-tree node representations.

Nodes are plain containers; all structural logic (splits, borrows, merges)
lives in :mod:`repro.btree.tree` and all byte-layout logic lives in
:mod:`repro.btree.serialization`.  Keys are composite ``(key, uid)`` pairs:
``key`` is the index key (a Bx-value or PEB-key packed into a non-negative
integer) and ``uid`` disambiguates entries that share a key.

Leaf payloads are held *packed*: :class:`PackedValues` keeps every value
of one leaf in a single contiguous ``bytearray`` with a fixed stride,
exactly the column the on-disk page stores, so a band scan can hand a
whole leaf's payload run to a batched decoder (``struct.iter_unpack``)
without ever materializing per-entry ``bytes`` objects.  The class speaks
the list protocol (index, slice, insert, delete, extend, pop), so the
tree's structural code manipulates it exactly like the ``list[bytes]`` it
replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Sentinel page id meaning "no sibling" in the leaf chain.
NO_PAGE = -1

LEAF_TYPE = 1
INTERNAL_TYPE = 2


class PackedValues:
    """Fixed-stride value column backing one leaf's payloads.

    Args:
        stride: byte width of every value (the tree's ``value_bytes``).
        data: initial packed contents — typically a slice of a page
            image; length must be a multiple of ``stride``.
        count: entry count, required only when ``stride`` is 0 (zero
            division of zero bytes is ambiguous); otherwise validated
            against ``len(data) // stride`` when given.

    Every mutator validates chunk width, so a wrong-size value raises
    ``ValueError`` exactly where appending to a checked list would.
    """

    __slots__ = ("stride", "data", "_count")

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
            self._count = derived
        else:
            if self.data:
                raise ValueError("stride-0 column cannot hold payload bytes")
            self._count = count if count is not None else 0

    # ------------------------------------------------------------------
    # Batched access (the scan fast path)
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # list protocol (structural tree code)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def _index(self, i: int) -> int:
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError(f"index {i} out of range for {self._count} values")
        return i

    def _check(self, value: bytes) -> None:
        if len(value) != self.stride:
            raise ValueError(
                f"value is {len(value)} bytes, expected {self.stride}"
            )

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._count)
            if step != 1:
                raise ValueError("packed values support unit-step slices only")
            stop = max(start, stop)
            stride = self.stride
            return PackedValues(
                stride,
                self.data[start * stride : stop * stride],
                count=stop - start,
            )
        i = self._index(i)
        stride = self.stride
        return bytes(self.data[i * stride : (i + 1) * stride])

    def __setitem__(self, i: int, value: bytes) -> None:
        self._check(value)
        i = self._index(i)
        stride = self.stride
        self.data[i * stride : (i + 1) * stride] = value

    def __delitem__(self, i: int) -> None:
        i = self._index(i)
        stride = self.stride
        del self.data[i * stride : (i + 1) * stride]
        self._count -= 1

    def insert(self, i: int, value: bytes) -> None:
        self._check(value)
        if i < 0:
            i = max(0, self._count + i)
        i = min(i, self._count)
        pos = i * self.stride
        self.data[pos:pos] = value
        self._count += 1

    def append(self, value: bytes) -> None:
        self._check(value)
        self.data += value
        self._count += 1

    def extend(self, values: "Iterable[bytes] | PackedValues") -> None:
        if isinstance(values, PackedValues) and values.stride == self.stride:
            self.data += values.data
            self._count += values._count
            return
        for value in values:
            self.append(value)

    def pop(self, i: int = -1) -> bytes:
        i = self._index(i)
        value = self[i]
        del self[i]
        return value

    def __iter__(self) -> Iterator[bytes]:
        stride = self.stride
        if stride == 0:
            for _ in range(self._count):
                yield b""
            return
        data = self.data
        for pos in range(0, self._count * stride, stride):
            yield bytes(data[pos : pos + stride])

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedValues):
            if self.stride == other.stride:
                return self._count == other._count and self.data == other.data
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"PackedValues(stride={self.stride}, count={self._count})"


@dataclass
class LeafNode:
    """A leaf page: sorted ``(key, uid)`` pairs with fixed-width payloads.

    ``keys[i]`` and ``values[i]`` describe one entry.  ``next_leaf`` is the
    page id of the right sibling (:data:`NO_PAGE` at the rightmost leaf).
    ``values`` is a :class:`PackedValues` column on every leaf the
    serializer produces; a plain ``list[bytes]`` is also accepted so
    hand-built fixtures keep working.
    """

    keys: list[tuple[int, int]] = field(default_factory=list)
    values: "PackedValues | list[bytes]" = field(default_factory=list)
    next_leaf: int = NO_PAGE
    is_leaf = True  # a plain class attribute: every descent level reads it

    def __len__(self) -> int:
        return len(self.keys)

    def payload_slice(self, start: int, stop: int) -> bytes:
        """Entries ``[start, stop)`` as one contiguous payload run."""
        values = self.values
        if isinstance(values, PackedValues):
            return values.view(start, stop)
        return b"".join(values[start:stop])


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
