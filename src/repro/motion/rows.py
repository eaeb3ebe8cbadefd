"""Columnar band-scan rows: the packed result of one band scan.

A band scan used to yield ``(zv, MovingObject)`` tuples one entry at a
time, constructing a frozen dataclass per scanned record whether or not
the query ever looked at it.  :class:`BandRows` keeps the scan's output
as parallel columns instead — the masked Z-values and the raw decoded
record tuples ``(uid, x, y, vx, vy, t_update, pntp)`` — and materializes
a :class:`~repro.motion.objects.MovingObject` only when a consumer asks
for one (:meth:`object_at`), caching it so repeated access across a
batch's replays builds each object at most once.

The engine reads the columns; iterating a :class:`BandRows` yields the
``(zv, object)`` pairs of the paper-literal per-entry scan
(``PEBTree.scan_band``) in key order, which is how the tests compare
the two.  :meth:`BandRows.slice` returns another :class:`BandRows`
sharing the already-materialized objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.motion.objects import MovingObject


#: The column of every :meth:`BandRows.empty` result.
_NO_COLUMN: list = []


class BandRows:
    """One band's scan result as parallel packed columns.

    Attributes:
        zvs: Z-value per row, ascending (scan order is key order).
        records: raw decoded record tuple per row —
            ``(uid, x, y, vx, vy, t_update, pntp)``.
        proven: set by a single-SV tree scan only — the widest Z-interval
            ``(z_lo, z_hi)`` of the scanned ``(tid, sv_q)`` stratum that
            the scan proved to hold exactly these rows (it contains the
            requested band; see ``PEBTree.scan_band_rows``).  None on
            slices, concatenations, and scans that prove nothing.
        landed: set by a timed batch prefetch only — the virtual
            instant, on the fetching shard job's timeline, at which the
            last fetched key of these rows' ``(tid, sv_q)`` stratum
            landed; None otherwise.
    """

    __slots__ = ("zvs", "records", "_objects", "proven", "landed")

    def __init__(
        self,
        zvs: list[int],
        records: list[tuple],
        _objects: "list[MovingObject | None] | None" = None,
    ):
        self.zvs = zvs
        self.records = records
        self._objects = (
            _objects if _objects is not None else [None] * len(records)
        )
        self.proven: "tuple[int, int] | None" = None
        self.landed: "float | None" = None

    @classmethod
    def empty(cls) -> "BandRows":
        """No rows, and no per-row columns: every empty result shares
        one empty list, which nothing appends to (rows are never
        mutated in place, and an empty row set caches no object)."""
        rows = cls.__new__(cls)
        rows.zvs = rows.records = rows._objects = _NO_COLUMN
        rows.proven = rows.landed = None
        return rows

    @classmethod
    def concat(cls, parts: "Iterable[BandRows]") -> "BandRows":
        """Concatenate per-shard / per-interval results in given order.

        Materialized objects travel with their rows, so nothing built
        before the concat is rebuilt after it.
        """
        parts = list(parts)
        if len(parts) == 1:
            return parts[0]
        zvs: list[int] = []
        records: list[tuple] = []
        objects: "list[MovingObject | None]" = []
        for part in parts:
            zvs += part.zvs
            records += part.records
            objects += part._objects
        return cls(zvs, records, objects)

    # ------------------------------------------------------------------
    # Columnar access (the batched fast path)
    # ------------------------------------------------------------------

    def uid_at(self, i: int) -> int:
        return self.records[i][0]

    def object_at(self, i: int) -> MovingObject:
        """Row ``i``'s object state, built on first access and cached."""
        obj = self._objects[i]
        if obj is None:
            uid, x, y, vx, vy, t_update, _ = self.records[i]
            obj = MovingObject(uid, x, y, vx, vy, t_update)
            self._objects[i] = obj
        return obj

    def objects(self) -> list[MovingObject]:
        """Every row's object state, in scan order."""
        return [self.object_at(i) for i in range(len(self.records))]

    def slice(self, lo: int, hi: int) -> "BandRows":
        """Rows ``[lo, hi)`` as a new view sharing cached objects."""
        return BandRows(self.zvs[lo:hi], self.records[lo:hi], self._objects[lo:hi])

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple[int, MovingObject]]:
        """``(zv, object)`` pairs in key order, as a per-entry scan yields."""
        for i in range(len(self.records)):
            yield self.zvs[i], self.object_at(i)

    def __eq__(self, other) -> bool:
        if isinstance(other, BandRows):
            return self.zvs == other.zvs and self.records == other.records
        return NotImplemented

    __hash__ = None  # mutable object cache

    def __repr__(self) -> str:
        return f"BandRows({len(self.records)} rows)"


__all__ = ["BandRows"]
