"""Moving objects and their on-disk record format.

A PEB-tree leaf entry is ``<PEB_key, UID, x, y, vx, vy, t, Pntp>``
(Section 5.2).  The key and UID live in the B+-tree's key and uid
columns, once; the remaining fields form the fixed-width payload packed
by :class:`ObjectRecordCodec`, and decoding takes the UID back from the
``(key, uid)`` pairs a leaf scan returns beside the payload run.  The
same payload serves the Bx-tree baseline (with ``pntp`` unused), so both
indexes pay the same bytes per object — their leaf fan-outs differ only
by key width — and the I/O comparison is apples-to-apples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MovingObject:
    """The object triple ``(x, v, tu)`` plus identity.

    Attributes:
        uid: user id (unique, non-negative, < 2**32).
        x, y: position at the time of the last update.
        vx, vy: velocity at the time of the last update.
        t_update: time of the last update (``tu`` in the paper).
    """

    uid: int
    x: float
    y: float
    vx: float
    vy: float
    t_update: float

    def position_at(self, t: float) -> tuple[float, float]:
        """Predicted position ``x + v (t - tu)``."""
        dt = t - self.t_update
        return self.x + self.vx * dt, self.y + self.vy * dt

    def moved_to(self, x: float, y: float, vx: float, vy: float, t: float) -> MovingObject:
        """A new object state after an update at time ``t``."""
        return replace(self, x=x, y=y, vx=vx, vy=vy, t_update=t)

    @property
    def speed(self) -> float:
        """Scalar speed."""
        return (self.vx * self.vx + self.vy * self.vy) ** 0.5


class ObjectRecordCodec:
    """Fixed-width codec for the moving-object leaf payload.

    Layout (big-endian): ``x:f64 y:f64 vx:f64 vy:f64 t:f64 pntp:u32`` —
    44 bytes: the paper's entry with the UID stored once, in the leaf's
    uid column, so every decode takes the UID from the ``(key, uid)``
    pairs beside the payload.  Positions are stored at full double
    precision so query verification reproduces the exact linear function
    the object reported; the four extra bytes per entry versus a float32
    layout cost both indexes identically.
    """

    _RECORD = struct.Struct(">dddddI")

    #: Payload width in bytes.
    SIZE = _RECORD.size

    def pack(self, obj: MovingObject, pntp: int = 0) -> bytes:
        """Serialize an object state (``pntp`` is the policy-set link)."""
        return self._RECORD.pack(obj.x, obj.y, obj.vx, obj.vy, obj.t_update, pntp)

    def unpack(self, uid: int, payload: bytes) -> tuple[MovingObject, int]:
        """Deserialize the payload of user ``uid`` into ``(state, pntp)``."""
        x, y, vx, vy, t_update, pntp = self._RECORD.unpack(payload)
        return MovingObject(uid=uid, x=x, y=y, vx=vx, vy=vy, t_update=t_update), pntp

    def unpack_records(self, keys: list[tuple[int, int]], run: bytes) -> list[tuple]:
        """Decode a leaf run — its ``(key, uid)`` pairs and contiguous
        payload run — into raw field tuples.

        One C-level pass (``struct.iter_unpack``) over ``len(run) / 44``
        consecutive records; each tuple is ``(uid, x, y, vx, vy,
        t_update, pntp)``.  The batched scan path operates on these
        directly, materializing :class:`MovingObject` states lazily and
        only for entries that reach a query result.
        """
        return [
            (uid, x, y, vx, vy, t_update, pntp)
            for (_, uid), (x, y, vx, vy, t_update, pntp) in zip(
                keys, self._RECORD.iter_unpack(run)
            )
        ]

    def unpack_many(
        self, keys: list[tuple[int, int]], run: bytes
    ) -> list[tuple[MovingObject, int]]:
        """Decode a leaf run into ``(object, pntp)`` pairs.

        The eager batched twin of calling :meth:`unpack` per entry —
        one ``iter_unpack`` pass instead of a Struct call per record.
        """
        return [
            (MovingObject(uid, x, y, vx, vy, t_update), pntp)
            for (_, uid), (x, y, vx, vy, t_update, pntp) in zip(
                keys, self._RECORD.iter_unpack(run)
            )
        ]
