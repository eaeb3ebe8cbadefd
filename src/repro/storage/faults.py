"""Failure injection for the storage substrate.

The I/O numbers of the reproduction only mean something if the storage
stack is *honest* — a tree that silently tolerates lost writes or
corrupted pages would also silently tolerate bugs in its own fan-out
arithmetic.  Two wrappers make dishonesty loud:

* :class:`FaultyDisk` — injects read/write failures on a schedule
  (explicit page ids, every N-th access, a :class:`FaultSchedule`, or
  never).  Index code must surface the resulting
  :class:`DiskFaultError` unchanged; tests then verify the index still
  answers correctly once the fault clears (no partial state was kept).
* :class:`ChecksummedDisk` — guards every page image with CRC-32 and
  raises :class:`CorruptPageError` when a read does not match what was
  written.  The test hook :meth:`ChecksummedDisk.corrupt` flips a bit in
  a stored image to prove detection actually happens.

Deterministic fault *schedules* extend the explicit page sets for the
fault-tolerance layer (:mod:`repro.fault`):

* :class:`TransientFaultSchedule` — an explicit, finite set of failing
  access attempt indices.  Because the set is finite, the schedule
  *eventually clears* by construction, which is exactly the hypothesis
  the retry property tests generate over.
* :class:`FaultWindowSchedule` — faults while the calling context's
  cursor on a :class:`repro.simio.clock.SimClock` lies inside a
  virtual-time window; retry backoff (priced on the same clock) is
  what moves a context past the window.

Checksum verification happens on *physical reads only*: the
:class:`repro.storage.buffer.BufferPool` caches deserialized node
objects, so a pool hit never touches the disk and therefore never
re-verifies the stored image.  A page corrupted on disk *after* it was
cached is masked until the frame is evicted and re-read — detection is
a property of the physical read path, not of every logical access.
The fault-tolerance tests pin this invariant; recovery paths that need
a verified image must drop the cached frame (``pool.invalidate()`` /
``pool.discard``) before re-reading.  The decode the pool remembers for
a page it evicted does not widen that window: every miss still runs the
physical read through this stack first, so an injected fault or a
checksum mismatch raises before the remembered pair is looked at, and a
page altered on disk no longer compares equal to the remembered image
(``tests/test_storage_buffer.py`` pins both).
"""

from __future__ import annotations

import zlib

from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IOStats


class DiskFaultError(IOError):
    """An injected I/O failure (the simulated medium misbehaved)."""


class CorruptPageError(IOError):
    """A page image failed checksum verification."""


class FaultSchedule:
    """Deterministic fault oracle: should this access attempt fail?

    Subclasses decide from the access ``kind`` (``"read"`` /
    ``"write"``), the ``page_id``, and the 1-based per-kind ``attempt``
    counter — pure state the disk already tracks, so a schedule replays
    identically run after run.  The base class never fails.
    """

    def should_fail(self, kind: str, page_id: int, attempt: int) -> bool:
        return False


class TransientFaultSchedule(FaultSchedule):
    """Fail an explicit, finite set of access attempts, then clear.

    Args:
        fail_reads: 1-based read attempt indices that fail.
        fail_writes: 1-based write attempt indices that fail.

    Finite sets make "eventually clears" structural: once the disk's
    attempt counters pass :attr:`max_failing_attempt`, every access
    succeeds — which is what lets hypothesis generate arbitrary
    instances and still guarantee a retried run terminates.
    """

    def __init__(self, fail_reads=(), fail_writes=()):
        self.fail_reads = frozenset(fail_reads)
        self.fail_writes = frozenset(fail_writes)
        if any(a < 1 for a in self.fail_reads | self.fail_writes):
            raise ValueError("attempt indices are 1-based; got an index < 1")

    @property
    def max_failing_attempt(self) -> int:
        """The last failing attempt index (0 when the schedule is empty)."""
        return max(self.fail_reads | self.fail_writes, default=0)

    def should_fail(self, kind: str, page_id: int, attempt: int) -> bool:
        failing = self.fail_reads if kind == "read" else self.fail_writes
        return attempt in failing

    def __repr__(self) -> str:
        return (
            f"TransientFaultSchedule(fail_reads={sorted(self.fail_reads)}, "
            f"fail_writes={sorted(self.fail_writes)})"
        )


class FaultWindowSchedule(FaultSchedule):
    """Fail every access inside a virtual-time window ``[start, end)``.

    Args:
        clock: the :class:`repro.simio.clock.SimClock` whose *calling
            context's cursor* decides window membership — share the
            deployment's clock so backoff and device time move contexts
            through the window.
        start_us / end_us: window bounds in virtual microseconds.
        kinds: access kinds the window affects.
    """

    def __init__(
        self,
        clock,
        start_us: float,
        end_us: float,
        kinds: tuple[str, ...] = ("read", "write"),
    ):
        if end_us < start_us:
            raise ValueError(f"window end {end_us} before start {start_us}")
        self.clock = clock
        self.start_us = start_us
        self.end_us = end_us
        self.kinds = tuple(kinds)

    def should_fail(self, kind: str, page_id: int, attempt: int) -> bool:
        if kind not in self.kinds:
            return False
        return self.start_us <= self.clock.cursor() < self.end_us


class FaultyDisk(SimulatedDisk):
    """A disk that fails on demand.

    Args:
        page_size: page image size limit, as in the base disk.
        stats: shared counters, as in the base disk.
        fail_read_pages: page ids whose reads always fail.
        fail_write_pages: page ids whose writes always fail.
        fail_every_nth_read: if set, every N-th physical read fails
            (1-based: ``fail_every_nth_read=3`` fails reads 3, 6, 9, ...).
        schedule: a :class:`FaultSchedule` consulted per access with the
            disk's attempt counters (composes with the explicit sets).

    A failed access raises *before* touching the page store and charges
    no I/O — the paper's cost accounting counts completed transfers.
    """

    def __init__(
        self,
        page_size: int = 4096,
        stats: IOStats | None = None,
        fail_read_pages: set[int] | None = None,
        fail_write_pages: set[int] | None = None,
        fail_every_nth_read: int | None = None,
        schedule: FaultSchedule | None = None,
    ):
        super().__init__(page_size=page_size, stats=stats)
        if fail_every_nth_read is not None and fail_every_nth_read < 1:
            raise ValueError(
                f"fail_every_nth_read must be >= 1, got {fail_every_nth_read}"
            )
        self.fail_read_pages = set(fail_read_pages or ())
        self.fail_write_pages = set(fail_write_pages or ())
        self.fail_every_nth_read = fail_every_nth_read
        self.schedule = schedule
        self._read_attempts = 0
        self._write_attempts = 0
        self.injected_faults = 0

    def read(self, page_id: int) -> bytes:
        self._read_attempts += 1
        if page_id in self.fail_read_pages:
            self.injected_faults += 1
            raise DiskFaultError(f"injected read fault on page {page_id}")
        if (
            self.fail_every_nth_read is not None
            and self._read_attempts % self.fail_every_nth_read == 0
        ):
            self.injected_faults += 1
            raise DiskFaultError(
                f"injected read fault (attempt #{self._read_attempts})"
            )
        if self.schedule is not None and self.schedule.should_fail(
            "read", page_id, self._read_attempts
        ):
            self.injected_faults += 1
            raise DiskFaultError(
                f"scheduled read fault on page {page_id} "
                f"(attempt #{self._read_attempts})"
            )
        return super().read(page_id)

    def write(self, page_id: int, image: bytes) -> None:
        self._write_attempts += 1
        if page_id in self.fail_write_pages:
            self.injected_faults += 1
            raise DiskFaultError(f"injected write fault on page {page_id}")
        if self.schedule is not None and self.schedule.should_fail(
            "write", page_id, self._write_attempts
        ):
            self.injected_faults += 1
            raise DiskFaultError(
                f"scheduled write fault on page {page_id} "
                f"(attempt #{self._write_attempts})"
            )
        super().write(page_id, image)

    def heal(self) -> None:
        """Clear every configured fault (the medium recovered).

        The attempt counters reset too, so a re-armed
        ``fail_every_nth_read`` or attempt-indexed schedule restarts
        deterministically from attempt 1 instead of continuing from
        wherever the pre-fault counter happened to be.
        """
        self.fail_read_pages.clear()
        self.fail_write_pages.clear()
        self.fail_every_nth_read = None
        self.schedule = None
        self._read_attempts = 0
        self._write_attempts = 0


class ChecksummedDisk(SimulatedDisk):
    """A disk that detects torn or corrupted page images via CRC-32.

    Detection happens on physical reads only — see the module
    docstring for the buffer-pool cache-hit caveat.
    """

    def __init__(self, page_size: int = 4096, stats: IOStats | None = None):
        super().__init__(page_size=page_size, stats=stats)
        self._checksums: dict[int, int] = {}

    def write(self, page_id: int, image: bytes) -> None:
        super().write(page_id, image)
        self._checksums[page_id] = zlib.crc32(image)

    def read(self, page_id: int) -> bytes:
        image = super().read(page_id)
        expected = self._checksums.get(page_id)
        if expected is not None and zlib.crc32(image) != expected:
            raise CorruptPageError(
                f"page {page_id}: checksum mismatch (stored image was altered)"
            )
        return image

    def free(self, page_id: int) -> None:
        super().free(page_id)
        self._checksums.pop(page_id, None)

    def corrupt(self, page_id: int, bit: int = 0) -> None:
        """Flip one bit of the stored image (test hook).

        Args:
            page_id: page to damage; must hold an image.
            bit: bit offset within the image to flip.
        """
        image = bytearray(self._pages[page_id])
        byte_index, bit_index = divmod(bit, 8)
        if byte_index >= len(image):
            raise ValueError(
                f"bit {bit} beyond page image of {len(image)} bytes"
            )
        image[byte_index] ^= 1 << bit_index
        # Bypass write() so the checksum records the *original* image.
        self._pages[page_id] = bytes(image)
