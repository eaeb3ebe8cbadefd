"""Virtual time with per-device serialization and fork/join contexts.

:class:`SimClock` is the heart of the simulated-latency subsystem.  It
models time the way a discrete-event simulator does, but driven
*inline* by the code under measurement instead of by an event queue:

* The executing **context** (the caller, or one job of an
  :class:`repro.simio.scheduler.IOScheduler` fan-out) has a cursor of
  virtual microseconds.  Jobs run one at a time, so the clock keeps a
  single cursor and the scheduler repositions it per job
  (:meth:`set_cursor`).  CPU work advances only the cursor
  (:meth:`advance`).
* Every **device** owns a timeline: the instant it next becomes free,
  plus the last page it accessed (the sequential-run state the
  :class:`repro.simio.model.LatencyModel` discounts against).  A page
  access (:meth:`charge`) starts at ``max(context cursor, device
  free)`` — concurrent contexts touching *distinct* devices overlap,
  while accesses to the *same* device serialize on its timeline — and
  advances both cursor and device to the finish instant.
* The **horizon** (:attr:`elapsed`) is the latest instant any context
  or device has reached: the simulated wall clock.  Phase timings are
  deltas of the horizon, exactly like the counter deltas the I/O stats
  already support.

Fork/join (:meth:`set_cursor` / :meth:`join`) is what makes overlap
*measurable without real parallelism*: the scheduler captures the
parent cursor, starts every job's context there, and joins the parent
to the maximum job end.  The jobs run one after another on the calling
thread, yet virtual elapsed time is the max over them, not the sum —
and independent of the order they ran in, as long as concurrent jobs
touch disjoint devices (which is how the shard layer uses it: one disk
per shard).

Nothing here is synchronized: the whole stack is single-threaded by
design (``tests/test_service.py::test_serving_path_starts_no_thread``
pins that no layer starts a thread), and a clock shared between real
threads would interleave their cursors.
"""

from __future__ import annotations

from math import inf


class SimClock:
    """Virtual time over any number of simulated devices."""

    def __init__(self) -> None:
        self._cursor = 0.0
        self._device_free: list[float] = []
        self._device_last_page: list[int | None] = []
        self._device_names: list[str] = []
        self._horizon = 0.0

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------

    def register_device(self, name: str | None = None) -> int:
        """Add a device timeline; returns its handle."""
        handle = len(self._device_free)
        self._device_free.append(0.0)
        self._device_last_page.append(None)
        self._device_names.append(name if name is not None else f"dev{handle}")
        return handle

    def device_name(self, device: int) -> str:
        return self._device_names[device]

    def device_free_at(self, device: int) -> float:
        """The instant the device's timeline next becomes free."""
        return self._device_free[device]

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------

    def cursor(self) -> float:
        """The calling context's current virtual instant."""
        return self._cursor

    def set_cursor(self, t: float) -> None:
        """Reposition the calling context (the scheduler's fork)."""
        self._cursor = t

    def advance(self, dt: float) -> float:
        """Charge CPU work to the calling context; returns the new cursor.

        CPU time touches no device timeline — two forked contexts both
        advancing overlap fully.
        """
        if not 0 <= dt < inf:  # a NaN cursor never compares again
            raise ValueError(f"dt must be finite and >= 0, got {dt}")
        t = self._cursor = self._cursor + dt
        if t > self._horizon:
            self._horizon = t
        return t

    def join(self, ends: "list[float] | tuple[float, ...]") -> float:
        """Advance the calling context to the latest of several ends."""
        t = self._cursor = max(self._cursor, *ends) if ends else self._cursor
        if t > self._horizon:
            self._horizon = t
        return t

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def charge(self, device: int, kind: str, page_id: int, model) -> tuple[float, bool]:
        """Charge one page access; returns ``(cost_us, sequential)``.

        The access starts when both the calling context and the device
        are free, runs for the model's cost (computed against the
        device's sequential-run state), and advances context, device
        timeline, and horizon to the finish instant.
        """
        cost, sequential = model.access_cost(
            kind, page_id, self._device_last_page[device]
        )
        free = self._device_free[device]
        end = (self._cursor if self._cursor > free else free) + cost
        self._device_free[device] = end
        self._device_last_page[device] = page_id
        if end > self._horizon:
            self._horizon = end
        self._cursor = end
        return cost, sequential

    # ------------------------------------------------------------------
    # Reading time
    # ------------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """The simulated wall clock: the latest instant reached anywhere.

        Monotonic for the clock's lifetime; measure phases as deltas,
        the way the I/O counters are read.
        """
        return self._horizon


__all__ = ["SimClock"]
