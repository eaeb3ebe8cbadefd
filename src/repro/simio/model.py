"""Device latency profiles and the access-cost model.

Every number the repository reported before this subsystem existed was
a *count* — physical reads and writes.  Counts cannot see overlap: a
scatter/gather scan that drives four shard disks concurrently pays the
same number of page transfers as a serial scan, but a quarter of the
wall-clock.  :class:`LatencyModel` assigns each page access a cost in
*virtual microseconds*, derived from a :class:`DeviceProfile`:

* **seek** — positioning cost paid before a random access (head seek
  plus rotational delay on a disk; command setup on flash);
* **per-page transfer** — the cost of moving one page once positioned,
  separately for reads and writes (flash programs slower than it
  reads);
* **sequential-run discount** — an access to the same or the next page
  id as the device's previous access skips the seek, which is what
  makes the leaf-ordered batch sweeps and merged band scans cheaper in
  time, not just in counts.

The three built-in profiles are deliberately round-number caricatures
of the device classes, not measurements of any product: what matters
for the experiments is the *ratio* between seek and transfer (huge on
``hdd``, small on ``nvme``), because that ratio decides how much
overlapped scheduling and sequential layout pay.

``verify_us`` is the one CPU cost the model carries: the per-candidate
price of locating and policy-checking one scanned entry.  It lets the
batch executor pipeline verification with scanning in virtual time —
without it, verification would be free and pipelining unmeasurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

#: Default CPU cost of verifying one candidate (position_at +
#: store.evaluate + window test), in virtual microseconds.
DEFAULT_VERIFY_US = 2.0


@dataclass(frozen=True)
class DeviceProfile:
    """Cost parameters of one simulated device class (microseconds).

    Attributes:
        name: profile name (``"hdd"`` / ``"ssd"`` / ``"nvme"``).
        seek_us: positioning cost before a non-sequential page access.
        read_us: per-page transfer cost of a read, once positioned.
        write_us: per-page transfer cost of a write, once positioned.
    """

    name: str
    seek_us: float
    read_us: float
    write_us: float

    def __post_init__(self):
        for field_name in ("seek_us", "read_us", "write_us"):
            value = getattr(self, field_name)
            if not 0 <= value < inf:  # NaN compares false: refused
                raise ValueError(f"{field_name} must be finite and >= 0, got {value}")


#: The built-in device classes.  A 4 KiB page on a ~130 MB/s spinning
#: disk transfers in ~30 us but costs ~8 ms to reach; flash collapses
#: the seek, NVMe nearly erases it.
PROFILES: dict[str, DeviceProfile] = {
    "hdd": DeviceProfile("hdd", seek_us=8000.0, read_us=30.0, write_us=30.0),
    "ssd": DeviceProfile("ssd", seek_us=60.0, read_us=10.0, write_us=25.0),
    "nvme": DeviceProfile("nvme", seek_us=10.0, read_us=3.0, write_us=6.0),
}


class LatencyModel:
    """Turns page accesses into virtual-time costs for one profile."""

    def __init__(self, profile: DeviceProfile | str, verify_us: float = DEFAULT_VERIFY_US):
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError:
                raise ValueError(
                    f"unknown latency profile {profile!r}; "
                    f"known: {', '.join(sorted(PROFILES))}"
                ) from None
        if not 0 <= verify_us < inf:
            raise ValueError(f"verify_us must be finite and >= 0, got {verify_us}")
        self.profile = profile
        self.verify_us = verify_us

    @property
    def name(self) -> str:
        return self.profile.name

    def access_cost(
        self, kind: str, page_id: int, last_page: int | None
    ) -> tuple[float, bool]:
        """``(cost_us, sequential)`` of one page access on one device.

        Args:
            kind: ``"read"`` or ``"write"``.
            page_id: page being accessed.
            last_page: the device's previously accessed page, or None
                for a cold device.

        An access to the same page or the immediately following one
        rides the sequential run and skips the seek.
        """
        if kind == "read":
            transfer = self.profile.read_us
        elif kind == "write":
            transfer = self.profile.write_us
        else:
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        sequential = last_page is not None and last_page <= page_id <= last_page + 1
        if sequential:
            return transfer, True
        return self.profile.seek_us + transfer, False


def make_latency_model(
    latency: "LatencyModel | DeviceProfile | str", verify_us: float = DEFAULT_VERIFY_US
) -> LatencyModel:
    """Coerce a profile name / profile / model into a :class:`LatencyModel`."""
    if isinstance(latency, LatencyModel):
        return latency
    return LatencyModel(latency, verify_us=verify_us)


__all__ = [
    "DEFAULT_VERIFY_US",
    "DeviceProfile",
    "LatencyModel",
    "PROFILES",
    "make_latency_model",
]
