"""Request envelopes for the simulated service front-end.

Every unit of work the service admits — a privacy-aware range query, a
kNN query, or a location update — travels in a :class:`ServiceRequest`
stamped with its *virtual arrival instant*.  The stamp lives on the
same axis as the :class:`repro.simio.clock.SimClock` the storage stack
charges device time to, which is what makes *sojourn* time (batch
finish instant minus arrival instant) a closed quantity: queueing
delay, batching delay, and service time all fall out of one clock with
no real threads involved.

World time (``t_query`` / ``t_update``, the motion model's seconds)
and virtual time (microseconds of simulated I/O) are deliberately
separate axes; the open-loop generator decides how they co-advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

from repro.workloads.queries import KnnQuerySpec, RangeQuerySpec

if TYPE_CHECKING:
    from repro.motion.objects import MovingObject

#: Request class labels, in reporting order.
REQUEST_KINDS = ("range", "knn", "update")


@dataclass(frozen=True)
class ServiceRequest:
    """One admitted unit of work with its virtual arrival stamp.

    Attributes:
        seq: submission index (unique, ascending with arrival).
        arrival_us: virtual arrival instant, relative to the service's
            start (the open-loop generator's time origin).
        kind: ``"range"`` / ``"knn"`` / ``"update"``.
        query: the query spec for query kinds, None for updates.
        update: the re-reported state for updates, None for queries.
        pntp: the update's previous-partition label (updates only).
    """

    seq: int
    arrival_us: float
    kind: str
    query: "RangeQuerySpec | KnnQuerySpec | None" = None
    update: "MovingObject | None" = None
    pntp: int = 0

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if not 0 <= self.arrival_us < inf:
            raise ValueError(
                f"arrival_us must be finite and >= 0, got {self.arrival_us}"
            )
        if self.kind == "update":
            if self.update is None or self.query is not None:
                raise ValueError("update requests carry exactly an update state")
        else:
            if self.query is None or self.update is not None:
                raise ValueError("query requests carry exactly a query spec")

    @property
    def is_update(self) -> bool:
        return self.kind == "update"


def query_request(seq: int, arrival_us: float, spec) -> ServiceRequest:
    """Wrap one query spec, deriving its kind from the spec type."""
    if isinstance(spec, RangeQuerySpec):
        kind = "range"
    elif isinstance(spec, KnnQuerySpec):
        kind = "knn"
    else:
        raise TypeError(f"unsupported query spec {spec!r}")
    return ServiceRequest(seq=seq, arrival_us=arrival_us, kind=kind, query=spec)


def update_request(
    seq: int, arrival_us: float, obj: "MovingObject", pntp: int = 0
) -> ServiceRequest:
    """Wrap one location update."""
    return ServiceRequest(
        seq=seq, arrival_us=arrival_us, kind="update", update=obj, pntp=pntp
    )


__all__ = ["REQUEST_KINDS", "ServiceRequest", "query_request", "update_request"]
