"""Open-loop arrival processes over the existing query workloads.

Every benchmark the repository had before this module was
*closed-loop*: submit a batch, wait for it, read the counters.  A
closed loop can never measure queueing delay, because the load adapts
to the server — the paper's "millions of users" scenario is the
opposite: requests arrive on their own schedule whether the server is
keeping up or not.  :class:`OpenLoopGenerator` produces that schedule:
a mixed query+update request stream drawn from
:class:`repro.workloads.queries.QueryGenerator`'s existing generators,
stamped with virtual arrival instants from one of two processes:

* **poisson** — independent exponential interarrival gaps at a target
  mean rate, the memoryless baseline of open-loop load testing;
* **burst** — the same mean rate delivered in bursts: ``burst_size``
  requests land at one instant, then silence until the next burst.
  Identical throughput, far harsher tail latency — the arrival-process
  sensitivity a latency SLO must survive.

World time co-advances with virtual time through ``duration``: update
timestamps ascend across ``[t_start, t_start + duration)`` (so streams
longer than a partition phase exercise the pipeline's rollover flush)
and queries are issued at ``t_start + duration``, the
:meth:`QueryGenerator.hotspot_stream` convention.
"""

from __future__ import annotations

import random
from math import inf
from typing import TYPE_CHECKING

from repro.service.requests import ServiceRequest, query_request, update_request
from repro.workloads.queries import QueryGenerator

if TYPE_CHECKING:
    from repro.motion.objects import MovingObject

#: Arrival process names accepted by :meth:`OpenLoopGenerator.generate`.
ARRIVAL_PROCESSES = ("poisson", "burst")


def _check_rate(rate_per_sec: float) -> None:
    if not 0 < rate_per_sec < inf:  # NaN compares false: refused
        raise ValueError(
            f"rate_per_sec must be finite and positive, got {rate_per_sec}"
        )


class OpenLoopGenerator:
    """Draws stamped open-loop request streams over a population.

    Args:
        generator: the query/update workload source (its RNG also
            drives the arrival stamps and the query/update shuffle, so
            one seed pins the whole stream).
        states: current population states, as the harness keeps them.
    """

    def __init__(
        self,
        generator: QueryGenerator,
        states: "dict[int, MovingObject]",
        rng: random.Random | None = None,
    ):
        if not states:
            raise ValueError("open-loop generation needs a non-empty population")
        self.generator = generator
        self.states = states
        self.rng = rng if rng is not None else generator.rng

    # ------------------------------------------------------------------
    # Arrival stamps
    # ------------------------------------------------------------------

    def poisson_stamps(self, count: int, rate_per_sec: float) -> list[float]:
        """``count`` ascending instants with exponential gaps (µs)."""
        _check_rate(rate_per_sec)
        mean_gap_us = 1e6 / rate_per_sec
        stamps = []
        now = 0.0
        for _ in range(count):
            now += self.rng.expovariate(1.0 / mean_gap_us)
            stamps.append(now)
        return stamps

    def burst_stamps(
        self, count: int, rate_per_sec: float, burst_size: int
    ) -> list[float]:
        """``count`` instants in bursts at the same mean rate (µs).

        All members of a burst share one arrival instant; bursts are
        spaced so the long-run rate equals ``rate_per_sec``.
        """
        _check_rate(rate_per_sec)
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        period_us = burst_size * 1e6 / rate_per_sec
        return [(index // burst_size) * period_us for index in range(count)]

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------

    def generate(
        self,
        n_requests: int,
        rate_per_sec: float,
        arrival: str = "poisson",
        update_fraction: float = 0.5,
        window_side: float = 200.0,
        k: int = 5,
        knn_fraction: float = 0.25,
        max_speed: float = 3.0,
        t_start: float = 0.0,
        duration: float = 60.0,
        burst_size: int = 16,
    ) -> list[ServiceRequest]:
        """One stamped open-loop stream of mixed query+update traffic.

        ``update_fraction`` of the ``n_requests`` are location updates
        (uniform re-reports, timestamps ascending over ``duration``);
        the rest are queries, of which ``knn_fraction`` are kNN and the
        remainder range queries, interleaved by this generator's RNG.
        """
        if n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {n_requests}")
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError(
                f"update_fraction must be in [0, 1], got {update_fraction}"
            )
        if arrival == "poisson":
            stamps = self.poisson_stamps(n_requests, rate_per_sec)
        elif arrival == "burst":
            stamps = self.burst_stamps(n_requests, rate_per_sec, burst_size)
        else:
            raise ValueError(
                f"unknown arrival process {arrival!r}; known: {ARRIVAL_PROCESSES}"
            )

        n_updates = round(n_requests * update_fraction)
        n_queries = n_requests - n_updates
        updates = self.generator.update_stream(
            self.states, n_updates, max_speed, t_start, duration
        )
        queries = self.generator.mixed_queries(
            self.states,
            n_queries,
            window_side,
            k,
            t_query=t_start + duration,
            range_fraction=1.0 - knn_fraction,
        )

        kinds = ["update"] * n_updates + ["query"] * n_queries
        self.rng.shuffle(kinds)
        update_iter = iter(updates)
        query_iter = iter(queries)
        requests = []
        for seq, (arrival_us, kind) in enumerate(zip(stamps, kinds)):
            if kind == "update":
                requests.append(update_request(seq, arrival_us, next(update_iter)))
            else:
                requests.append(query_request(seq, arrival_us, next(query_iter)))
        return requests


__all__ = ["ARRIVAL_PROCESSES", "OpenLoopGenerator"]
