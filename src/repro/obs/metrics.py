"""One labelled metrics namespace over the per-layer stats dialects.

Each layer already aggregates its own dataclass (``ExecutionStats``,
``UpdateStats``, ``ServiceStats``, ``FaultStats``, ``ShardStats``,
plus the storage/simio counters) with its own ``snapshot()`` shape.
:class:`MetricsRegistry` gives them a shared vocabulary — counters,
gauges, and histograms keyed by dotted name plus sorted key=value
labels — and each stats class gains a small ``publish(registry,
**labels)`` method that maps its fields into it.  One
``registry.snapshot()`` then answers "what happened in this run"
across every layer, and rides inside an exported trace's
``otherData.metrics``.

Metric names are documented in ``docs/OBSERVABILITY.md``; the
convention is ``<layer>.<field>`` with per-entity dimensions (shard
index, request class) expressed as labels rather than name suffixes.
"""

from __future__ import annotations

import math


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render(key: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


def nearest_rank(n: int, fraction: float) -> int:
    """1-based nearest-rank position of ``fraction`` in ``n`` ordered
    samples: ``ceil(fraction * n)``, at least 1.  The one percentile
    rule of the repository — sojourn summaries, histogram snapshots and
    trace exemplars all index through it."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return max(1, math.ceil(fraction * n))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 when empty)."""
    rank = nearest_rank(len(values), fraction)
    if not values:
        return 0.0
    return sorted(values)[rank - 1]


class MetricsRegistry:
    """Labelled counters, gauges, and histograms.

    Counters are monotone (negative increments raise), gauges hold the
    last set value, histograms keep every observation and summarize on
    snapshot.  Labels are free-form keyword arguments; the same metric
    name may carry any number of label combinations.
    """

    def __init__(self) -> None:
        self._counters: dict[str, dict[tuple, float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._histograms: dict[str, dict[tuple, list[float]]] = {}

    # -- writes --------------------------------------------------------

    def counter(self, name: str, amount: float = 1, **labels) -> None:
        """Add ``amount`` (>= 0) to the counter ``name`` at ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {name} increment must be >= 0, got {amount}")
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + float(amount)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name`` at ``labels`` to ``value``."""
        self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into the histogram ``name``."""
        series = self._histograms.setdefault(name, {})
        series.setdefault(_label_key(labels), []).append(float(value))

    # -- reads ---------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels) -> float | None:
        return self._gauges.get(name, {}).get(_label_key(labels))

    def observations(self, name: str, **labels) -> list[float]:
        return list(self._histograms.get(name, {}).get(_label_key(labels), []))

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """One JSON-ready dict over every metric and label combination."""
        counters = {
            name: {_render(key): value for key, value in sorted(series.items())}
            for name, series in sorted(self._counters.items())
        }
        gauges = {
            name: {_render(key): value for key, value in sorted(series.items())}
            for name, series in sorted(self._gauges.items())
        }
        histograms = {}
        for name, series in sorted(self._histograms.items()):
            histograms[name] = {}
            for key, values in sorted(series.items()):
                ordered = sorted(values)
                histograms[name][_render(key)] = {
                    "count": len(ordered),
                    "sum": sum(ordered),
                    "min": ordered[0] if ordered else 0.0,
                    "max": ordered[-1] if ordered else 0.0,
                    "mean": sum(ordered) / len(ordered) if ordered else 0.0,
                    "p50": percentile(ordered, 0.5),
                    "p95": percentile(ordered, 0.95),
                    "p99": percentile(ordered, 0.99),
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


__all__ = ["MetricsRegistry", "nearest_rank", "percentile"]
