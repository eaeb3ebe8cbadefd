"""One declaration behind every stats dialect.

The paper's evaluation is one counter — physical page reads per query —
and every layer around the PEB-tree keeps more of the same kind: a
dataclass of numbers that is snapshotted into benchmark JSON, published
into a :class:`repro.obs.metrics.MetricsRegistry`, copied as a
baseline, differenced against one, and summed across shards.
:class:`CounterSet` derives all of that from the dataclass's own field
list, read once when the class is created:

* a bare numeric default (``physical_reads: int = 0``) declares a
  **counter** — ``registry.counter``, and the only kind that
  ``delta_from``, ``+``, ``reset`` and :class:`LiveSum` do arithmetic on;
* :func:`gauge` declares a point-in-time value — ``registry.gauge``,
  carried as it is, never differenced or summed;
* :func:`nested` declares an optional child set that snapshots,
  publishes (same labels, its own prefix) and combines itself;
* any other dataclass field is reported by ``snapshot()`` only;
* a :class:`derived` property rides along in ``snapshot()`` and, as a
  gauge, in ``publish()``.

The counters stay plain instance attributes: ``stats.reads += 1`` on a
page path costs what it always did.  Nothing here imports the package,
so the storage layer can use it.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import MISSING, Field, field

_KIND = "counter_set.kind"


def counter(default=MISSING, *, name: str | None = None, as_gauge: bool = False):
    """Declare a counter that a bare default cannot: one without a
    default (a per-shard tuple), published under another ``name``, or
    an accumulated total the registry exposes ``as_gauge``."""
    return field(
        default=default,
        metadata={_KIND: "counter", "name": name, "as_gauge": as_gauge},
    )


def gauge(default=MISSING):
    """Declare a point-in-time field (published as a gauge)."""
    return field(default=default, metadata={_KIND: "gauge"})


def nested():
    """Declare an optional child counter set (None when absent)."""
    return field(default=None, metadata={_KIND: "nested"})


class derived(property):
    """A computed property reported by ``snapshot()`` and published as a
    gauge, so a ratio is declared where it is defined."""

    snapshotted = published = True


class published_only(derived):
    """A :class:`derived` property kept out of ``snapshot()``."""

    snapshotted = False


class snapshot_only(derived):
    """A :class:`derived` property kept out of ``publish()``."""

    published = False


def _plain(value):
    """JSON-ready form of one field value."""
    if isinstance(value, CounterSet):
        return value.snapshot()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items())}
    return value


def _snapshot(kind: type, source) -> dict:
    return {name: _plain(getattr(source, name)) for name in kind._reported}


def _publish(kind: type, source, registry, labels: dict) -> None:
    for attr, name, emit in kind._published:
        value = getattr(source, attr)
        send = getattr(registry, emit)
        if isinstance(value, tuple):
            for shard, item in enumerate(value):
                send(name, item, shard=shard, **labels)
        else:
            send(name, value, **labels)


class CounterSet:
    """Base of the stats dataclasses (see the module docstring).

    ``prefix="<layer>."`` names what the class publishes; without one
    it is a snapshot-only record.  Frozen dataclasses work too:
    everything but :meth:`reset` returns new objects.
    """

    def __init_subclass__(cls, prefix: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        counters, nested_sets, reported, published = [], [], [], []
        for attr in cls.__dict__.get("__annotations__", {}):
            if attr.startswith("_"):
                continue
            default = cls.__dict__.get(attr, MISSING)
            meta = default.metadata if isinstance(default, Field) else {}
            kind = meta.get(_KIND)
            if kind is None and type(default) in (int, float):
                kind = "counter"
            reported.append(attr)
            if kind == "nested":
                nested_sets.append(attr)
            elif kind is not None:
                if kind == "counter":
                    counters.append(attr)
                emit = "gauge" if meta.get("as_gauge") else kind
                published.append((attr, meta.get("name") or attr, emit))
        for attr, value in cls.__dict__.items():
            if isinstance(value, derived):
                if value.snapshotted:
                    reported.append(attr)
                if value.published:
                    published.append((attr, attr, "gauge"))
        cls._counters = tuple(counters)
        cls._nested = tuple(nested_sets)
        cls._reported = tuple(reported)
        cls._published = tuple(
            (attr, prefix + name, emit)
            for attr, name, emit in (published if prefix is not None else ())
        )

    @classmethod
    def metric_names(cls) -> dict[str, str]:
        """``{published name: "counter" | "gauge"}`` of this class's own
        metrics (nested sets publish under their own prefixes)."""
        return {name: emit for _, name, emit in cls._published}

    def snapshot(self) -> dict:
        """JSON-ready form: every public field, then the derived values."""
        return _snapshot(type(self), self)

    def publish(self, registry, **labels) -> None:
        """Publish into a ``MetricsRegistry`` under the class prefix.

        Tuple-valued fields become one series per position, labelled
        ``shard=<i>``; nested counter sets publish themselves.
        """
        _publish(type(self), self, registry, labels)
        for attr in self._nested:
            child = getattr(self, attr)
            if child is not None:
                child.publish(registry, **labels)

    def copy(self):
        """A point-in-time copy sharing no state (the delta baseline)."""
        return copy.deepcopy(self)

    def delta_from(self, before):
        """What accrued since ``before`` (a :meth:`copy` taken earlier).

        Counters are differenced — per position for per-shard tuples,
        which must agree in length — and nested sets likewise; gauges
        and every other field stay as they are now.
        """
        return self._combined(before, operator.sub)

    def __add__(self, other):
        """Counters summed; gauges and other fields are the left side's,
        so ``delta + accrued`` keeps the delta's point-in-time values.
        There is no in-place form: ``a += b`` rebinds ``a`` to the sum,
        which is also what a frozen set needs."""
        return self._combined(other, operator.add)

    def _combined(self, other, op):
        # Shallow: fields that are not combined are this side's own.
        out = copy.copy(self)
        # Through the instance dicts: a frozen set has no other way in,
        # and this runs per query.
        mine, theirs = vars(out), vars(other)
        for attr in self._counters:
            if isinstance(mine[attr], tuple):  # per shard
                pairs = zip(mine[attr], theirs[attr], strict=True)
                mine[attr] = tuple(op(a, b) for a, b in pairs)
            else:
                mine[attr] = op(mine[attr], theirs[attr])
        for attr in self._nested:
            if mine[attr] is not None and theirs[attr] is not None:
                mine[attr] = mine[attr]._combined(theirs[attr], op)
        return out

    def reset(self) -> None:
        """Zero every counter in place."""
        for attr in self._counters:
            setattr(self, attr, type(getattr(self, attr))())


class LiveSum:
    """A live read-side sum over several counter sets of one class.

    Every counter read recomputes the sum from the members, so a view
    taken once stays current while they keep counting; any other
    property of the member class (ratios, totals) is evaluated on the
    *summed* counters, never averaged.  :meth:`snapshot` and
    :meth:`publish` report exactly what one member would.
    """

    def __init__(self, parts):
        self._parts = tuple(parts)
        if not self._parts:
            raise ValueError(f"{type(self).__name__} needs at least one member")
        self._kind = type(self._parts[0])

    def __getattr__(self, name: str):
        if not name.startswith("_"):
            kind = self._kind
            if name in kind._counters:
                return sum(getattr(part, name) for part in self._parts)
            attr = getattr(kind, name, None)
            if isinstance(attr, property):
                return attr.fget(self)
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def reset(self) -> None:
        """Zero every member."""
        for part in self._parts:
            part.reset()

    def snapshot(self) -> dict:
        return _snapshot(self._kind, self)

    def publish(self, registry, **labels) -> None:
        _publish(self._kind, self, registry, labels)


__all__ = [
    "CounterSet",
    "LiveSum",
    "counter",
    "derived",
    "gauge",
    "nested",
    "published_only",
    "snapshot_only",
]
