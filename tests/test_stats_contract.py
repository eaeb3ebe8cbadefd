"""The stats dialects' reporting contract, pinned to a recorded golden.

Every stats class is built with each field set to a distinct non-zero
value derived from the field's name; its ``snapshot()`` and the
registry contents after ``publish()`` (metric names, counter-vs-gauge
kinds, label sets, values) must equal ``stats_contract_golden.json``,
first recorded at commit ``b61a23b`` — when all of it was still written
out by hand, class by class — and re-recorded once when the values
stopped following declaration order, by dumping :func:`observed`
(``PYTHONPATH=src:. python -m tests.test_stats_contract``).  Because a
value follows its field's name, removing a field changes only the
golden entries that name it.

The properties below the golden pin the arithmetic every counter set
derives from its declaration: ``a.delta_from(b) + b == a`` and
``copy()`` sharing no state.
"""

import dataclasses
import json
import random
import zlib
from pathlib import Path

import pytest

from repro.bench.harness import OverlapCosts, ServiceCosts
from repro.engine.executor import ExecutionStats
from repro.engine.updater import UpdateStats
from repro.fault.stats import FaultStats
from repro.obs.metrics import MetricsRegistry
from repro.service.stats import ServiceStats, SojournSummary
from repro.shard.stats import ShardStats
from repro.simio.stats import LatencyStats, LatencyView
from repro.storage.stats import IOStats, StatsView

GOLDEN = Path(__file__).with_name("stats_contract_golden.json")


def field_value(name: str) -> int:
    """The even number in ``2 .. 20 000`` a field named ``name`` is
    filled with: a CRC of the name, so a field's value does not move
    when another field is added, removed or reordered."""
    return 2 + 2 * (zlib.crc32(name.encode()) % 10_000)


def filled(cls, start: int, **given):
    """An instance whose numeric fields hold ``start + field_value(name)``.

    Values are distinct within the class (asserted here), and floats get
    a ``.5``, so a counter published through the wrong field cannot
    collide with another; ``given`` supplies whatever a number cannot
    stand in for (nested sets, tuples, dicts).
    """
    values = dict(given)
    numbers: dict[int, str] = {}
    for spec in dataclasses.fields(cls):
        if spec.name in values or spec.name.startswith("_"):
            continue
        number = start + field_value(spec.name)
        clash = numbers.setdefault(number, spec.name)
        assert clash == spec.name, f"{cls.__name__}: {clash} and {spec.name} tie"
        kind = str(spec.type)
        if kind == "int":
            values[spec.name] = number
        elif kind == "float":
            values[spec.name] = number + 0.5
        elif kind == "bool":
            values[spec.name] = True
        elif kind.startswith("str"):
            values[spec.name] = f"{spec.name}-{number}"
        else:
            raise AssertionError(f"{cls.__name__}.{spec.name}: give a value")
    return cls(**values)


def shard_stats() -> ShardStats:
    return ShardStats(
        entries=(40, 10, 30), physical_reads=(7, 1, 4), physical_writes=(2, 9, 5)
    )


def service_stats() -> ServiceStats:
    return filled(
        ServiceStats,
        300,
        overall=filled(SojournSummary, 400),
        per_class={
            "range": filled(SojournSummary, 420),
            "update": filled(SojournSummary, 440),
        },
        batch_size_hist={16: 3, 4: 1},
        fault_stats=filled(FaultStats, 460),
    )


def instances() -> dict:
    """One fully populated instance per stats dialect."""
    return {
        "IOStats": filled(IOStats, 0),
        "StatsView": StatsView(
            [filled(IOStats, 20), filled(IOStats, 40)],
            latency=LatencyView([filled(LatencyStats, 60), filled(LatencyStats, 80)]),
        ),
        "StatsView.untimed": StatsView([filled(IOStats, 20), filled(IOStats, 40)]),
        "LatencyStats": filled(LatencyStats, 100),
        "LatencyView": LatencyView(
            [filled(LatencyStats, 60), filled(LatencyStats, 80)]
        ),
        "FaultStats": filled(FaultStats, 120),
        "ShardStats": shard_stats(),
        "ExecutionStats": filled(
            ExecutionStats,
            140,
            shard_stats=shard_stats(),
            fault_stats=filled(FaultStats, 180),
        ),
        "ExecutionStats.single_tree": filled(
            ExecutionStats, 140, shard_stats=None, fault_stats=None
        ),
        "UpdateStats": filled(
            UpdateStats,
            200,
            shard_stats=shard_stats(),
            fault_stats=filled(FaultStats, 240),
        ),
        "SojournSummary": filled(SojournSummary, 260),
        "ServiceStats": service_stats(),
        "ServiceStats.no_supervisor": filled(
            ServiceStats,
            300,
            overall=SojournSummary(),
            per_class={},
            batch_size_hist={},
            fault_stats=None,
        ),
        "OverlapCosts": filled(OverlapCosts, 500),
        "ServiceCosts": filled(ServiceCosts, 600, stats=service_stats()),
    }


#: Dialects that had no ``snapshot()`` / no ``publish()`` when the
#: golden was recorded; the golden holds nothing for them there.
NO_SNAPSHOT = {
    "ExecutionStats", "ExecutionStats.single_tree", "UpdateStats",
}
NO_PUBLISH = {"SojournSummary", "OverlapCosts", "ServiceCosts"}


def observed() -> dict:
    """What every dialect reports, in the golden's JSON shape."""
    out = {}
    for name, stats in instances().items():
        entry = out[name] = {}
        if name not in NO_SNAPSHOT:
            entry["snapshot"] = stats.snapshot()
        if name not in NO_PUBLISH:
            registry = MetricsRegistry()
            stats.publish(registry, run="r1")
            entry["metrics"] = registry.snapshot()
    # Through JSON, so tuples/int keys compare the way the file stores them.
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("name", sorted(instances()))
def test_dialect_reports_what_the_golden_recorded(name):
    golden = json.loads(GOLDEN.read_text())
    assert observed()[name] == golden[name]


def test_golden_covers_every_dialect():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(instances())


# ----------------------------------------------------------------------
# Derived arithmetic
# ----------------------------------------------------------------------


def _random_instances(rng: random.Random) -> list:
    """Randomly valued counter sets, nested and per-shard ones included."""

    def shards():
        return ShardStats(
            entries=tuple(rng.randrange(1, 99) for _ in range(3)),
            physical_reads=tuple(rng.randrange(1, 99) for _ in range(3)),
            physical_writes=tuple(rng.randrange(1, 99) for _ in range(3)),
        )

    def start():
        return rng.randrange(1, 1000)

    return [
        filled(IOStats, start()),
        filled(LatencyStats, start()),
        filled(FaultStats, start()),
        shards(),
        filled(
            ExecutionStats,
            start(),
            shard_stats=shards(),
            fault_stats=filled(FaultStats, start()),
        ),
        filled(ExecutionStats, start(), shard_stats=None, fault_stats=None),
        filled(
            UpdateStats,
            start(),
            shard_stats=shards(),
            fault_stats=filled(FaultStats, start()),
        ),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_delta_plus_baseline_restores_the_total(seed):
    rng = random.Random(seed)
    for total, baseline in zip(_random_instances(rng), _random_instances(rng)):
        restored = total.delta_from(baseline) + baseline
        assert restored == total
        assert restored.snapshot() == total.snapshot()


def test_delta_rejects_a_different_shard_count():
    two = ShardStats(entries=(1, 2), physical_reads=(3, 4), physical_writes=(5, 6))
    with pytest.raises(ValueError):
        shard_stats().delta_from(two)


@pytest.mark.parametrize("seed", range(3))
def test_copy_shares_no_state(seed):
    for source in _random_instances(random.Random(seed)):
        clone = source.copy()
        assert clone == source and clone is not source
        for spec in dataclasses.fields(source):
            mine, theirs = getattr(source, spec.name), getattr(clone, spec.name)
            if isinstance(mine, (dict, list)) or dataclasses.is_dataclass(mine):
                assert mine is not theirs, spec.name
    io = IOStats(physical_reads=3)
    io.mark("phase")
    clone = io.copy()
    io.physical_reads += 4
    io.mark("later")
    assert clone.physical_reads == 3
    assert clone.reads_since("later") == 3  # the later mark is not shared
    execution = filled(
        ExecutionStats, 10, shard_stats=None, fault_stats=filled(FaultStats, 40)
    )
    clone = execution.copy()
    execution.fault_stats.retries += 1
    assert clone.fault_stats.retries == execution.fault_stats.retries - 1


# ----------------------------------------------------------------------
# The documented names are the declared names
# ----------------------------------------------------------------------


def test_every_published_name_is_documented():
    doc = Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md"
    text = doc.read_text()
    section = text[text.index("## Metric names"):text.index("## trace-report")]
    published = {"service.batch_size"}  # ServiceStats' one labelled family
    for cls in (
        ExecutionStats, UpdateStats, ServiceStats, SojournSummary,
        FaultStats, ShardStats, IOStats, LatencyStats,
    ):
        names = cls.metric_names()
        assert names, cls.__name__
        published |= set(names)
    missing = sorted(name for name in published if f"`{name}`" not in section)
    assert not missing, f"undocumented metric names: {missing}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(observed(), indent=1, sort_keys=True) + "\n")
