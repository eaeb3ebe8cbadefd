"""EXPERIMENTS.md generator: paper-vs-measured for every table and figure.

Runs the same experiment drivers the benchmark suite uses
(:mod:`repro.bench.experiments`) and renders one markdown section per
figure: the paper's qualitative claim, the measured series, and an
automatic verdict on whether the claim's *shape* holds (who wins, what
trends, where it flattens).  Absolute numbers are not expected to match
the paper — its substrate was a 2011 testbed, ours a simulated disk —
but winners, trends, and crossovers must.

Run as::

    python -m repro report [--scale reduced|paper] [--output EXPERIMENTS.md]

The reduced preset takes minutes; the paper preset reproduces Table 1
verbatim and takes correspondingly longer.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.bench.experiments import (
    HarnessCache,
    ScalePreset,
    fig11a_encoding_vs_users,
    fig11b_encoding_vs_policies,
    fig12_vs_users,
    fig13_vs_policies,
    fig14_vs_grouping,
    fig15a_vs_window,
    fig15b_vs_k,
    fig16_vs_destinations,
    fig17_vs_speed,
    fig18_vs_updates,
    fig19_cost_model,
    scale_preset,
)
from repro.obs.timer import timer


@dataclass
class Section:
    """One figure's block in EXPERIMENTS.md."""

    figure: str
    title: str
    paper_claim: str
    columns: list[str]
    rows: list[list[str]]
    verdicts: list[str] = field(default_factory=list)

    def to_markdown(self) -> str:
        lines = [f"### {self.figure} — {self.title}", ""]
        lines.append(f"*Paper:* {self.paper_claim}")
        lines.append("")
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        for verdict in self.verdicts:
            lines.append(f"- {verdict}")
        lines.append("")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _speedups(rows, peb_key, base_key):
    return [
        row[base_key] / row[peb_key] if row[peb_key] > 0 else float("inf")
        for row in rows
    ]


def _wins_verdict(rows, peb_key, base_key, label) -> list[str]:
    speedups = _speedups(rows, peb_key, base_key)
    wins = sum(1 for s in speedups if s > 1.0)
    verdict = (
        f"PEB-tree wins {wins}/{len(rows)} points on {label}; "
        f"speedup {min(speedups):.1f}x..{max(speedups):.1f}x "
        f"(median {statistics.median(speedups):.1f}x)."
    )
    shape = "HOLDS" if wins == len(rows) else ("MOSTLY HOLDS" if wins >= len(rows) - 1 else "DEVIATES")
    return [verdict, f"Shape: **{shape}**."]


def _trend(values, label, expect: str, tolerance: float = 0.0) -> str:
    """Describe whether a series grows/shrinks/stays flat as expected."""
    first, last = values[0], values[-1]
    if expect == "grows":
        ok = last > first
    elif expect == "shrinks":
        ok = last < first
    else:  # "flat": max within a band of the min (x2.5 or +tolerance)
        ok = max(values) <= max(2.5 * min(values), min(values) + tolerance)
    status = "HOLDS" if ok else "DEVIATES"
    return (
        f"{label}: {first:.2f} -> {last:.2f} "
        f"(expected to {expect.replace('flat', 'stay flat')}): **{status}**."
    )


# ----------------------------------------------------------------------
# Section builders
# ----------------------------------------------------------------------


def build_fig11(preset: ScalePreset) -> list[Section]:
    rows_a = fig11a_encoding_vs_users(preset)
    rows_b = fig11b_encoding_vs_policies(preset)
    section_a = Section(
        figure="Figure 11(a)",
        title="policy-encoding time vs number of users",
        paper_claim=(
            "preprocessing time increases linearly with the number of "
            "users and stays low (about 10 s at 100K users on 2011 hardware)."
        ),
        columns=["users", "seconds"],
        rows=[[_fmt(r["n_users"]), f"{r['seconds']:.3f}"] for r in rows_a],
    )
    seconds = [r["seconds"] for r in rows_a]
    users = [r["n_users"] for r in rows_a]
    # Linearity: time per user at the two ends within a factor ~3.
    per_user_first = seconds[0] / users[0]
    per_user_last = seconds[-1] / users[-1]
    ratio = per_user_last / per_user_first if per_user_first > 0 else float("inf")
    status = "HOLDS" if ratio < 3.0 else "DEVIATES"
    section_a.verdicts = [
        _trend(seconds, "encoding seconds", "grows"),
        f"Per-user cost ratio end/start {ratio:.2f} (≈1 means linear): **{status}**.",
    ]
    section_b = Section(
        figure="Figure 11(b)",
        title="policy-encoding time vs policies per user",
        paper_claim="encoding time increases with the policy count but stays low.",
        columns=["policies/user", "seconds"],
        rows=[[_fmt(r["n_policies"]), f"{r['seconds']:.3f}"] for r in rows_b],
        verdicts=[_trend([r["seconds"] for r in rows_b], "encoding seconds", "grows")],
    )
    return [section_a, section_b]


def build_fig12(preset, cache) -> list[Section]:
    rows = fig12_vs_users(preset, cache)
    table = [
        [
            _fmt(r["n_users"]),
            _fmt(r["prq_peb"]),
            _fmt(r["prq_base"]),
            _fmt(r["knn_peb"]),
            _fmt(r["knn_base"]),
        ]
        for r in rows
    ]
    columns = ["users", "PRQ PEB", "PRQ spatial", "PkNN PEB", "PkNN spatial"]
    prq_section = Section(
        figure="Figure 12(a)",
        title="PRQ I/O vs total number of users",
        paper_claim=(
            "the PEB-tree yields much less I/O; the gap grows with data "
            "size, reaching about 10x at 100K users."
        ),
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "prq_peb", "prq_base", "PRQ")
        + [
            _trend([r["prq_base"] for r in rows], "spatial-index PRQ I/O", "grows"),
        ],
    )
    knn_section = Section(
        figure="Figure 12(b)",
        title="PkNN I/O vs total number of users",
        paper_claim="the PEB-tree significantly outperforms the spatial index.",
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "knn_peb", "knn_base", "PkNN"),
    )
    return [prq_section, knn_section]


def build_fig13(preset, cache) -> list[Section]:
    rows = fig13_vs_policies(preset, cache)
    table = [
        [
            _fmt(r["n_policies"]),
            _fmt(r["prq_peb"]),
            _fmt(r["prq_base"]),
            _fmt(r["knn_peb"]),
            _fmt(r["knn_base"]),
        ]
        for r in rows
    ]
    columns = ["policies/user", "PRQ PEB", "PRQ spatial", "PkNN PEB", "PkNN spatial"]
    prq_section = Section(
        figure="Figure 13(a)",
        title="PRQ I/O vs policies per user",
        paper_claim=(
            "PEB cost increases with the number of policies (more "
            "qualifying users per query); the spatial index is "
            "independent of the policy count."
        ),
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "prq_peb", "prq_base", "PRQ")
        + [
            _trend([r["prq_peb"] for r in rows], "PEB PRQ I/O", "grows"),
            _trend([r["prq_base"] for r in rows], "spatial PRQ I/O", "flat", 5.0),
        ],
    )
    knn_section = Section(
        figure="Figure 13(b)",
        title="PkNN I/O vs policies per user",
        paper_claim="the PEB-tree saves significant I/O vs the spatial index.",
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "knn_peb", "knn_base", "PkNN"),
    )
    return [prq_section, knn_section]


def build_fig14(preset, cache) -> list[Section]:
    rows = fig14_vs_grouping(preset, cache)
    table = [
        [
            _fmt(r["theta"]),
            _fmt(r["prq_peb"]),
            _fmt(r["prq_base"]),
            _fmt(r["knn_peb"]),
            _fmt(r["knn_base"]),
        ]
        for r in rows
    ]
    columns = ["θ", "PRQ PEB", "PRQ spatial", "PkNN PEB", "PkNN spatial"]
    prq_peb = [r["prq_peb"] for r in rows]
    prq_section = Section(
        figure="Figure 14(a)",
        title="PRQ I/O vs grouping factor",
        paper_claim=(
            "PEB cost tends to decrease as θ grows (better grouping); the "
            "spatial index is unaffected by θ."
        ),
        columns=columns,
        rows=table,
        verdicts=[
            _trend(prq_peb, "PEB PRQ I/O", "shrinks"),
            _trend([r["prq_base"] for r in rows], "spatial PRQ I/O", "flat", 5.0),
        ]
        + _wins_verdict(rows, "prq_peb", "prq_base", "PRQ"),
    )
    knn_section = Section(
        figure="Figure 14(b)",
        title="PkNN I/O vs grouping factor",
        paper_claim="same pattern for PkNN; PEB performs best.",
        columns=columns,
        rows=table,
        verdicts=[_trend([r["knn_peb"] for r in rows], "PEB PkNN I/O", "shrinks")]
        + _wins_verdict(rows, "knn_peb", "knn_base", "PkNN"),
    )
    return [prq_section, knn_section]


def build_fig15(preset, cache) -> list[Section]:
    rows_a = fig15a_vs_window(preset, cache)
    rows_b = fig15b_vs_k(preset, cache)
    section_a = Section(
        figure="Figure 15(a)",
        title="PRQ I/O vs query-window side length",
        paper_claim=(
            "PEB cost is almost constant (bounded by the issuer's friend "
            "count); spatial-index cost increases with the window."
        ),
        columns=["window side", "PRQ PEB", "PRQ spatial"],
        rows=[
            [_fmt(r["window"]), _fmt(r["prq_peb"]), _fmt(r["prq_base"])]
            for r in rows_a
        ],
        verdicts=[
            _trend([r["prq_peb"] for r in rows_a], "PEB PRQ I/O", "flat", 5.0),
            _trend([r["prq_base"] for r in rows_a], "spatial PRQ I/O", "grows"),
        ]
        + _wins_verdict(rows_a, "prq_peb", "prq_base", "PRQ"),
    )
    section_b = Section(
        figure="Figure 15(b)",
        title="PkNN I/O vs k",
        paper_claim=(
            "PEB performance is stable in k; the spatial index degrades "
            "slightly as k grows."
        ),
        columns=["k", "PkNN PEB", "PkNN spatial"],
        rows=[
            [_fmt(r["k"]), _fmt(r["knn_peb"]), _fmt(r["knn_base"])] for r in rows_b
        ],
        verdicts=[
            _trend([r["knn_peb"] for r in rows_b], "PEB PkNN I/O", "flat", 5.0),
        ]
        + _wins_verdict(rows_b, "knn_peb", "knn_base", "PkNN"),
    )
    return [section_a, section_b]


def build_fig16(preset, cache) -> list[Section]:
    rows = fig16_vs_destinations(preset, cache)
    table = [
        [
            "uniform" if r["destinations"] == 0 else _fmt(r["destinations"]),
            _fmt(r["prq_peb"]),
            _fmt(r["prq_base"]),
            _fmt(r["knn_peb"]),
            _fmt(r["knn_base"]),
        ]
        for r in rows
    ]
    columns = ["destinations", "PRQ PEB", "PRQ spatial", "PkNN PEB", "PkNN spatial"]
    prq_section = Section(
        figure="Figure 16(a)",
        title="PRQ I/O vs number of destinations (network data)",
        paper_claim=(
            "PEB much better in all cases; destination count only "
            "slightly affects the PEB-tree (location is not the dominant "
            "key component); spatial index fluctuates slightly."
        ),
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "prq_peb", "prq_base", "PRQ")
        + [_trend([r["prq_peb"] for r in rows], "PEB PRQ I/O", "flat", 5.0)],
    )
    knn_section = Section(
        figure="Figure 16(b)",
        title="PkNN I/O vs number of destinations (network data)",
        paper_claim="same pattern for PkNN.",
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "knn_peb", "knn_base", "PkNN"),
    )
    return [prq_section, knn_section]


def build_fig17(preset, cache) -> list[Section]:
    rows = fig17_vs_speed(preset, cache)
    table = [
        [
            _fmt(r["max_speed"]),
            _fmt(r["prq_peb"]),
            _fmt(r["prq_base"]),
            _fmt(r["knn_peb"]),
            _fmt(r["knn_base"]),
        ]
        for r in rows
    ]
    columns = ["max speed", "PRQ PEB", "PRQ spatial", "PkNN PEB", "PkNN spatial"]
    prq_section = Section(
        figure="Figure 17(a)",
        title="PRQ I/O vs maximum object speed",
        paper_claim=(
            "spatial-index cost increases slightly with speed (larger "
            "window enlargement); the PEB-tree is relatively stable."
        ),
        columns=columns,
        rows=table,
        verdicts=[
            _trend([r["prq_base"] for r in rows], "spatial PRQ I/O", "grows"),
            _trend([r["prq_peb"] for r in rows], "PEB PRQ I/O", "flat", 5.0),
        ]
        + _wins_verdict(rows, "prq_peb", "prq_base", "PRQ"),
    )
    knn_section = Section(
        figure="Figure 17(b)",
        title="PkNN I/O vs maximum object speed",
        paper_claim="same pattern for PkNN.",
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "knn_peb", "knn_base", "PkNN"),
    )
    return [prq_section, knn_section]


def build_fig18(preset) -> list[Section]:
    rows = fig18_vs_updates(preset)
    table = [
        [
            f"{r['updated_pct']}%",
            _fmt(r["prq_peb"]),
            _fmt(r["prq_base"]),
            _fmt(r["knn_peb"]),
            _fmt(r["knn_base"]),
        ]
        for r in rows
    ]
    columns = ["updated", "PRQ PEB", "PRQ spatial", "PkNN PEB", "PkNN spatial"]
    prq_section = Section(
        figure="Figure 18(a)",
        title="PRQ I/O under successive 25% update batches",
        paper_claim=(
            "query cost of both approaches only fluctuates slightly as "
            "the data set is fully updated twice."
        ),
        columns=columns,
        rows=table,
        verdicts=[
            _trend([r["prq_peb"] for r in rows], "PEB PRQ I/O", "flat", 5.0),
        ]
        + _wins_verdict(rows, "prq_peb", "prq_base", "PRQ"),
    )
    knn_section = Section(
        figure="Figure 18(b)",
        title="PkNN I/O under successive 25% update batches",
        paper_claim="same fluctuation-only pattern for PkNN.",
        columns=columns,
        rows=table,
        verdicts=_wins_verdict(rows, "knn_peb", "knn_base", "PkNN"),
    )
    return [prq_section, knn_section]


def build_fig19(preset, cache) -> list[Section]:
    data = fig19_cost_model(preset, cache)
    model = data["model"]
    sections = []
    for axis, rows, label in (
        ("n_users", data["vs_users"], "number of users"),
        ("n_policies", data["vs_policies"], "policies per user"),
        ("theta", data["vs_theta"], "grouping factor"),
    ):
        errors = [
            abs(r["estimated"] - r["measured"]) / r["measured"]
            for r in rows
            if r["measured"] > 0
        ]
        mean_err = statistics.mean(errors) if errors else 0.0
        status = "HOLDS" if mean_err < 0.5 else "DEVIATES"
        sections.append(
            Section(
                figure=f"Figure 19 ({label})",
                title=f"cost-model estimate vs measured PRQ I/O across {label}",
                paper_claim="the estimated cost tracks the actual cost quite well.",
                columns=[axis, "measured", "estimated"],
                rows=[
                    [_fmt(r[axis]), _fmt(r["measured"]), _fmt(r["estimated"])]
                    for r in rows
                ],
                verdicts=[
                    f"Mean relative error {mean_err:.1%} "
                    f"(calibrated a1={model.a1:.3g}, a2={model.a2:.3g}): **{status}**."
                ],
            )
        )
    return sections


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def build_all_sections(preset: ScalePreset, cache: HarnessCache) -> list[Section]:
    sections: list[Section] = []
    sections += build_fig11(preset)
    sections += build_fig12(preset, cache)
    sections += build_fig13(preset, cache)
    sections += build_fig14(preset, cache)
    sections += build_fig15(preset, cache)
    sections += build_fig16(preset, cache)
    sections += build_fig17(preset, cache)
    sections += build_fig18(preset)
    sections += build_fig19(preset, cache)
    return sections


def render_report(preset: ScalePreset, sections: list[Section], elapsed: float) -> str:
    base = preset.base
    header = f"""# EXPERIMENTS — paper vs measured

Reproduction of the evaluation of *"A Moving-Object Index for Efficient
Query Processing with Peer-Wise Location Privacy"* (Lin et al., PVLDB
5(1), 2011), Section 7.

Generated by `python -m repro report --scale {preset.name}` in
{elapsed:.0f} s.  Costs are **average physical page reads per query**
over {base.n_queries} fresh random queries on a {base.buffer_pages}-page
LRU buffer ({base.page_size}-byte pages), exactly the paper's
methodology (Section 7.1).  `PEB` is the PEB-tree, `spatial` the
Bx-tree + policy-filter baseline of Section 4.

**Scale.** Preset `{preset.name}`: {base.n_users} users,
{base.n_policies} policies/user, θ = {base.grouping_factor},
window {base.window_side:.0f}, k = {base.k}.  The `paper` preset
(`REPRO_SCALE=paper`) reproduces Table 1 verbatim; the reduced preset
shrinks the population ~10x and the page size to 1 KiB so the
index-pages : buffer-pages ratio stays in the paper's regime.  Shapes
(winners, trends, crossovers) are preserved; absolute I/O counts are
smaller than the paper's.

**Verdict legend.** Each figure ends with automatic checks: **HOLDS**
(the paper's qualitative claim reproduces), **MOSTLY HOLDS** (one point
off), **DEVIATES** (investigate).

## Table 1 — parameters

| parameter | paper default | this run |
|---|---|---|
| buffer | 50 pages | {base.buffer_pages} pages |
| number of users | 60K (10K..100K) | {base.n_users} |
| maximum speed | 3 (1..6) | {base.max_speed} |
| query window side | 200 (100..1000) | {base.window_side:.0f} |
| k | 5 (1..10) | {base.k} |
| grouping factor θ | 0.7 (0..1) | {base.grouping_factor} |
| policies per user | 50 (10..100) | {base.n_policies} |
| page size | 4096 B | {base.page_size} B |

## Figures

"""
    body = "\n".join(section.to_markdown() for section in sections)
    holds = sum("**HOLDS**" in v for s in sections for v in s.verdicts)
    mostly = sum("**MOSTLY HOLDS**" in v for s in sections for v in s.verdicts)
    deviates = sum("**DEVIATES**" in v for s in sections for v in s.verdicts)
    summary = f"""
## Summary

Across all automatic shape checks: {holds} HOLDS, {mostly} MOSTLY HOLDS,
{deviates} DEVIATES.

Beyond the paper's figures, `benchmarks/bench_ablations.py` measures the
design-choice ablations (key field order, PRQ range strategy, PkNN
traversal order, sequence-value encoder, space-filling curve, buffer
policy and size), and `benchmarks/bench_continuous.py` measures the
continuous-PRQ extension against repeated snapshot queries — run
`pytest benchmarks/ --benchmark-only -s` to regenerate those tables.
"""
    return header + body + summary


def generate(output_path: str, preset: ScalePreset | None = None) -> str:
    """Run every experiment and write the report; returns the markdown."""
    active = preset if preset is not None else scale_preset()
    cache = HarnessCache()
    watch = timer()
    sections = build_all_sections(active, cache)
    elapsed = watch.stop()
    markdown = render_report(active, sections, elapsed)
    with open(output_path, "w") as handle:
        handle.write(markdown)
    return markdown
