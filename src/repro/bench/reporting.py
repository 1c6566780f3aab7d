"""Plain-text rendering of experiment sweeps (tables + ASCII series).

The benchmark harness prints, for every figure, the same rows/series the
paper plots, so runs can be eyeballed against the paper's charts.  It
also dumps execution traces (:func:`dump_traces`) so any benchmarked
schedule can be opened in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

from repro.bench.experiments import STRATEGIES, SweepSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.report import ExecutionReport


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render a padded text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    return "\n".join(lines)


def series_table(series: SweepSeries, metric: str = "total") -> str:
    """One figure's data as a table: x column + one column per strategy."""
    headers = [series.x_label] + [f"{s} {metric}(s)" for s in STRATEGIES]
    rows = []
    for point in series.points:
        values = (
            point.total_time if metric == "total" else point.response_time
        )
        rows.append(
            [f"{point.x:g}"] + [f"{values[s]:.3f}" for s in STRATEGIES]
        )
    return format_table(headers, rows)


def ascii_chart(
    series: SweepSeries, metric: str = "total", width: int = 50
) -> str:
    """A crude horizontal bar chart, one bar group per x setting."""
    values = {
        s: (series.totals(s) if metric == "total" else series.responses(s))
        for s in STRATEGIES
    }
    peak = max(max(vals) for vals in values.values()) or 1.0
    lines = [f"{series.name} — {metric} time"]
    for index, point in enumerate(series.points):
        lines.append(f"  {series.x_label} = {point.x:g}")
        for strategy in STRATEGIES:
            value = values[strategy][index]
            bar = "#" * max(1, int(round(value / peak * width)))
            lines.append(f"    {strategy:<3} {bar} {value:.3f}s")
    return "\n".join(lines)


def dump_traces(
    reports: Mapping[str, "ExecutionReport"],
    directory: str,
    jsonl: bool = False,
) -> List[str]:
    """Write each report's Chrome-trace JSON (and optionally its JSONL
    log) into *directory*; returns the written paths.

    File names are derived from the mapping keys (strategy names), with
    path-hostile characters replaced.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for name, report in reports.items():
        stem = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
        path = os.path.join(directory, f"{stem}.trace.json")
        with open(path, "w") as handle:
            handle.write(report.trace.to_chrome_json())
        written.append(path)
        if jsonl:
            path = os.path.join(directory, f"{stem}.jsonl")
            with open(path, "w") as handle:
                handle.write(report.trace.to_jsonl())
            written.append(path)
    return written


def shape_report(series: SweepSeries) -> Dict[str, bool]:
    """Machine-checkable shape facts about one sweep (used by benches)."""
    facts: Dict[str, bool] = {}
    for strategy in STRATEGIES:
        totals = series.totals(strategy)
        responses = series.responses(strategy)
        facts[f"{strategy}_total_monotone_up"] = all(
            b >= a * 0.98 for a, b in zip(totals, totals[1:])
        )
        facts[f"{strategy}_response_monotone_up"] = all(
            b >= a * 0.98 for a, b in zip(responses, responses[1:])
        )
    last = series.points[-1]
    first = series.points[0]
    facts["localized_response_beats_ca_everywhere"] = all(
        p.response_time["BL"] < p.response_time["CA"]
        and p.response_time["PL"] < p.response_time["CA"]
        for p in series.points
    )
    facts["bl_total_below_pl_everywhere"] = all(
        p.total_time["BL"] <= p.total_time["PL"] * 1.02
        for p in series.points
    )
    facts["growth_BL_total"] = last.total_time["BL"] > first.total_time["BL"]
    facts["growth_CA_total"] = last.total_time["CA"] > first.total_time["CA"]
    return facts
