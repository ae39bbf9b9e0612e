"""Plot-free reporting: ASCII tables and bar charts for experiment output.

The benchmark harness prints the same rows and series the paper's tables
and figures report; these helpers keep that output aligned and legible
in a terminal or a log file.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.check.static import StaticReport


def gmean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's cross-workload summary statistic)."""
    vals = list(values)
    if not vals:
        raise ValueError("gmean of no values")
    if any(v <= 0 for v in vals):
        raise ValueError("gmean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                float_format: str = "{:.3f}") -> str:
    """Render rows as a fixed-width table with a header rule."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_findings(report: "StaticReport") -> str:
    """Render a ``repro check`` report for a terminal.

    A clean report is two lines; otherwise findings are listed under a
    per-kind count summary, each with its one-line message.
    """
    teams = ", ".join(map(str, report.thread_counts))
    head = f"repro check: {report.workload} (teams of {teams} threads)"
    if report.clean:
        return f"{head}\nOK - no findings"
    summary = ", ".join(f"{v} {k}" for k, v in report.counts().items())
    lines = [head, f"FAIL - {len(report.findings)} finding(s): {summary}"]
    lines += [f"{i:3d}. [{finding.kind}] {finding.message}"
              for i, finding in enumerate(report.findings, 1)]
    if report.dropped:
        lines.append(f"(+{report.dropped} finding(s) dropped by the "
                     f"MAX_FINDINGS cap)")
    return "\n".join(lines)


def ascii_bars(labels: Sequence[str], values: Sequence[float],
               width: int = 50, max_value: float | None = None,
               value_format: str = "{:.3f}") -> str:
    """Render one horizontal bar per (label, value) pair."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return ""
    top = max_value if max_value is not None else max(values)
    top = max(top, 1e-12)
    label_w = max(len(l) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        n = int(round(min(value, top) / top * width))
        bar = "#" * n
        lines.append(f"{label.ljust(label_w)} |{bar.ljust(width)}| "
                     + value_format.format(value))
    return "\n".join(lines)


def ascii_series(xs: Sequence[int], ys: Sequence[float], height: int = 12,
                 title: str = "") -> str:
    """A small scatter/line chart: x along the bottom, y scaled to height.

    Good enough to eyeball the knee of a normalized-execution-time curve
    in a benchmark log.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("series must be non-empty and aligned")
    top = max(ys)
    bottom = min(ys)
    span = max(top - bottom, 1e-12)
    grid = [[" "] * len(xs) for _ in range(height)]
    for col, y in enumerate(ys):
        row = int(round((top - y) / span * (height - 1)))
        grid[row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y_label = top - span * i / (height - 1)
        lines.append(f"{y_label:8.3f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * len(xs))
    lines.append(" " * 10 + "".join(str(x % 10) for x in xs))
    return "\n".join(lines)
