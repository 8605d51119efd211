"""Tabular reports with deterministic rendering.

Computations stay unrounded; rendering rounds to three significant figures
(without ever truncating integer digits, so 4822.4 prints as 4822 and
0.016749 as 0.0167). Every report names the calibration profile its
numbers were produced with.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field


def format_sig(value: float) -> str:
    """Round a finite number to three significant figures, keeping all integer digits."""
    if value == 0:
        return "0"
    magnitude = math.floor(math.log10(abs(value)))
    decimals = max(0, 2 - magnitude)
    rounded = round(value, decimals)
    if decimals == 0:
        return str(int(rounded))
    return f"{rounded:.{decimals}f}"


@dataclass(frozen=True)
class Report:
    title: str
    profile: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def rendered_rows(self) -> list[list[str]]:
        """Every row's cells as text; a float cell that is not finite raises
        ValueError naming its row and column."""
        return [
            [_cell(row, column, value) for column, value in zip(self.columns, row)]
            for row in self.rows
        ]


def _cell(row: tuple, column: str, value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        raise ValueError(
            f"report row {row[0]!r}, column {column!r}: {value} is not a finite "
            "number; the inputs are too large to compute with"
        )
    return format_sig(value)


def render(report: Report, fmt: str = "table") -> str:
    if fmt == "table":
        return _render_table(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown format {fmt!r}; expected table, csv, or markdown")


def _render_table(report: Report) -> str:
    rows = report.rendered_rows()
    widths = [
        max(len(report.columns[i]), *(len(r[i]) for r in rows)) if rows else len(report.columns[i])
        for i in range(len(report.columns))
    ]
    lines = [f"{report.title}  [profile: {report.profile}]"]
    lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(report.columns)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip())
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(report.columns) + ["profile"])
    for row in report.rendered_rows():
        writer.writerow(row + [report.profile])
    return out.getvalue()


def _render_markdown(report: Report) -> str:
    rows = report.rendered_rows()
    lines = [f"**{report.title}** (profile: {report.profile})", ""]
    lines.append("| " + " | ".join(report.columns) + " |")
    lines.append("| " + " | ".join("---" for _ in report.columns) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    for note in report.notes:
        lines.append("")
        lines.append(f"*note: {note}*")
    return "\n".join(lines) + "\n"
