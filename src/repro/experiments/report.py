"""Plain-text rendering of reproduced figures and tables.

The harness prints the same rows/series the paper reports, as aligned
text tables — suitable for terminals, logs, and the EXPERIMENTS.md
paper-vs-measured records.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.experiments.campaign import FigureData
from repro.experiments.tables import (
    SATURATION_LATENCY_US,
    Table2Data,
    Table3Data,
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append(
            " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            return "-"
        return f"{cell:.3f}"
    return str(cell)


def figure_to_text(fig: FigureData, show_be_latency: bool = False) -> str:
    """Render a reproduced figure as one table per series."""
    parts = [f"== {fig.figure_id}: {fig.title} =="]
    headers = [fig.xlabel, "d (ms)", "sigma_d (ms)"]
    if show_be_latency:
        headers.append("BE latency (us)")
    for name, points in fig.series.items():
        rows = []
        for p in points:
            row = [p.x, p.d, p.sigma_d]
            if show_be_latency:
                row.append(p.be_latency_us)
            rows.append(row)
        parts.append(f"-- series: {name}")
        parts.append(format_table(headers, rows))
    if fig.notes:
        parts.append(f"note: {fig.notes}")
    return "\n".join(parts)


def table2_to_text(data: Table2Data) -> str:
    """Render Table 2 with the paper's layout (mix rows, load columns)."""
    headers = ["x:y"] + [f"{load:g}" for load in data.loads]
    rows = []
    for mix in data.mixes:
        row = [f"{mix[0]:g}:{mix[1]:g}"]
        row.extend(data.cell_text(mix, load) for load in data.loads)
        rows.append(row)
    return (
        "== table2: Average latency for best-effort traffic (us) ==\n"
        + format_table(headers, rows)
        + f"\n('Sat.' marks latencies beyond "
        f"{int(round(SATURATION_LATENCY_US))} us, as in the paper)"
    )


def table3_to_text(data: Table3Data) -> str:
    """Render Table 3: attempted / established / dropped connections."""
    headers = [
        "Input Load",
        "#Conn. Attempts",
        "# Established",
        "# Dropped",
        "offered",
        "abandoned",
    ]
    rows = [
        (
            f"{row.load:g}",
            row.attempts,
            row.established,
            row.dropped,
            row.offered,
            row.abandoned,
        )
        for row in sorted(data.rows, key=lambda r: -r.load)
    ]
    return (
        "== table3: PCS attempted/established/dropped connections ==\n"
        + format_table(headers, rows)
    )
