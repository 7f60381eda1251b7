"""Terminal plots for reproduced figures.

Matplotlib is deliberately not a dependency; these renderers draw the
paper's curve shapes directly in the terminal so ``mediaworm run fig3
--plot`` shows the crossover at a glance.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

#: glyphs assigned to series, in order
SERIES_MARKS = "ox+*#@%&"


def ascii_xy_plot(
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Scatter plot of named (x, y) series on a character grid."""
    if width < 10 or height < 4:
        raise ConfigurationError("plot needs width >= 10 and height >= 4")
    points = [
        (x, y)
        for pts in series.values()
        for x, y in pts
        if x == x and y == y
    ]
    if not points:
        return "(no finite points to plot)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, pts) in enumerate(series.items()):
        mark = SERIES_MARKS[index % len(SERIES_MARKS)]
        legend.append(f"{mark} {name}")
        for x, y in pts:
            if x != x or y != y:
                continue
            col = int((x - x_low) / x_span * (width - 1))
            row = height - 1 - int((y - y_low) / y_span * (height - 1))
            grid[row][col] = mark

    lines = []
    label_width = max(len(f"{y_high:.3g}"), len(f"{y_low:.3g}"))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_high:.3g}".rjust(label_width)
        elif row_index == height - 1:
            label = f"{y_low:.3g}".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    x_axis = f"{x_low:.3g}".ljust(width - 8) + f"{x_high:.3g}".rjust(8)
    lines.append(" " * (label_width + 2) + x_axis)
    lines.append(f"{ylabel} vs {xlabel}    " + "   ".join(legend))
    return "\n".join(lines)


def figure_plot(fig, metric: str = "sigma_d", **kwargs) -> str:
    """Plot one metric of a reproduced figure's series.

    ``metric`` is an attribute of the sweep points (``d``, ``sigma_d``,
    ``be_latency_us``).  Non-numeric x values (mix labels like
    ``"80:20"``) are mapped to their position in the sweep.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for name, points in fig.series.items():
        xy = []
        for position, point in enumerate(points):
            x = point.x
            if not isinstance(x, (int, float)):
                x = float(position)
            xy.append((float(x), float(getattr(point, metric))))
        series[name] = xy
    return ascii_xy_plot(
        series, xlabel=fig.xlabel, ylabel=metric, **kwargs
    )
