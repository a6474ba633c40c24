"""Plain-text rendering of tables and series (the paper's artifacts).

Benchmarks print through these helpers so each bench reproduces the
same rows/series the paper reports, in a diff-friendly format.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Fixed-width ASCII table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x: Sequence[object],
    series: dict[str, Sequence[float]],
    *,
    x_label: str = "x",
    title: str | None = None,
    float_format: str = "{:.4f}",
) -> str:
    """A figure as a table: one x column, one column per series."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, xv in enumerate(x):
        row: list[object] = [xv]
        for values in series.values():
            if len(values) != len(x):
                raise ValueError(
                    f"series length {len(values)} != x length {len(x)}"
                )
            row.append(values[i])
        rows.append(row)
    return render_table(headers, rows, title=title, float_format=float_format)


#: Characters in the longest bar of :func:`render_histogram`.
HISTOGRAM_WIDTH = 50


def render_histogram(
    labels: Sequence[str],
    counts: Sequence[int],
    *,
    title: str | None = None,
) -> str:
    """Horizontal ASCII bar chart (Figs. 7-8 style), the longest bar
    :data:`HISTOGRAM_WIDTH` characters."""
    if len(labels) != len(counts):
        raise ValueError("labels and counts must align")
    peak = max(counts) if counts else 0
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    label_w = max((len(l) for l in labels), default=0)
    for label, count in zip(labels, counts):
        bar = "#" * (0 if peak == 0 else round(HISTOGRAM_WIDTH * count / peak))
        lines.append(f"{label.ljust(label_w)} | {str(count).rjust(6)} {bar}")
    return "\n".join(lines)
