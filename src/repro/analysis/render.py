"""Plain-text rendering of tables and figure series.

The paper-figure suite (``benchmarks/``) prints each experiment in the
same layout the paper uses (rows of a table, or labeled series of a
figure), so the output in ``bench_output.txt`` can be compared against the
paper line by line.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table with a title rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(w) for cell, w in zip(cells, widths))

    rule = "-+-".join("-" * w for w in widths)
    out = [f"=== {title} ===", line(headers), rule]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_series(title: str, x_label: str, xs: Sequence[object],
                  series: Dict[str, Sequence[float]],
                  unit: str = "") -> str:
    """Render figure data as one row per x value, one column per series."""
    headers = [x_label] + [f"{name}{f' ({unit})' if unit else ''}"
                           for name in series]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [values[i] for values in series.values()])
    return render_table(title, headers, rows)


def render_bars(title: str, labels: Sequence[str], values: Sequence[float],
                unit: str = "s", width: int = 50) -> str:
    """Horizontal ASCII bar chart (for single-series figures)."""
    peak = max(values) if values else 1.0
    label_w = max(len(label) for label in labels) if labels else 0
    out = [f"=== {title} ==="]
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(width * value / peak)) if peak > 0 else ""
        out.append(f"{label.ljust(label_w)} | {value:10.4f} {unit} {bar}")
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
