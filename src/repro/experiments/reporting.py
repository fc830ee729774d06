"""Plain-text reporting: aligned tables and ASCII series.

The benchmark harness prints the same rows/series the paper's figures
show; these helpers keep that output readable and uniform.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 4,
) -> str:
    """Monospace table with right-aligned numeric columns."""
    def fmt(cell: object) -> str:
        if isinstance(cell, (float, np.floating)):
            return f"{cell:.{precision}g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_series(
    x: np.ndarray,
    y: np.ndarray,
    width: int = 60,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    marker: str = "*",
) -> str:
    """Minimal scatter rendering of one series in a character grid."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        return "(empty series)"
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for xi, yi in zip(x, y):
        col = int((xi - x_lo) / x_span * (width - 1))
        row = height - 1 - int((yi - y_lo) / y_span * (height - 1))
        grid[row][col] = marker
    lines = [f"{y_label}: {y_lo:.4g} .. {y_hi:.4g}"]
    lines += ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(f"{x_label}: {x_lo:.4g} .. {x_hi:.4g}")
    return "\n".join(lines)


def overlay_series(
    series: Sequence[tuple],
    width: int = 64,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Overlay several ``(name, x, y, marker)`` series on one grid."""
    if not series:
        return "(no series)"
    xs_list = [np.asarray(s[1], float) for s in series if np.size(s[1])]
    ys_list = [np.asarray(s[2], float) for s in series if np.size(s[2])]
    if not xs_list:
        return "(all series empty)"
    xs = np.concatenate(xs_list)
    ys = np.concatenate(ys_list)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    grid = [[" "] * width for _ in range(height)]
    for name, x, y, marker in series:
        for xi, yi in zip(np.asarray(x, float), np.asarray(y, float)):
            col = int((xi - x_lo) / x_span * (width - 1))
            row = height - 1 - int((yi - y_lo) / y_span * (height - 1))
            grid[row][col] = marker
    legend = "   ".join(f"{s[3]} = {s[0]}" for s in series)
    lines = [legend, f"{y_label}: {y_lo:.4g} .. {y_hi:.4g}"]
    lines += ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(f"{x_label}: {x_lo:.4g} .. {x_hi:.4g}")
    return "\n".join(lines)


def front_rows(
    front: np.ndarray,
    c_load_max: float = 5.0e-12,
    max_rows: Optional[int] = 20,
) -> List[List[float]]:
    """Rows ``[c_load_pF, power_mW]`` from a (power, deficit) front.

    At most *max_rows* rows (evenly thinned along the load axis), or all
    of them when *max_rows* is ``None``; *max_rows* must be at least 1.
    """
    if max_rows is not None and max_rows < 1:
        raise ValueError(f"max_rows must be >= 1 or None, got {max_rows}")
    f = np.atleast_2d(np.asarray(front, dtype=float))
    if f.shape[0] == 0:
        return []
    c_load = (c_load_max - f[:, 1]) * 1e12
    power = f[:, 0] * 1e3
    order = np.argsort(c_load)
    rows = [[float(c_load[i]), float(power[i])] for i in order]
    if max_rows is not None and len(rows) > max_rows:
        step = len(rows) / max_rows
        rows = [rows[int(i * step)] for i in range(max_rows)]
    return rows
