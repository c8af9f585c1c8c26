"""ASCII charts for terminal/CI-friendly experiment reports."""

from __future__ import annotations

import numpy as np

from repro.errors import MetricError

__all__ = ["ascii_chart"]


def ascii_chart(
    x: np.ndarray,
    series: dict[str, np.ndarray],
    width: int = 64,
    height: int = 16,
    title: str = "",
) -> str:
    """A multi-series scatter/line chart rendered with text cells.

    Args:
        x: Shared x values (length n).
        series: Mapping label → y values (each length n); each series is
            drawn with its own marker character.
        width / height: Plot area size in character cells.
        title: Optional title line.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 1 or len(xv) == 0:
        raise MetricError("x must be a non-empty 1-D array")
    if not series:
        raise MetricError("need at least one series")
    markers = "*o+x#@%&"
    ys = {}
    for label, y in series.items():
        arr = np.asarray(y, dtype=np.float64)
        if arr.shape != xv.shape:
            raise MetricError(f"series {label!r} length mismatch")
        ys[label] = arr

    all_y = np.concatenate(list(ys.values()))
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xv.min()), float(xv.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, (label, y) in enumerate(ys.items()):
        mark = markers[k % len(markers)]
        cols = np.round((xv - x_lo) / (x_hi - x_lo) * (width - 1)).astype(int)
        rows = np.round((y - y_lo) / (y_hi - y_lo) * (height - 1)).astype(int)
        for c, r in zip(cols, rows):
            grid[height - 1 - r][c] = mark

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:12.4g} +{'-' * width}+")
    for row in grid:
        lines.append(" " * 13 + "|" + "".join(row) + "|")
    lines.append(f"{y_lo:12.4g} +{'-' * width}+")
    lines.append(" " * 14 + f"{x_lo:<10.4g}{'':{max(0, width - 20)}}{x_hi:>10.4g}")
    legend = "   ".join(
        f"{markers[k % len(markers)]} {label}" for k, label in enumerate(ys)
    )
    lines.append(" " * 14 + legend)
    return "\n".join(lines)
