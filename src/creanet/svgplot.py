"""Dependency-free SVG scatter of year versus min-max-scaled score.

Output is plain deterministic text: fixed canvas, one circle per artifact,
axis labels at the data extremes. Tests compare structure (marker count, axis
range), not pixels.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN = 50
RADIUS = 3


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """XML-escape element text; the stdlib escapers pull in modules worth 0.4 MiB at import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def minmax_scale(scores: np.ndarray) -> np.ndarray:
    """Scale to [0, 1]; a constant vector maps to 0.5 everywhere."""
    scores = np.asarray(scores, dtype=np.float64)
    span = float(scores.max() - scores.min())
    if span == 0.0:
        return np.full(scores.shape, 0.5)
    return (scores - scores.min()) / span


def scatter_svg(years: np.ndarray, scores: np.ndarray, title: str = "creativity scores") -> str:
    """Self-contained SVG text: year on x, min-max-scaled score on y."""
    years = np.asarray(years, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if years.shape != scores.shape or years.ndim != 1 or years.size == 0:
        raise ValueError("years and scores must be equal-length non-empty 1-D arrays")

    y_scaled = minmax_scale(scores)
    x_lo, x_hi = float(years.min()), float(years.max())
    x_span = x_hi - x_lo
    plot_w = WIDTH - 2 * MARGIN
    plot_h = HEIGHT - 2 * MARGIN
    if x_span == 0.0:
        px = np.full(years.shape, MARGIN + plot_w / 2.0)
    else:
        px = MARGIN + (years - x_lo) / x_span * plot_w
    py = HEIGHT - MARGIN - y_scaled * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'  <title>{_escape(title)}</title>',
        f'  <rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'  <line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'  <line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'  <text x="{MARGIN}" y="{HEIGHT - MARGIN + 20}" font-size="12" '
        f'data-role="x-min">{int(x_lo)}</text>',
        f'  <text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 20}" font-size="12" '
        f'text-anchor="end" data-role="x-max">{int(x_hi)}</text>',
        f'  <text x="{MARGIN - 8}" y="{HEIGHT - MARGIN}" font-size="12" '
        f'text-anchor="end" data-role="y-min">0</text>',
        f'  <text x="{MARGIN - 8}" y="{MARGIN + 4}" font-size="12" '
        f'text-anchor="end" data-role="y-max">1</text>',
    ]
    for x, y in zip(px, py):
        lines.append(f'  <circle cx="{_fmt(float(x))}" cy="{_fmt(float(y))}" '
                     f'r="{RADIUS}" fill="steelblue" fill-opacity="0.6"/>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


def write_scatter_svg(years: np.ndarray, scores: np.ndarray, path: str | Path,
                      title: str = "creativity scores") -> None:
    Path(path).write_text(scatter_svg(years, scores, title=title), encoding="utf-8")
