"""Minimal static SVG line plots.

Figures emitted by the CLI are presentation-only; this avoids a charting
dependency. Supports several line series with a legend, axis ticks, and
automatic ranges. Deterministic output: same input, same bytes.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 40, 55


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    raw = (hi - lo) / n
    if not sys.float_info.min <= raw < math.inf:  # no decimal step to find
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    value = first
    # at most n + 1 ticks fit, also where adding a step changes nothing
    for _ in range(n + 1):
        if value > hi + 1e-12 * step:
            break
        out.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    """Text as XML character data, as ``xml.sax.saxutils.escape`` spells it.
    That module imports ``urllib.request`` (ssl, http, email), which would
    add about 30 ms to every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Points formatted per call: bounds the temporary tuple of floats and the
# format string, which for a whole 20 001-point series raise the peak memory.
_CHUNK = 4096


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """Space-separated "x,y" pixel pairs, two decimals each."""
    xy = np.column_stack((px, py)).ravel()
    chunks = []
    for start in range(0, xy.size, 2 * _CHUNK):
        chunk = xy[start:start + 2 * _CHUNK].tolist()
        chunks.append(" ".join(["%.2f,%.2f"] * (len(chunk) // 2)) % tuple(chunk))
    return " ".join(chunks)


def render_lines(
    path: str | Path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write an SVG with one polyline per (name, xs, ys) series.

    The axes span the points of all series; y is padded by 5% each way.
    Pixel coordinates are doubles, written with two decimals ("%.2f"); the
    title, axis labels and series names are XML-escaped. Raises ValueError,
    before the file is opened, if there is no point, a series' xs and ys
    differ in length, a point is not finite, or a padded range overflows.
    """
    arrays = []
    for name, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError(f"series {name!r} has {xs.size} xs but {ys.size} ys")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"series {name!r} has a non-finite point")
        arrays.append((name, xs, ys))
    if not any(xs.size for _, xs, _ in arrays):
        raise ValueError("nothing to plot")
    x_lo = min(float(xs.min()) for _, xs, _ in arrays if xs.size)
    x_hi = max(float(xs.max()) for _, xs, _ in arrays if xs.size)
    y_lo = min(float(ys.min()) for _, _, ys in arrays if ys.size)
    y_hi = max(float(ys.max()) for _, _, ys in arrays if ys.size)
    # widen a point range by 1, or by one ulp where adding 1 rounds away
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("the plot range overflows a double")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # pixel coordinates of a float or, elementwise, of an array of them
    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for xt in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(xt):.2f}" y1="{_MARGIN_T + plot_h}" '
            f'x2="{sx(xt):.2f}" y2="{_MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{sx(xt):.2f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xt)}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{sy(yt):.2f}" '
            f'x2="{_MARGIN_L}" y2="{sy(yt):.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{sy(yt) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yt)}</text>'
        )
    if y_lo <= 0.0 <= y_hi:
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{sy(0.0):.2f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{sy(0.0):.2f}" stroke="#bbb" stroke-dasharray="4,4"/>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2})">{_escape(ylabel)}</text>'
    )
    for i, (name, xs, ys) in enumerate(arrays):
        color = _COLORS[i % len(_COLORS)]
        points = _points(sx(xs), sy(ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 14 + 16 * i
        lx = _MARGIN_L + plot_w - 160
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
