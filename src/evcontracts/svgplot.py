"""Minimal static SVG line plots.

Figures emitted by the CLI are presentation-only; this avoids a charting
dependency. Supports several line series with a legend, axis ticks, and
automatic ranges. Deterministic output: same input, same bytes. Each text
element is written by ``_text``, which fixes the font family and is the one
place text is XML-escaped; each tick, zero line and legend key by ``_line``.
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
_TICK_INTERVALS = 5  # an axis range over this, rounded up, is the tick step


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / _TICK_INTERVALS
    if not sys.float_info.min <= raw < math.inf:  # no decimal step to find
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    out, value = [], math.ceil(lo / step) * step
    # at most one tick per interval end, also where adding a step changes nothing
    for _ in range(_TICK_INTERVALS + 1):
        if value > hi + 1e-12 * step:
            break
        out.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return out


def _escape(text: str) -> str:
    """Text as XML character data, as ``xml.sax.saxutils.escape`` spells it.
    That module imports ``urllib.request`` (ssl, http, email), which would
    add about 30 ms to every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# Points formatted per call: bounds the temporary tuple of floats and the
# format string, which for a whole 20 001-point series raise the peak memory.
_CHUNK = 4096


def _text(x, y, size: int, body: str, anchor: str | None = "middle", transform: str = "") -> str:
    """A <text> element in the plot's font family; ``body`` is XML-escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{_escape(body)}</text>')


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


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
    all_xs = np.concatenate([np.empty(0), *(xs for _, xs, _ in arrays)])
    all_ys = np.concatenate([np.empty(0), *(ys for _, _, ys in arrays)])
    if not all_xs.size:
        raise ValueError("nothing to plot")
    x_lo, x_hi = float(all_xs.min()), float(all_xs.max())
    y_lo, y_hi = float(all_ys.min()), float(all_ys.max())
    del all_xs, all_ys  # copies of every point, which would raise the peak memory
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
    bottom, right = _MARGIN_T + plot_h, _MARGIN_L + plot_w

    # pixel coordinates of a float or, elementwise, of an array of them
    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_WIDTH / 2, 24, 15, title),
        # axes box
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        x = f"{sx(xt):.2f}"
        parts += [_line(x, bottom, x, bottom + 5, 'stroke="#444"'),
                  _text(x, bottom + 20, 11, f"{xt:.6g}")]
    for yt in _ticks(y_lo, y_hi):
        y = sy(yt)
        parts += [_line(_MARGIN_L - 5, f"{y:.2f}", _MARGIN_L, f"{y:.2f}", 'stroke="#444"'),
                  _text(_MARGIN_L - 9, f"{y + 4:.2f}", 11, f"{yt:.6g}", anchor="end")]
    if y_lo <= 0.0 <= y_hi:
        y = f"{sy(0.0):.2f}"
        parts.append(_line(_MARGIN_L, y, right, y, 'stroke="#bbb" stroke-dasharray="4,4"'))
    mid_y = _MARGIN_T + plot_h / 2
    parts += [_text(_WIDTH / 2, _HEIGHT - 12, 13, xlabel),
              _text(18, mid_y, 13, ylabel, transform=f"rotate(-90 18 {mid_y})")]
    lx = right - 160
    for i, (name, xs, ys) in enumerate(arrays):
        style = f'stroke="{_COLORS[i % len(_COLORS)]}" stroke-width="1.8"'
        ly = _MARGIN_T + 14 + 16 * i
        parts += [f'<polyline points="{_points(sx(xs), sy(ys))}" fill="none" {style}/>',
                  _line(lx, ly - 4, lx + 22, ly - 4, style),
                  _text(lx + 28, ly, 12, name, anchor=None)]
    Path(path).write_text("\n".join(parts) + "\n</svg>\n", encoding="utf-8")
