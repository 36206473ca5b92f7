"""Piecewise-linear concave value functions and the reductions onto them.

The one-step license optimizer only ever needs a concave nondecreasing value
function: running the monotone envelope (left-to-right running maximum) and
then the least concave majorant over a tabulated function loses nothing,
because an optimal update never puts mass where the original function sits
below the transformed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SLOPE_SLACK = 1e-9  # relative slack when validating concavity of raw knots


def _read_only(xs) -> np.ndarray:
    out = np.array(xs, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PLCValue:
    """Concave nondecreasing piecewise-linear function on [0, knots[-1]].

    Knots and values are finite (a NaN or inf would slip past the order
    checks). Knots are strictly increasing with knots[0] == 0; values are
    nondecreasing with nonincreasing left slopes. The implicit left slope at
    the origin is +infinity, so the origin is always an admissible support
    point of an optimizer built on this function. ``knots``, ``values`` and
    the left slopes are read-only float arrays computed once here.
    """

    knots: np.ndarray
    values: np.ndarray

    def __init__(self, knots: Sequence[float], values: Sequence[float]):
        knots = _read_only(knots)
        values = _read_only(values)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size == 0:
            raise ValueError("need one value per knot and at least one knot")
        if not (np.isfinite(knots).all() and np.isfinite(values).all()):
            raise ValueError("knots and values must be finite")
        if knots[0] != 0.0:
            raise ValueError(f"first knot must be 0, got {knots[0]}")
        if np.any(knots[1:] <= knots[:-1]):
            raise ValueError("knots must be strictly increasing")
        if np.any(values[1:] < values[:-1]):
            raise ValueError("values must be nondecreasing")
        slopes = _read_only(np.diff(values) / np.diff(knots))
        scale = float(np.max(np.abs(slopes), initial=0.0))
        if np.any(slopes[1:] > slopes[:-1] + _SLOPE_SLACK * max(scale, 1.0)):
            raise ValueError("left slopes must be nonincreasing (concavity)")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_slopes", slopes)

    def left_slopes(self) -> np.ndarray:
        """Slope of segment k (into knot k), for k = 1..K."""
        return self._slopes

    def __call__(self, x):
        """Piecewise-linear interpolation, clamped to the knot range."""
        return np.interp(x, self.knots, self.values)


def monotone_envelope(values: Sequence[float]) -> np.ndarray:
    """Running maximum from the left of a tabulated function."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one tabulated value")
    return np.maximum.accumulate(values)


def least_concave_majorant(
    xs: Sequence[float], ys: Sequence[float]
) -> PLCValue:
    """Least concave majorant of a tabulated function, as a PLCValue.

    The majorant is the upper hull of the points; it coincides with the
    input wherever the input is already concave. Collinear interior points
    are dropped, so consecutive hull slopes are strictly decreasing. The
    input values must yield a nondecreasing hull (always true for
    nondecreasing inputs), since PLCValue has no decreasing segments.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs and ys must be equal-length nonempty 1-d sequences")
    # Monotone-chain upper hull: pop the middle point whenever it lies on or
    # below the chord of its neighbors. The test multiplies two differences,
    # which overflow or underflow at extreme scales, so it runs on copies of
    # the axes scaled by powers of two (exactly) to a largest magnitude below 1.
    sx, sy = (np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1]).tolist() for a in (xs, ys))
    hull: list[tuple[int, float, float]] = []
    for i, (x, y) in enumerate(zip(sx, sy)):
        while len(hull) >= 2:
            (_, x1, y1), (_, x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) <= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((i, x, y))
    keep = [p[0] for p in hull]
    return PLCValue(xs[keep], ys[keep])


def concave_monotone_hull(xs: Sequence[float], ys: Sequence[float]) -> PLCValue:
    """Least concave nondecreasing majorant: envelope then majorant.

    The two reductions commute; either order produces the least function
    that is concave, nondecreasing, and dominates the input.
    """
    return least_concave_majorant(xs, monotone_envelope(ys))
