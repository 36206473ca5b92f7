"""Optimal one-step license updates under a concave value function.

An agent with Gaussian evidence z ~ N(theta, 1) maximizes E_theta[v(g(z))]
over nondecreasing updates g subject to a null budget E_0[g(z)] <= budget.
For piecewise-linear concave v the Lagrangian pointwise maximizer selects,
at each z, the largest knot whose left slope clears lambda divided by the
likelihood ratio. In a Gaussian location family that rule is a step function
of z with breakpoints

    y_k = theta/2 - (1/theta) * (log slope_k - log lambda),

one per positive-slope knot, and all the relevant expectations reduce to
normal tails at the y_k (shifted by theta under the alternative). The budget
is smooth and strictly decreasing in u = log lambda, the multiplier's one
form: each root u comes from a Chebyshev interpolant of the spend on a fixed
cell of u, and one loop of exact spend passes certifies it or steps it on.
The update's expected value under the alternative, as smooth in u, is read
off an interpolant on the same cell wherever that is accurate enough.

Every function here takes the value function as a PLCValue. The dynamic
program builds that hull once per round and solves every grid level of the
round against it together (optimal_steps). The gaps between breakpoints do
not depend on lambda, so the round's updates are kept as one StepBatch: the
shared step values and log-slopes plus the solver's u for each level, from
which a LicenseFn step function of z is built only on demand.
One knot set serves throughout: every positive-slope hull knot is priced by
the multiplier solve, scored under the alternative and stored as a step.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..gaussian import upper_tail_inverse, upper_tail_np
from ..licenses import LicenseFn
from .values import PLCValue, _read_only

LAMBDA_REL_TOL = 1e-12
# _solve_log_lambda tabulates the spend at u = k * _LATTICE_STEP + _LATTICE_ORIGIN
# (linspace(log 1e-6, log 1e6, 65) at k = 0..64), fixed so batch and single solves agree.
_LATTICE_ORIGIN = math.log(1e-6)
_LATTICE_STEP = (math.log(1e6) - math.log(1e-6)) / 64
_MAX_ITERATIONS = 200
# _fitted_roots: the widest fit cell in breakpoint units, and the most nodes;
# below theta 0.09 a lattice cell needs more, and the fit only starts Newton
_FIT_WIDTH, _MAX_NODES, _FIT_STEPS = 1.5, 32, 2
# relative error allowed an alternative value read off a fit cell's interpolant
# (_alternative_fit); DPPolicy.precision_floor counts it
ALT_FIT_REL_TOL = 1e-12

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class InfeasibleBudgetError(ValueError):
    """The null budget exceeds what any update on the value's knots can spend."""


class MultiplierRangeError(RuntimeError):
    """The multiplier that spends a budget lies outside the normal double range.

    Typically the effect is too large for the budget, whose update would
    need a lambda below the smallest normal double.
    """


@dataclass(frozen=True)
class LicenseGrid:
    """Discretized license values {0, epsilon, ..., levels * epsilon}."""

    epsilon: float
    levels: int

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not isinstance(self.levels, numbers.Integral) or self.levels < 1:
            raise ValueError(f"levels must be an integer >= 1, got {self.levels!r}")
        if not self.cap < math.inf:
            raise ValueError(f"levels * epsilon must be finite, got {self.levels} * {self.epsilon}")

    @property
    def cap(self) -> float:
        return self.levels * self.epsilon

    @staticmethod
    def from_cap(cap: float, levels: int) -> "LicenseGrid":
        return LicenseGrid(epsilon=cap / levels, levels=levels)

    def level_values(self) -> np.ndarray:
        return np.arange(self.levels + 1) * self.epsilon


def _positive_slope_prefix(v: PLCValue) -> tuple[np.ndarray, np.ndarray]:
    """(knot values, log left slopes) of the knots actually reachable by the
    optimizer; every caller prices breakpoints, which need the log-slopes.

    Slopes are nonincreasing, so nonpositive slopes form a suffix; knots
    behind a zero slope are never selected (the price can never be beaten)
    and are excluded here, which also makes the update prefer the leftmost
    point of any flat stretch.
    """
    slopes = v.left_slopes()
    keep = int(np.searchsorted(-slopes, 0.0, side="left"))
    return v.knots[1 : keep + 1], np.log(slopes[:keep])


def _breakpoints(log_slopes, u, theta: float):
    """Breakpoints theta/2 - (log_slopes - u) / theta, broadcast elementwise:
    pass u[:, None] for the matrix y[l, k] of the updates priced at u[l].
    A breakpoint beyond the double range (a subnormal theta) is +-inf.
    Built in place in the one new array, and so are the kernels below: each
    leaves its y as it was."""
    with np.errstate(over="ignore"):
        y = np.subtract(log_slopes, u)
        y /= theta
        # a scalar y (scalar log_slopes and u) is not written in place
        return np.subtract(theta / 2.0, y, out=y if y.ndim else None)


def _spend(increments: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Null expectation sum_k inc_k * P_0(z >= y_k) of each row's update."""
    tails = upper_tail_np(y)
    tails *= increments
    return tails.sum(axis=1)


def _spend_slope(increments: np.ndarray, y: np.ndarray, theta: float) -> np.ndarray:
    """Derivative of each row's spend in log lambda, -sum_k inc_k * phi(y_k) / theta."""
    # y * y overflows only where phi(y) is 0 anyway
    with np.errstate(over="ignore"):
        density = np.multiply(y, -0.5)
        density *= y
        np.exp(density, out=density)
        density *= increments
        return density.sum(axis=1) / (-theta * _SQRT_2PI)


def _alternative_values(v: PLCValue, n_knots: int, y: np.ndarray, theta: float) -> np.ndarray:
    """E_theta[v(update)] of each row's update with breakpoints y: the value
    steps priced by _spend at the breakpoints shifted by -theta."""
    return float(v.values[0]) + _spend(np.diff(v.values[: n_knots + 1]), y - theta)


def null_expectation_of_update(v: PLCValue, lam: float, theta: float) -> float:
    """E_0 of the lambda-priced update, via tails at the analytic breakpoints."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    knots, log_slopes = _positive_slope_prefix(v)
    if knots.size == 0:
        return 0.0
    y = _breakpoints(log_slopes, np.array([[math.log(lam)]]), theta)
    return float(_spend(np.diff(knots, prepend=0.0), y)[0])


def _tail_quantile(p: float) -> float:
    """upper_tail_inverse(p) extended to its limits: +inf at p = 0, -inf at p = 1."""
    if 0.0 < p < 1.0:
        return upper_tail_inverse(p)
    return math.inf if p <= 0.0 else -math.inf


@functools.cache
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev-Lobatto points, 1 down to -1, and the (n, 3, n) map from
    values there to the coefficients of the interpolant and its two derivatives."""
    k = np.arange(n)
    ends = np.where(k % (n - 1) == 0, 0.5, 1.0)
    w = np.cos(np.pi / (n - 1) * np.outer(k, k)) * ends * ends[:, None] * (2.0 / (n - 1))
    # a derivative's c'_k sums 2 j c_j over j > k with j - k odd, halved at k = 0
    d = np.where((k > k[:, None]) & ((k - k[:, None]) % 2 == 1), 2.0 * k, 0.0) * ends[:, None]
    dw = (d[:, :, None] * w).sum(axis=1)
    w = _read_only(np.stack([w, dw, (d[:, :, None] * dw).sum(axis=1)], 1))  # cached, so read-only
    return _read_only(np.cos(np.pi / (n - 1) * k)), w


def _fit_cells(theta: float, cell: np.ndarray):
    """The fit cells holding lattice cells ``cell`` (left ends' lattice
    indices). A fit cell joins the m >= 1 lattice cells that keep its width in
    breakpoint units, w = m * _LATTICE_STEP / theta, within _FIT_WIDTH, and has
    n = 10 + 4.5 w (at most _MAX_NODES) Chebyshev-Lobatto nodes. Returns the
    fit cells' midpoints and half-width in u, n, and each lattice cell's fit
    cell; all depend on theta and the lattice cell alone."""
    m = max(1.0, math.floor(_FIT_WIDTH * theta / _LATTICE_STEP))
    n = math.ceil(min(10.0 + 4.5 * m * _LATTICE_STEP / theta, _MAX_NODES))
    cells, row = np.unique(np.floor(cell / m), return_inverse=True)
    return (cells + 0.5) * m * _LATTICE_STEP + _LATTICE_ORIGIN, 0.5 * m * _LATTICE_STEP, n, row


def _clenshaw(coef, t):
    """The Chebyshev series with coefficients coef[0], coef[1], ... at t, by
    Clenshaw's recurrence b = c + 2 t b1 - b2, each step in one new array;
    t broadcasts against coef[j]."""
    t2, b1 = 2.0 * t, np.zeros(coef.shape[1:])
    b2 = b1
    for c in coef[:0:-1]:
        b = t2 * b1
        b += c
        b -= b2
        b1, b2 = b, b1
    return coef[0] + t * b1 - b2


def _fitted_roots(f: np.ndarray, row: np.ndarray, log_shares: np.ndarray) -> np.ndarray:
    """Roots t in [-1, 1] of log share = log_shares, each on fit cell row[i],
    given the log shares f[c] at cell c's Chebyshev-Lobatto nodes. The
    interpolant (with its two derivatives) takes coefficients by elementwise
    products and sums, no BLAS: a root depends on theta, its cell and budget
    alone. Each root starts from the chord of the two nodes around it and
    takes _FIT_STEPS Halley steps, clamped to the cell (NaN to its left end)."""
    n = f.shape[1]
    x, w = _chebyshev(n)
    with np.errstate(all="ignore"):  # a share that underflows fails certification
        coef = (f[:, None, None, :] * w).sum(axis=3).transpose(1, 2, 0)[:, :, row]
        coef[0, 0] -= log_shares
        f, rows = f[row] - log_shares[:, None], np.arange(row.size)  # rising, as u falls
        j = np.clip((f < 0.0).sum(axis=1), 1, n - 1)
        f0, f1 = f[rows, j - 1], f[rows, j]
        t = x[j - 1] + np.clip(f0 / (f0 - f1), 0.0, 1.0) * (x[j] - x[j - 1])
        for _ in range(_FIT_STEPS):
            p, slope, curve = _clenshaw(coef, t)
            t = np.fmin(np.fmax(t - p * slope / (slope * slope - 0.5 * p * curve), -1.0), 1.0)
    return t


def _alternative_fit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev coefficients of each fit cell's interpolant of the alternative
    value, from its values a[c] at cell c's nodes (elementwise, no BLAS), and
    whether the cell passes: its last two coefficients, which estimate the
    interpolant's error, sum to at most ALT_FIT_REL_TOL times the cell's
    smallest node value. The value falls as u rises, so that is its value at
    the cell's right end, the least anywhere in the cell."""
    w = _chebyshev(a.shape[1])[1][:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test
        coef = (a[:, None, :] * w).sum(axis=2)
        trailing = np.abs(coef[:, -1]) + np.abs(coef[:, -2])
    return coef, trailing <= ALT_FIT_REL_TOL * a.min(axis=1)


def _checked_budgets(theta: float, budgets) -> np.ndarray:
    """``budgets`` as a 1-D float array, checked positive with theta."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    budgets = np.asarray(budgets, dtype=float)
    if budgets.ndim != 1:
        raise ValueError(f"budgets must be a 1-D array, got shape {budgets.shape}")
    bad = ~(budgets > 0.0)
    if bad.any():
        raise ValueError(f"budget must be positive, got {float(budgets[bad][0])}")
    return budgets


def solve_lambda(v: PLCValue, theta: float, budget):
    """Multiplier exp(u) whose update spends the null budget exactly, u the root
    _solve_log_lambda certifies; the result has the shape of ``budget``."""
    budgets = _checked_budgets(theta, np.atleast_1d(budget))
    lam = np.exp(_solve_log_lambda(*_positive_slope_prefix(v), theta, budgets)[0])
    return float(lam[0]) if np.ndim(budget) == 0 else lam


def _solve_log_lambda(knots, log_slopes, theta: float, budgets: np.ndarray, value=None):
    """Log-multipliers u whose updates on the positive-slope ``knots`` of
    ``value`` spend ``budgets``, and the updates' alternative values (None
    without ``value``, which only they need).

    The null spend S(u) = sum_k inc_k * P_0(z >= theta/2 - (l_k - u)/theta),
    with u = log lambda and l_k the nonincreasing log-slopes, is a mixture of
    normal tails, continuous and strictly decreasing in u, so each budget's
    root lies in the closed-form bracket

        l_last + theta * (q - theta/2) <= u <= l_first + theta * (q - theta/2),

    q the upper normal quantile of budget / sum_k inc_k. The spend is
    tabulated on the fixed log-lambda lattice points that cover the batch's
    brackets (clipped to the normal double range, one point of slack each
    side), and each root is taken from an interpolant of log S on its fit
    cell, a run of lattice cells set by theta (_fit_cells, _fitted_roots).
    Each pass of one loop then prices the open budgets at their u, the first
    certifying the fits to the relative tolerance LAMBDA_REL_TOL; only a miss
    (most, at theta below about 0.09) gets the slope S' and a Newton step,
    bisecting its bracket whenever the step would leave it. Lattice and fit
    cells are fixed, so a budget's root does not depend on the budgets solved
    with it. A budget above the top reachable knot, or above the total
    increment (the spend's limit as lambda goes to 0), is infeasible. A
    multiplier outside the normal double range, unbracketed or solved there,
    raises MultiplierRangeError; running out of passes or of floating-point
    resolution short of the tolerance raises RuntimeError.

    The alternative value A(u) = v(0) + sum_k dv_k * P_0(z >= y_k - theta),
    dv_k the value's steps, is as smooth in u as S. So it is read off an
    interpolant on the same fit cells, built from _alternative_values at the
    nodes' breakpoint matrix, at each certified root: the certify pass stays
    the only dense pass over the budgets. A cell whose interpolant fails
    _alternative_fit's error test prices its roots exactly instead, by
    _alternative_values at the breakpoints of the pass that certified them.
    """
    top = float(knots[-1]) if knots.size else 0.0
    over = budgets > top
    if over.any():
        raise InfeasibleBudgetError(
            f"budget {float(budgets[over][0])} exceeds the top reachable knot {top}"
        )
    increments = np.diff(knots, prepend=0.0)
    total = float(increments.sum())
    b_max, b_min = float(budgets.max()), float(budgets.min())
    if b_max > total:
        raise InfeasibleBudgetError(
            f"budget {b_max} is not attainable by any finite multiplier"
        )

    # The largest budget has the lowest root and the smallest the highest.
    log_tiny, log_max = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    u_lo = log_slopes[-1] + theta * (_tail_quantile(b_max / total) - theta / 2.0)
    u_hi = log_slopes[0] + theta * (_tail_quantile(b_min / total) - theta / 2.0)
    u_lo, u_hi = (min(max(float(u), log_tiny), log_max) for u in (u_lo, u_hi))
    first = math.floor((u_lo - _LATTICE_ORIGIN) / _LATTICE_STEP) - 1
    last = math.ceil((u_hi - _LATTICE_ORIGIN) / _LATTICE_STEP) + 1
    grid = np.arange(first, last + 1) * _LATTICE_STEP + _LATTICE_ORIGIN
    table = _spend(increments, _breakpoints(log_slopes, grid[:, None], theta))
    # The padded bracket holds every root, and where it was clipped the table
    # reaches a step past that end of the double range: a budget the table
    # misses has its root beyond it.
    if table[0] < b_max or table[-1] > b_min:
        below = table[0] < b_max
        b, u = (b_max, grid[0]) if below else (b_min, grid[-1])
        raise MultiplierRangeError(
            f"multiplier for budget {b} at theta {theta!r} lies "
            f"{'below' if below else 'above'} exp({float(u)!r}), outside the normal double range"
        )

    # Bracket each budget between adjacent table points (spend decreases
    # along the table) and fit its root there.
    right = np.clip(np.searchsorted(-table, -budgets, side="left"), 1, grid.size - 1)
    lo, hi = grid[right - 1], grid[right]
    centre, half, n, cell = _fit_cells(theta, first + right - 1.0)
    y = _breakpoints(log_slopes, (centre[:, None] + half * _chebyshev(n)[0]).reshape(-1, 1), theta)
    with np.errstate(all="ignore"):  # a share that underflows fails certification
        f = np.log(_spend(increments, y) / total).reshape(centre.size, n)
    u = centre[cell] + half * _fitted_roots(f, cell, np.log(budgets / total))
    alt = exact = None
    if value is not None:
        coef, passed = _alternative_fit(
            _alternative_values(value, knots.size, y, theta).reshape(centre.size, n))
        alt, exact = np.empty_like(budgets), ~passed[cell]
    # u_at and residual hold the last priced point of each budget.
    u_at, residual = u.copy(), np.empty_like(budgets)
    active = np.arange(budgets.size)
    for _ in range(_MAX_ITERATIONS):
        ua, target = u[active], budgets[active]
        y = _breakpoints(log_slopes, ua[:, None], theta)
        r = _spend(increments, y) - target
        u_at[active], residual[active] = ua, r
        miss = ~(np.abs(r) <= LAMBDA_REL_TOL * target)
        if exact is not None:
            priced = ~miss & exact[active]
            if priced.any():
                alt[active[priced]] = _alternative_values(value, knots.size, y[priced], theta)
        active, ua, r = active[miss], ua[miss], r[miss]
        if active.size == 0:
            break
        # spend decreases in u: too much spend means the root lies above ua
        lo_a = np.where(r > 0.0, ua, lo[active])
        hi_a = np.where(r > 0.0, hi[active], ua)
        lo[active], hi[active] = lo_a, hi_a
        # a step that overflows is discarded by the bracket test below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = ua - r / _spend_slope(increments, y[miss], theta)
        mid = 0.5 * (lo_a + hi_a)
        step = np.where((newton > lo_a) & (newton < hi_a), newton, mid)
        # floating-point resolution exhausted: no new point left to try
        moved = (step != ua) & (lo_a < mid) & (mid < hi_a)
        active = active[moved]
        u[active] = step[moved]
    missed = ~(np.abs(residual) <= LAMBDA_REL_TOL * budgets)
    if missed.any():
        with np.errstate(over="ignore"):  # a subnormal budget's ratio is inf, the worst
            worst = int(np.argmax(np.where(missed, np.abs(residual) / budgets, -np.inf)))
        raise RuntimeError(
            f"multiplier solve for budget {float(budgets[worst])} stopped at lambda "
            f"{math.exp(u_at[worst])!r} with residual {float(residual[worst])!r}, "
            f"above the relative tolerance {LAMBDA_REL_TOL}"
        )
    # u in [log_tiny, log_max] is exactly lambda = exp(u) normal, returned or stored
    outside = ~((u_at >= log_tiny) & (u_at <= log_max))
    if outside.any():
        worst = int(np.argmax(outside))
        raise MultiplierRangeError(
            f"multiplier for budget {float(budgets[worst])} at theta {theta!r} is "
            f"exp({float(u_at[worst])!r}), outside the normal double range"
        )
    if exact is not None:
        fit = ~exact
        alt[fit] = _clenshaw(coef[cell[fit]].T, (u_at[fit] - centre[cell[fit]]) / half)
    return u_at, alt


@dataclass(frozen=True, eq=False)
class StepBatch:
    """The optimal updates of a batch of budgets, stored as one step pattern.

    Update i pays the shared step ``values`` on the intervals cut by its
    breakpoints y[i, k] = theta/2 - (log_slopes[k] - u[i]) / theta, so it is
    fixed by its log-multiplier u[i] alone; u[i] = -inf marks the constant
    update values[-1]. There is one breakpoint per positive-slope hull knot
    and ``values`` is [0, knots...]; at equal breakpoints the larger knot is
    paid from the tie on. Indexing builds update i as a LicenseFn;
    ``evaluate`` applies any mix of updates to evidence without building one.
    """

    theta: float
    log_slopes: np.ndarray
    values: np.ndarray
    u: np.ndarray

    def __getitem__(self, i: int) -> LicenseFn:
        if self.u[i] == -math.inf:
            return LicenseFn([], [self.values[-1]])
        breaks = _breakpoints(self.log_slopes, self.u[i], self.theta)
        return LicenseFn(breaks.tolist(), self.values.tolist())

    def evaluate(self, rows, z):
        """Update rows[j] at z[j], equal to ``self[rows[j]](z[j])``; rows
        broadcasts against z. A binary search over the count of breakpoints
        at or below each z (as searchsorted side="right") probes each power
        of two through ``_breakpoints``: the floats ``self[i]`` is built from,
        in O(len(z)) memory for any mix of rows."""
        u, z = np.broadcast_arrays(self.u[rows], z)
        n_breaks = self.log_slopes.size
        count = np.zeros(z.shape, dtype=np.intp)
        for shift in reversed(range(n_breaks.bit_length())):
            probe = count + (1 << shift)
            y = _breakpoints(self.log_slopes[np.minimum(probe, n_breaks) - 1], u, self.theta)
            count = np.where((probe <= n_breaks) & (y <= z), probe, count)
        return self.values[count]


def optimal_steps(
    value: PLCValue, theta1: float, budgets
) -> tuple[StepBatch, np.ndarray]:
    """Best one-step updates of the license, one per budget, under ``value``,
    the concave nondecreasing hull of the next round's value table (lossless
    for the optimum), built once per round by the caller.

    One _solve_log_lambda call prices every budget, whose certified roots u
    are stored as returned, and scores the updates under the alternative.
    Returns the updates, a step at every positive-slope knot, and their
    expected hull values. A budget at or above the top reachable knot gets
    the constant top update, with slack budget.
    """
    budgets = _checked_budgets(theta1, budgets)
    knots, log_slopes = _positive_slope_prefix(value)
    # A flat value function has no knot worth buying: it never spends.
    top = float(knots[-1]) if knots.size else 0.0
    u = np.full(budgets.size, -math.inf)
    alt_values = np.full(budgets.size, float(value(top)))
    inner = np.flatnonzero(budgets < top * (1.0 - LAMBDA_REL_TOL))
    if inner.size:
        u[inner], alt_values[inner] = _solve_log_lambda(
            knots, log_slopes, theta1, budgets[inner], value)
    return StepBatch(theta1, log_slopes, np.concatenate(([0.0], knots)), u), alt_values


def optimal_step(
    value: PLCValue, theta1: float, budget: float
) -> tuple[LicenseFn, float]:
    """Best one-step update for a single budget; see optimal_steps."""
    batch, alt_values = optimal_steps(value, theta1, [budget])
    return batch[0], float(alt_values[0])
