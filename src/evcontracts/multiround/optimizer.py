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
is strictly decreasing in u = log lambda with the closed-form derivative
-sum_k inc_k * phi(y_k) / theta, so the multiplier is found by a bracketed
Newton iteration in u.

Every function here takes the value function as a PLCValue. The dynamic
program builds that hull once per round and solves every grid level of the
round against it in one vectorized pass (optimal_steps). The gaps between
breakpoints do not depend on lambda, so the round's updates are kept as one
StepBatch: the shared step values and log-slopes plus one log-multiplier per
level, from which a LicenseFn step function of z is built only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..gaussian import upper_tail_np
from ..licenses import LicenseFn
from .values import PLCValue

LAMBDA_REL_TOL = 1e-12
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e6
_BRACKET_WIDEN = 1e2  # geometric step when a budget lies outside the bracket
_TABLE_POINTS = 65  # log-lambda points tabulated over [_BRACKET_LO, _BRACKET_HI]
_MAX_ITERATIONS = 200

# Breakpoints closer than this are merged when assembling a step update;
# they arise only from near-equal hull slopes.
_MERGE_TOL = 1e-12

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
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.levels < 1:
            raise ValueError(f"need at least one level, got {self.levels}")

    @property
    def cap(self) -> float:
        return self.levels * self.epsilon

    @staticmethod
    def from_cap(cap: float, levels: int) -> "LicenseGrid":
        return LicenseGrid(epsilon=cap / levels, levels=levels)

    def level_values(self) -> np.ndarray:
        return np.arange(self.levels + 1) * self.epsilon


def _positive_slope_prefix(v: PLCValue) -> tuple[np.ndarray, np.ndarray]:
    """(knot values, slopes) of the knots actually reachable by the optimizer.

    Slopes are nonincreasing, so nonpositive slopes form a suffix; knots
    behind a zero slope are never selected (the price can never be beaten)
    and are excluded here, which also makes the update prefer the leftmost
    point of any flat stretch.
    """
    slopes = v.left_slopes()
    keep = int(np.searchsorted(-slopes, 0.0, side="left"))
    return v.knots[1 : keep + 1], slopes[:keep]


def _breakpoints(log_slopes: np.ndarray, u: np.ndarray, theta: float) -> np.ndarray:
    """Breakpoints y[l, k] of the update priced at log-multiplier u[l]."""
    return theta / 2.0 - (log_slopes - u[:, None]) / theta


def _spend(
    increments: np.ndarray, y: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Null expectation of each row's update, sum_k inc_k * P_0(z >= y_k),
    and its derivative in log lambda, -sum_k inc_k * phi(y_k) / theta."""
    spend = (increments * upper_tail_np(y)).sum(axis=1)
    slope = (increments * np.exp(-0.5 * y * y)).sum(axis=1) / (-theta * _SQRT_2PI)
    return spend, slope


def _alternative_values(v: PLCValue, n_knots: int, y: np.ndarray, theta: float) -> np.ndarray:
    """E_theta[v(update)] of each row's update with breakpoints y."""
    value_steps = np.diff(v.values[: n_knots + 1])
    return float(v.values[0]) + (value_steps * upper_tail_np(y - theta)).sum(axis=1)


def null_expectation_of_update(v: PLCValue, lam: float, theta: float) -> float:
    """E_0 of the lambda-priced update, via tails at the analytic breakpoints."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    knots, slopes = _positive_slope_prefix(v)
    if knots.size == 0:
        return 0.0
    y = _breakpoints(np.log(slopes), np.array([math.log(lam)]), theta)
    spend, _ = _spend(np.diff(knots, prepend=0.0), y, theta)
    return float(spend[0])


def solve_lambda(v: PLCValue, theta: float, budget):
    """Multiplier whose update spends the null budget exactly.

    ``budget`` is a scalar or a 1-D array; the result has the same shape.
    The null expectation is continuous and strictly decreasing in
    u = log lambda, so it is tabulated once on a fixed log-lambda grid over
    [_BRACKET_LO, _BRACKET_HI], the grid is widened geometrically until it
    brackets every budget, and each budget's root is polished from the
    interpolated table by a Newton iteration that bisects its bracket
    whenever a step leaves it. Every budget must meet the relative tolerance
    LAMBDA_REL_TOL. Budgets above the top reachable knot are infeasible, and
    so is a budget the tabulated spend has not reached once widening stops
    changing it in floating point. A solve that exhausts its iterations or
    its floating-point resolution before meeting the tolerance, or whose
    multiplier lies outside the normal double range (MultiplierRangeError),
    raises RuntimeError rather than return an unconverged or unusable root
    (never lambda 0).
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    budgets = np.atleast_1d(np.asarray(budget, dtype=float))
    if budgets.ndim != 1:
        raise ValueError(f"budget must be a scalar or a 1-D array, got shape {budgets.shape}")
    bad = ~(budgets > 0.0)
    if bad.any():
        raise ValueError(f"budget must be positive, got {float(budgets[bad][0])}")
    knots, slopes = _positive_slope_prefix(v)
    top = float(knots[-1]) if knots.size else 0.0
    over = budgets > top
    if over.any():
        raise InfeasibleBudgetError(
            f"budget {float(budgets[over][0])} exceeds the top reachable knot {top}"
        )
    log_slopes = np.log(slopes)
    increments = np.diff(knots, prepend=0.0)

    def spend(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _spend(increments, _breakpoints(log_slopes, u, theta), theta)

    grid = np.linspace(math.log(_BRACKET_LO), math.log(_BRACKET_HI), _TABLE_POINTS)
    grid, table = grid.tolist(), spend(grid)[0].tolist()
    widen = math.log(_BRACKET_WIDEN)
    # Widen each end until it brackets every budget; once a step no longer
    # moves the spend in floating point, no multiplier further out does.
    while table[0] < budgets.max():
        grid.insert(0, grid[0] - widen)
        table.insert(0, float(spend(np.array(grid[:1]))[0][0]))
        if not table[0] > table[1]:
            raise InfeasibleBudgetError(
                f"budget {float(budgets.max())} is not attainable by any finite multiplier"
            )
    while table[-1] > budgets.min():
        grid.append(grid[-1] + widen)
        table.append(float(spend(np.array(grid[-1:]))[0][0]))
        if not table[-1] < table[-2]:
            raise InfeasibleBudgetError(
                f"budget {float(budgets.min())} is below any positive multiplier's spend"
            )
    grid, table = np.array(grid), np.array(table)

    # Bracket each budget between adjacent table points (spend decreases
    # along the table) and start from the linear interpolant.
    right = np.clip(np.searchsorted(-table, -budgets, side="left"), 1, grid.size - 1)
    lo, hi = grid[right - 1], grid[right]
    s_left, s_right = table[right - 1], table[right]
    drop = s_left - s_right
    frac = np.divide(s_left - budgets, drop, out=np.full(budgets.shape, 0.5), where=drop > 0.0)
    u = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)

    # u_at and residual hold the last evaluated point of each budget.
    u_at = u.copy()
    residual = np.full(budgets.shape, np.inf)
    active = np.arange(budgets.size)
    for _ in range(_MAX_ITERATIONS):
        ua, target = u[active], budgets[active]
        value, slope = spend(ua)
        r = value - target
        u_at[active], residual[active] = ua, r
        # spend decreases in u: too much spend means the root lies above ua
        lo_a = np.where(r > 0.0, ua, lo[active])
        hi_a = np.where(r > 0.0, hi[active], ua)
        lo[active], hi[active] = lo_a, hi_a
        # a step that overflows is discarded by the bracket test below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = ua - r / slope
        mid = 0.5 * (lo_a + hi_a)
        step = np.where((newton > lo_a) & (newton < hi_a), newton, mid)
        u[active] = step
        converged = np.abs(r) <= LAMBDA_REL_TOL * target
        # floating-point resolution exhausted: no new point left to try
        stalled = (step == ua) | ~((lo_a < mid) & (mid < hi_a))
        active = active[~(converged | stalled)]
        if active.size == 0:
            break
    missed = ~(np.abs(residual) <= LAMBDA_REL_TOL * budgets)
    if missed.any():
        worst = int(np.argmax(np.where(missed, np.abs(residual) / budgets, -np.inf)))
        raise RuntimeError(
            f"multiplier solve for budget {float(budgets[worst])} stopped at lambda "
            f"{math.exp(u_at[worst])!r} with residual {float(residual[worst])!r}, "
            f"above the relative tolerance {LAMBDA_REL_TOL}"
        )
    lam = np.exp(u_at)
    # A subnormal lambda would make log(lambda) in optimal_steps inexact, and
    # 0 would read as the constant update.
    outside = ~((lam >= np.finfo(float).tiny) & (lam < math.inf))
    if outside.any():
        worst = int(np.argmax(outside))
        raise MultiplierRangeError(
            f"multiplier for budget {float(budgets[worst])} at theta {theta!r} is "
            f"exp({float(u_at[worst])!r}), outside the normal double range"
        )
    return float(lam[0]) if np.ndim(budget) == 0 else lam


def _merge_pattern(
    knots: np.ndarray, log_slopes: np.ndarray, theta: float
) -> tuple[list[int], list[float]]:
    """Kept breakpoint indices and the values [0, knots...] of the update's
    intervals, with zero-width intervals from numerically equal slopes
    merged into the larger knot.

    Breakpoint gaps y_k - y_j = (log slope_j - log slope_k) / theta do not
    depend on lambda, so one pattern serves every budget of a round.
    """
    keep: list[int] = []
    values = [0.0]
    log_slopes = log_slopes.tolist()
    for k, knot in enumerate(knots.tolist()):
        if keep and (log_slopes[keep[-1]] - log_slopes[k]) / theta <= _MERGE_TOL:
            values[-1] = knot  # interval collapsed: keep the larger knot
        else:
            keep.append(k)
            values.append(knot)
    return keep, values


@dataclass(frozen=True, eq=False)
class StepBatch:
    """The optimal updates of a batch of budgets, stored as one step pattern.

    Update i pays the shared step ``values`` on the intervals cut by its
    breakpoints y[i, k] = theta/2 - (log_slopes[k] - u[i]) / theta, so it is
    fixed by its log-multiplier u[i] alone; u[i] = -inf marks the constant
    update values[-1]. Indexing builds update i as a LicenseFn; ``evaluate``
    applies it without building one.
    """

    theta: float
    log_slopes: np.ndarray
    values: np.ndarray
    u: np.ndarray

    def breakpoints(self, rows=slice(None)) -> np.ndarray:
        """Breakpoint matrix of the given rows; rows with u = -inf are -inf."""
        return _breakpoints(self.log_slopes, self.u[rows], self.theta)

    def __getitem__(self, i: int) -> LicenseFn:
        if self.u[i] == -math.inf:
            return LicenseFn([], [self.values[-1]])
        return LicenseFn(self.breakpoints([i])[0].tolist(), self.values.tolist())

    def evaluate(self, i: int, z):
        """Update i at the evidence z, equal to ``self[i](z)``."""
        return self.values[np.searchsorted(self.breakpoints([i])[0], z, side="right")]


def optimal_steps(
    value: PLCValue, theta1: float, budgets
) -> tuple[StepBatch, np.ndarray]:
    """Best one-step updates of the license, one per budget, under next-stage
    values ``value``.

    ``value`` is the concave nondecreasing hull of the next round's value
    table (lossless for the optimum), built once per round by the caller.
    Each budget's multiplier is solved so its update's null expectation
    equals the budget; all budgets share one multiplier solve. Returns the
    updates and their expected hull values under the alternative. A budget
    at or above the top reachable knot degenerates to the constant top
    update with slack budget.
    """
    if not theta1 > 0.0:
        raise ValueError(f"theta1 must be positive, got {theta1}")
    budgets = np.asarray(budgets, dtype=float)
    if budgets.ndim != 1:
        raise ValueError(f"budgets must be a 1-D array, got shape {budgets.shape}")
    bad = ~(budgets > 0.0)
    if bad.any():
        raise ValueError(f"budget must be positive, got {float(budgets[bad][0])}")
    knots, slopes = _positive_slope_prefix(value)
    log_slopes = np.log(slopes)
    keep, step_values = _merge_pattern(knots, log_slopes, theta1)
    # A flat value function has no knot worth buying: it never spends.
    top = float(knots[-1]) if knots.size else 0.0
    u = np.full(budgets.size, -math.inf)
    alt_values = np.full(budgets.size, float(value(top)))
    inner = np.flatnonzero(budgets < top * (1.0 - 1e-12))
    if inner.size:
        u[inner] = np.log(solve_lambda(value, theta1, budgets[inner]))
        y = _breakpoints(log_slopes, u[inner], theta1)
        alt_values[inner] = _alternative_values(value, knots.size, y, theta1)
    return StepBatch(theta1, log_slopes[keep], np.array(step_values), u), alt_values


def optimal_step(
    value: PLCValue, theta1: float, budget: float
) -> tuple[LicenseFn, float]:
    """Best one-step update for a single budget; see optimal_steps."""
    batch, alt_values = optimal_steps(value, theta1, [budget])
    return batch[0], float(alt_values[0])
