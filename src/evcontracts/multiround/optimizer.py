"""Optimal one-step license updates under a concave value function.

An agent with Gaussian evidence z ~ N(theta, 1) maximizes E_theta[v(g(z))]
over nondecreasing updates g subject to a null budget E_0[g(z)] <= budget.
For piecewise-linear concave v the Lagrangian pointwise maximizer selects,
at each z, the largest knot whose left slope clears lambda divided by the
likelihood ratio. In a Gaussian location family that rule is a step function
of z with breakpoints

    y_k = theta/2 - (1/theta) * log(slope_k / lambda),

one per positive-slope knot, and all the relevant expectations reduce to
normal tails at the y_k (shifted by theta under the alternative). The budget
is monotone decreasing in lambda, so the multiplier is found by bisection.

Every function here takes the value function as a PLCValue. The dynamic
program builds that hull once per round and solves every grid level of the
round against it; the updates are LicenseFn step functions of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..gaussian import upper_tail_np
from ..licenses import LicenseFn
from .values import PLCValue

LAMBDA_REL_TOL = 1e-8
_BRACKET_LO = 1e-6
_BRACKET_HI = 1e6
_BRACKET_LIMIT = 1e-280  # give up expanding beyond this

# Breakpoints closer than this are merged when assembling a step update;
# they arise only from near-equal hull slopes.
_MERGE_TOL = 1e-12


class InfeasibleBudgetError(ValueError):
    """The null budget exceeds what any update on the value's knots can spend."""


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

    def index_of(self, value: float) -> int:
        idx = round(value / self.epsilon)
        if not math.isclose(idx * self.epsilon, value, rel_tol=0.0, abs_tol=1e-9 * self.cap):
            raise ValueError(f"{value} is not a grid level")
        return idx


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


def pointwise_update(v: PLCValue, lam: float, lr: float) -> float:
    """Largest knot whose left slope is at least lam / lr, else 0.

    ``lr`` is the likelihood-ratio value at the observed evidence; ties
    resolve to the larger knot.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not lr > 0.0:
        raise ValueError(f"likelihood ratio must be positive, got {lr}")
    price = lam / lr
    slopes = v.left_slopes()
    qualifying = np.nonzero(slopes >= price)[0]
    if qualifying.size == 0:
        return 0.0
    return float(v.knots[qualifying[-1] + 1])


def _breakpoints(slopes: np.ndarray, lam: float, theta: float) -> np.ndarray:
    return theta / 2.0 - np.log(slopes / lam) / theta


def null_expectation_of_update(v: PLCValue, lam: float, theta: float) -> float:
    """E_0 of the lambda-priced update, via tails at the analytic breakpoints."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    knots, slopes = _positive_slope_prefix(v)
    if knots.size == 0:
        return 0.0
    y = _breakpoints(slopes, lam, theta)
    increments = np.diff(np.concatenate(([0.0], knots)))
    return float(np.dot(increments, upper_tail_np(y)))


def alternative_value_of_update(v: PLCValue, lam: float, theta: float) -> float:
    """E_theta[v(update)]: the optimizer's objective at multiplier lam."""
    knots, slopes = _positive_slope_prefix(v)
    base = float(v.values[0])
    if knots.size == 0:
        return base
    y = _breakpoints(slopes, lam, theta)
    value_steps = np.diff(v.values[: knots.size + 1])
    return base + float(np.dot(value_steps, upper_tail_np(y - theta)))


def max_spendable(v: PLCValue) -> float:
    """Supremum of the null budget any update on v's knots can use."""
    knots, _ = _positive_slope_prefix(v)
    return float(knots[-1]) if knots.size else 0.0


def solve_lambda(v: PLCValue, theta: float, budget: float) -> float:
    """Multiplier whose update spends the null budget exactly.

    The null expectation is continuous and strictly decreasing in lambda on
    the relevant range, so a geometrically expanded bracket plus bisection
    in log-lambda converges to relative tolerance LAMBDA_REL_TOL. Budgets
    above the top reachable knot are infeasible. A bisection that exhausts
    its iterations or its floating-point resolution before meeting the
    tolerance raises RuntimeError rather than return an unconverged root.
    """
    if not budget > 0.0:
        raise ValueError(f"budget must be positive, got {budget}")
    top = max_spendable(v)
    if budget > top:
        raise InfeasibleBudgetError(
            f"budget {budget} exceeds the top reachable knot {top}"
        )

    def spend(lam: float) -> float:
        return null_expectation_of_update(v, lam, theta)

    lo, hi = _BRACKET_LO, _BRACKET_HI
    while spend(lo) < budget:
        lo *= 1e-2
        if lo < _BRACKET_LIMIT:
            raise InfeasibleBudgetError(
                f"budget {budget} is not attainable by any finite multiplier"
            )
    while spend(hi) > budget:
        hi *= 1e2
        if hi > 1.0 / _BRACKET_LIMIT:
            # spend(lambda) -> 0, so this loop always terminates in practice
            raise InfeasibleBudgetError(
                f"budget {budget} is below any positive multiplier's spend"
            )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        value = spend(mid)
        if abs(value - budget) <= LAMBDA_REL_TOL * budget:
            return mid
        if value > budget:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-15:
            break
    raise RuntimeError(
        f"multiplier bisection for budget {budget} stopped at lambda "
        f"{mid!r} with residual {value - budget!r}, above the relative "
        f"tolerance {LAMBDA_REL_TOL}"
    )


def _assemble_update(
    knots: np.ndarray, y: np.ndarray, merge_tol: float = _MERGE_TOL
) -> LicenseFn:
    """Step update with values [0, knots...] at breakpoints y, merging
    zero-width intervals produced by numerically equal slopes."""
    breaks: list[float] = []
    values: list[float] = [0.0]
    for knot, yk in zip(knots, y):
        if breaks and yk - breaks[-1] <= merge_tol:
            values[-1] = knot  # interval collapsed: keep the larger knot
        else:
            breaks.append(float(yk))
            values.append(float(knot))
    return LicenseFn(breaks, values)


def optimal_step(
    value: PLCValue, theta1: float, budget: float
) -> tuple[LicenseFn, float]:
    """Best one-step update of the license under next-stage values ``value``.

    ``value`` is the concave nondecreasing hull of the next round's value
    table (lossless for the optimum), built once per round by the caller.
    The multiplier is solved so the update's null expectation equals
    ``budget``, and the step function plus its expected hull value under
    the alternative are returned. A budget at or above the top reachable
    knot degenerates to the constant top update with slack budget.
    """
    if not theta1 > 0.0:
        raise ValueError(f"theta1 must be positive, got {theta1}")
    if not 0.0 < budget:
        raise ValueError(f"budget must be positive, got {budget}")
    knots, slopes = _positive_slope_prefix(value)
    if knots.size == 0:
        # Flat value function: nothing to optimize, never spend.
        return LicenseFn([], [0.0]), float(value.values[0])
    top = float(knots[-1])
    if budget >= top * (1.0 - 1e-12):
        return LicenseFn([], [top]), float(value(top))
    lam = solve_lambda(value, theta1, budget)
    y = _breakpoints(slopes, lam, theta1)
    return _assemble_update(knots, y), alternative_value_of_update(value, lam, theta1)
