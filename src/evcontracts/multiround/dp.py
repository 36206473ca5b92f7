"""Backward induction for the multi-round profit license.

State: (round, current license level) on a discretized license grid. In each
round the agent either stops, keeping the current license, or pays the round
cost and replaces the license by a step function of fresh evidence whose
null expectation may not exceed the old level plus the cost paid (the update
divided by that budget is an e-value). Terminal reward is the license value
held, at most the grid top; costs are booked additively as they are paid, which
is equivalent for profit-linear utility and keeps the state one-dimensional.

The updates of all levels in a round share one step pattern and differ only
in their multiplier, so the policy stores each round as one StepBatch instead
of one update per level; its stop/continue mask is read off the value table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..licenses import LicenseFn
from .optimizer import ALT_FIT_REL_TOL, LAMBDA_REL_TOL, LicenseGrid, StepBatch, optimal_steps
from .values import concave_monotone_hull

# ulps a round that bound the float rounding of its values; counted up in
# DPPolicy.precision_floor
ROUNDING_ULPS = 8


@dataclass(frozen=True)
class DPPolicy:
    """Stop/continue rule and license updates per (round, grid level).

    ``value_tables[t][i]`` is the best profit-to-go holding level i after t
    completed rounds. ``updates[t-1]`` holds the round-t updates of every
    level as one StepBatch (entry i is level i's update), and level i
    continues in round t, ``go[t-1][i]``, exactly when its value beats the
    level itself. ``root_value`` is the value of starting the game.
    """

    grid: LicenseGrid
    costs: tuple[float, ...]
    value_tables: tuple[np.ndarray, ...]
    updates: tuple[StepBatch, ...]

    @property
    def horizon(self) -> int:
        return len(self.costs)

    @functools.cached_property
    def go(self) -> tuple[np.ndarray, ...]:
        return tuple(value > self.grid.level_values() for value in self.value_tables[:-1])

    @property
    def root_value(self) -> float:
        return float(self.value_tables[0][0])

    @property
    def precision_floor(self) -> float:
        """Bound on the root's error: the multiplier tolerance to first
        order, plus the alternative values' fit tolerance, plus ROUNDING_ULPS
        ulps a round for float rounding. Scaling cap and cost by 2^k scales
        it by exactly 2^k.

        An update meets its budget B only to LAMBDA_REL_TOL·B, which moves its
        expected value V(B) by at most LAMBDA_REL_TOL·lambda·B: its multiplier
        lambda is the slope of V, concave in B. Expectations and the
        stop/continue max pass errors on without growth, so round t adds
        LAMBDA_REL_TOL times the mean of lambda·B along the policy. That mean
        is at most the round's largest lambda·B and, as lambda·B <= V(B) -
        V(0), at most the root plus the costs of rounds 1..t.

        A solved level's alternative value A, its continuation plus the cost,
        is read off its fit cell's interpolant only where the cell's last two
        Chebyshev coefficients, the estimate of the interpolant's error, are
        at most ALT_FIT_REL_TOL times A's least value on the cell, so at most
        ALT_FIT_REL_TOL·A; elsewhere A is priced exactly. Whether the level
        stops or continues, its value moves by no more than that, and the mean
        of A along the policy in round t is at most the root plus the costs of
        rounds 1..t: round t adds ALT_FIT_REL_TOL times that, where it solved
        a level.

        Rounding passes on the same way. A solved level's continuation is
        made of the alternative value, a sum of value steps times normal
        tails, v(0) added to it and the cost taken off it; none exceeds m,
        the level's value plus the cost, so each rounding on the way errs by
        at most half an ulp of m. Eight ulps of m count three for the tails
        (erfc's relative error and its argument's rounding), one for the
        products, three for the pairwise additions of the step sum and one
        for adding v(0) and taking off the cost. That is an estimate, not a
        worst case: the step sum's error grows, slowly, with the number of
        knots. m is at most the round's largest solved budget and its mean
        along the policy at most the root plus the costs of rounds 1..t, so
        round t adds ROUNDING_ULPS ulps of the smaller of the two. A level
        whose budget buys the constant top update (u = -inf) reads the top
        value as is and only takes the cost off it, exactly when the cost is
        at least half that value and otherwise with a relative error of half
        an ulp; a round with no solved level adds nothing.
        """
        levels = self.grid.level_values()
        budgets = [levels + c for c in self.costs]
        spent = [(np.exp(b.u) * B).max() for b, B in zip(self.updates, budgets)]
        # each round's largest budget whose update was solved, 0 where none was
        solved = np.array([B[b.u > -np.inf].max(initial=0.0)
                           for b, B in zip(self.updates, budgets)])
        paid = self.root_value + np.cumsum(self.costs)
        tolerance = LAMBDA_REL_TOL * float(np.minimum(spent, paid).sum())
        fit = ALT_FIT_REL_TOL * float(paid[solved > 0.0].sum())
        rounding = ROUNDING_ULPS * float(np.spacing(np.minimum(solved, paid))[solved > 0.0].sum())
        return tolerance + fit + rounding

    def action(self, t: int, level_index: int) -> LicenseFn | None:
        """Update chosen in round t (1-based) at the given level, None = stop."""
        if not self.go[t - 1][level_index]:
            return None
        return self.updates[t - 1][level_index]

    def export_text(self) -> str:
        """The policy as stored, floats as repr: ``t,level,action,log_multiplier,
        value`` per (round, level), then a blank line and ``t,theta,log_slopes,
        step_values`` per round. Level breakpoints: theta/2 - (log_slopes - u)/theta."""
        lines = ["t,level,action,log_multiplier,value"]
        levels = list(map(repr, self.grid.level_values().tolist()))
        for t, batch in enumerate(self.updates, 1):
            rows = zip(levels, self.go[t - 1].tolist(), map(repr, batch.u.tolist()),
                       map(repr, self.value_tables[t - 1].tolist()))
            lines += [f"{t},{level},continue,{u},{value}" if go else f"{t},{level},stop,,{value}"
                      for level, go, u, value in rows]
        lines += ["", "t,theta,log_slopes,step_values"]
        for t, batch in enumerate(self.updates, 1):
            slopes = ";".join(map(repr, batch.log_slopes.tolist()))
            values = ";".join(map(repr, batch.values.tolist()))
            lines.append(f"{t},{float(batch.theta)!r},{slopes},{values}")
        return "\n".join(lines) + "\n"


def _round_costs(costs: float | Sequence[float], horizon: int) -> tuple[float, ...]:
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if np.isscalar(costs):
        out = (float(costs),) * horizon
    else:
        out = tuple(float(c) for c in costs)
    if len(out) != horizon:
        raise ValueError(f"need one cost per round: {len(out)} costs, horizon {horizon}")
    if not all(0.0 < c < np.inf for c in out):  # false for NaN too
        raise ValueError(f"round costs must be positive and finite, got {out}")
    return out


def _induct(
    grid: LicenseGrid,
    round_costs: Sequence[float],
    best_steps: Callable[[np.ndarray, np.ndarray], tuple[object, np.ndarray]],
) -> tuple[list[np.ndarray], list[object]]:
    """Backward induction from the terminal value, the level held, over the rounds.

    ``best_steps(value, budgets)`` solves one round: given the next round's
    value table and each level's budget (level plus the round's cost), it
    returns the levels' updates and their expected next-round values under
    the alternative. Stopping keeps the current level, so continuation is
    chosen only when it is strictly better. Returns the value tables, entry
    t after t completed rounds, and each round's updates in round order.
    """
    levels = grid.level_values()
    value = levels
    tables = [value]
    rounds = []
    for cost in reversed(round_costs):
        updates, alt_values = best_steps(value, levels + cost)
        continuation = alt_values - cost
        value = np.where(continuation > levels, continuation, levels)
        tables.append(value)
        rounds.append(updates)
    return tables[::-1], rounds[::-1]


def backward_induction(
    horizon: int,
    costs: float | Sequence[float],
    theta1: float,
    grid: LicenseGrid,
) -> DPPolicy:
    """Solve the finite-horizon license game for a type-theta1 agent.

    The per-round optimization uses the analytic Gaussian-tail optimizer:
    the concave nondecreasing hull of the next round's value table is built
    once per round, all levels' log multipliers are solved against it and
    stored as certified, and their updates are scored on the solver's fit
    cells, so each round makes one dense pass over its levels.

    A root that continues with a profit below its precision floor cannot be
    told from zero and raises RuntimeError.
    """
    if not theta1 > 0.0:
        raise ValueError(
            f"the update breakpoints divide by theta1; need theta1 > 0, got {theta1}"
        )
    round_costs = _round_costs(costs, horizon)
    levels = grid.level_values()

    def best_steps(value: np.ndarray, budgets: np.ndarray) -> tuple[StepBatch, np.ndarray]:
        return optimal_steps(concave_monotone_hull(levels, value), theta1, budgets)

    tables, updates = _induct(grid, round_costs, best_steps)
    policy = DPPolicy(grid, round_costs, tuple(tables), tuple(updates))
    if 0.0 < policy.root_value < policy.precision_floor:
        raise RuntimeError(
            f"root value {policy.root_value!r} at theta1 {theta1!r} is below its "
            f"precision floor {policy.precision_floor!r}"
        )
    return policy
