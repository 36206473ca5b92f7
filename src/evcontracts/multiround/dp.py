"""Backward induction for the multi-round profit license.

State: (round, current license level) on a discretized license grid. In each
round the agent either stops, keeping the current license, or pays the round
cost and replaces the license by a step function of fresh evidence whose
null expectation may not exceed the old level plus the cost paid (the update
divided by that budget is an e-value). Terminal reward is the license value
capped at the grid top; costs are booked additively as they are paid, which
is equivalent for profit-linear utility and keeps the state one-dimensional.

The updates of all levels in a round share one step pattern and differ only
in their multiplier, so the policy stores each round as one StepBatch plus a
stop/continue mask instead of one update per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..licenses import LicenseFn
from .optimizer import LicenseGrid, StepBatch, optimal_steps
from .values import concave_monotone_hull


@dataclass(frozen=True)
class DPPolicy:
    """Stop/continue rule and license updates per (round, grid level).

    ``value_tables[t][i]`` is the best profit-to-go holding level i after t
    completed rounds. ``updates[t-1]`` holds the round-t updates of every
    level as one StepBatch (entry i is level i's update) and ``go[t-1][i]``
    says whether level i continues in round t. ``root_value`` is the value
    of starting the game.
    """

    horizon: int
    grid: LicenseGrid
    costs: tuple[float, ...]
    value_tables: tuple[np.ndarray, ...]
    updates: tuple[StepBatch, ...]
    go: tuple[np.ndarray, ...]

    @property
    def root_value(self) -> float:
        return float(self.value_tables[0][0])

    def action(self, t: int, level_index: int) -> LicenseFn | None:
        """Update chosen in round t (1-based) at the given level, None = stop."""
        if not self.go[t - 1][level_index]:
            return None
        return self.updates[t - 1][level_index]

    def export_text(self) -> str:
        """Policy table: t,level,action,z_breakpoints,grid_values,value."""
        lines = ["t,level,action,z_breakpoints,grid_values,value"]
        levels = self.grid.level_values()
        for t in range(1, self.horizon + 1):
            batch = self.updates[t - 1]
            values = _join_12g(tuple(batch.values.tolist()))
            top = _join_12g((float(batch.values[-1]),))
            rows = zip(
                levels, self.value_tables[t - 1], self.go[t - 1], batch.u, batch.breakpoints()
            )
            for level, value, go, u, breaks in rows:
                if not go:
                    lines.append(f"{t},{level:.12g},stop,,,{value:.12g}")
                elif u == -np.inf:
                    lines.append(f"{t},{level:.12g},continue,,{top},{value:.12g}")
                else:
                    breaks = _join_12g(tuple(breaks.tolist()))
                    lines.append(f"{t},{level:.12g},continue,{breaks},{values},{value:.12g}")
        return "\n".join(lines) + "\n"


def _join_12g(xs: tuple[float, ...]) -> str:
    """``xs`` as ';'-separated %.12g fields, formatted in one call."""
    return ";".join(["%.12g"] * len(xs)) % xs


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


def backward_induction(
    horizon: int,
    costs: float | Sequence[float],
    theta1: float,
    grid: LicenseGrid,
) -> DPPolicy:
    """Solve the finite-horizon license game for a type-theta1 agent.

    The per-round optimization uses the analytic Gaussian-tail optimizer:
    the concave nondecreasing hull of the next round's value table is built
    once per round and the budgets of all levels are solved against it
    together, in one bracketed Newton pass.

    Stopping keeps the current level, so continuation is chosen only when it
    is strictly better.
    """
    if not theta1 > 0.0:
        raise ValueError(
            f"the update breakpoints divide by theta1; need theta1 > 0, got {theta1}"
        )
    round_costs = _round_costs(costs, horizon)
    levels = grid.level_values()
    cap = grid.cap

    value = np.minimum(levels, cap)
    tables = [value]
    rounds: list[tuple[StepBatch, np.ndarray]] = []
    for t in range(horizon, 0, -1):
        cost = round_costs[t - 1]
        batch, alt_values = optimal_steps(
            concave_monotone_hull(levels, value), theta1, levels + cost
        )
        continuation = alt_values - cost
        go = continuation > levels
        value = np.where(go, continuation, levels)
        tables.append(value)
        rounds.append((batch, go))

    updates, go = zip(*reversed(rounds))
    return DPPolicy(
        horizon=horizon,
        grid=grid,
        costs=round_costs,
        value_tables=tuple(reversed(tables)),
        updates=updates,
        go=go,
    )
