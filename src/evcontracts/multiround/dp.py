"""Backward induction for the multi-round profit license.

State: (round, current license level) on a discretized license grid. In each
round the agent either stops, keeping the current license, or pays the round
cost and replaces the license by a step function of fresh evidence whose
null expectation may not exceed the old level plus the cost paid (the update
divided by that budget is an e-value). Terminal reward is the license value
capped at the grid top; costs are booked additively as they are paid, which
is equivalent for profit-linear utility and keeps the state one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..licenses import LicenseFn
from .discrete import DiscretizedEvidence, optimal_step_discrete
from .optimizer import LicenseGrid, optimal_step
from .values import concave_monotone_hull


@dataclass(frozen=True)
class DPPolicy:
    """Stop/continue rule and license updates per (round, grid level).

    ``value_tables[t][i]`` is the best profit-to-go holding level i after t
    completed rounds; ``actions[t-1][i]`` is the round-t update at level i, a
    LicenseFn of the evidence, or None to stop. ``root_value`` is the value
    of starting the game.
    """

    horizon: int
    grid: LicenseGrid
    costs: tuple[float, ...]
    theta1: float
    value_tables: tuple[np.ndarray, ...]
    actions: tuple[tuple[LicenseFn | None, ...], ...]

    @property
    def root_value(self) -> float:
        return float(self.value_tables[0][0])

    def action(self, t: int, level_index: int) -> LicenseFn | None:
        """Update chosen in round t (1-based) at the given level, None = stop."""
        return self.actions[t - 1][level_index]

    def export_text(self) -> str:
        """Policy table: t,level,action,z_breakpoints,grid_values,value."""
        lines = ["t,level,action,z_breakpoints,grid_values,value"]
        levels = self.grid.level_values()
        for t in range(1, self.horizon + 1):
            for i, level in enumerate(levels):
                update = self.actions[t - 1][i]
                value = self.value_tables[t - 1][i]
                if update is None:
                    lines.append(f"{t},{level:.12g},stop,,,{value:.12g}")
                else:
                    breaks = ";".join(f"{b:.12g}" for b in update.breakpoints)
                    vals = ";".join(f"{v:.12g}" for v in update.values)
                    lines.append(
                        f"{t},{level:.12g},continue,{breaks},{vals},{value:.12g}"
                    )
        return "\n".join(lines) + "\n"


def _round_costs(costs: float | Sequence[float], horizon: int) -> tuple[float, ...]:
    if np.isscalar(costs):
        out = (float(costs),) * horizon
    else:
        out = tuple(float(c) for c in costs)
    if len(out) != horizon:
        raise ValueError(f"need one cost per round: {len(out)} costs, horizon {horizon}")
    if any(c <= 0.0 for c in out):
        raise ValueError("round costs must be positive")
    return out


def backward_induction(
    horizon: int,
    costs: float | Sequence[float],
    theta1: float,
    grid: LicenseGrid,
    evidence: DiscretizedEvidence | None = None,
) -> DPPolicy:
    """Solve the finite-horizon license game for a type-theta1 agent.

    With ``evidence`` None the per-round optimization uses the analytic
    Gaussian-tail optimizer: the concave nondecreasing hull of the next
    round's value table is built once per round and every level's budget is
    solved against it. Otherwise evidence is restricted to the given cells
    and each one-step problem is solved exactly by enumeration, which is the
    mode comparable against brute-force policy search.

    Stopping keeps the current level, so continuation is chosen only when it
    is strictly better.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if not theta1 > 0.0:
        raise ValueError(
            f"the update breakpoints divide by theta1; need theta1 > 0, got {theta1}"
        )
    round_costs = _round_costs(costs, horizon)
    levels = grid.level_values()
    cap = grid.cap

    value = np.minimum(levels, cap)
    tables = [value]
    actions_rev: list[tuple[LicenseFn | None, ...]] = []
    for t in range(horizon, 0, -1):
        cost = round_costs[t - 1]
        previous = np.empty_like(value)
        row: list[LicenseFn | None] = []
        if evidence is None:
            hull = concave_monotone_hull(levels, value)
        for i, level in enumerate(levels):
            budget = level + cost
            if evidence is None:
                update, alt_value = optimal_step(hull, theta1, budget)
            else:
                update, alt_value = optimal_step_discrete(
                    value, theta1, budget, grid, evidence
                )
            continuation = alt_value - cost
            if continuation > level:
                previous[i] = continuation
                row.append(update)
            else:
                previous[i] = level
                row.append(None)
        tables.append(previous)
        actions_rev.append(tuple(row))
        value = previous

    return DPPolicy(
        horizon=horizon,
        grid=grid,
        costs=round_costs,
        theta1=theta1,
        value_tables=tuple(reversed(tables)),
        actions=tuple(reversed(actions_rev)),
    )
