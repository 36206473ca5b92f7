"""Exact one-step optimization on a finite evidence grid.

When the evidence is restricted to finitely many cells, the one-step problem
(maximize the expected next-stage value subject to the null budget, over
nondecreasing grid-valued updates) is a small combinatorial program. A
nondecreasing update from n cells to K+1 license levels is a sorted tuple of
K jump positions in {0..n} (position n means the level is never reached), so
the whole family is enumerated once and scored against each round's value
table in one vectorized pass. discrete_root_value plugs that solver into the
round loop backward_induction runs, so a brute-force policy search on the
same grid checks the recursion itself, not a copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from ..gaussian import upper_tail_np
from .dp import _induct, _round_costs
from .optimizer import LicenseGrid

_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class DiscretizedEvidence:
    """Evidence z binned into cells around a fixed grid of finite points.

    Cell boundaries (edges) are the midpoints between consecutive grid
    points, with unbounded first and last cells. discrete_root_value needs
    only the normal tails at the edges: the chance of reaching cell j or
    beyond is the tail at the edge below it.
    """

    z_points: tuple[float, ...]

    def __init__(self, z_points: Sequence[float]):
        pts = tuple(float(z) for z in z_points)
        if len(pts) < 2:
            raise ValueError("need at least two evidence points")
        if not all(math.isfinite(z) for z in pts):
            raise ValueError(f"evidence points must be finite, got {pts}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("evidence points must be strictly increasing")
        object.__setattr__(self, "z_points", pts)


def discrete_root_value(
    horizon: int,
    cost: float | Sequence[float],
    theta1: float,
    grid: LicenseGrid,
    evidence: DiscretizedEvidence,
) -> float:
    """Root value of the license game with evidence restricted to the cells.

    Backward induction as in ``backward_induction``, with ``cost`` a scalar
    or one cost per round, but each round's one-step problem is solved
    exactly: every nondecreasing grid-valued update on the cells is scored,
    and the best one whose null spend fits a level's budget (level plus
    cost, with slack since the feasible set is finite) is that level's
    continuation. The updates, their null spends and their level-reaching
    probabilities under the alternative do not depend on the round, so they
    are built once.
    """
    if math.isnan(theta1):
        raise ValueError("theta1 must not be NaN")
    round_costs = _round_costs(cost, horizon)
    # Level-reach tails indexed by jump position j in {0..n}: S[j] = P(cell >= j),
    # 1 at j = 0, the tail at the edge below cell j inside, 0 at j = n.
    pts = np.asarray(evidence.z_points)
    edges = (pts[:-1] + pts[1:]) / 2.0
    s0, s1 = (np.concatenate(([1.0], upper_tail_np(edges - mean), [0.0])) for mean in (0.0, theta1))
    # every update as its sorted K-tuple of jump positions in {0..n}
    jumps = combinations_with_replacement(range(s0.size), grid.levels)
    combos = np.array(list(jumps), dtype=np.int64)
    # The all-(n)-jumps row (constant zero update) spends nothing, so every
    # budget has a feasible update.
    spend = grid.epsilon * s0[combos].sum(axis=1)
    reach = s1[combos]  # reach[c, k]: P_theta1(update c pays level k + 1 or more)

    def best_steps(value: np.ndarray, budgets: np.ndarray) -> tuple[None, np.ndarray]:
        objective = value[0] + (np.diff(value)[np.newaxis, :] * reach).sum(axis=1)
        best = [objective[spend <= budget + _FEASIBILITY_SLACK].max() for budget in budgets]
        return None, np.array(best)

    tables, _ = _induct(grid, round_costs, best_steps)
    return float(tables[0][0])
