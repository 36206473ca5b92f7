"""Exact one-step optimization on a finite evidence grid.

When the evidence is restricted to finitely many cells, the one-step problem
(maximize the expected next-stage value subject to the null budget, over
nondecreasing grid-valued updates) is a small combinatorial program. A
nondecreasing update from n cells to K+1 license levels is a sorted tuple of
K jump positions in {0..n} (position n means the level is never reached), so
the whole family is enumerated once and scored against each round's value
table in one vectorized pass. discrete_root_value is the discretization
used when the dynamic program must agree exactly with a brute-force policy
search on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from ..gaussian import upper_tail_np
from .optimizer import LicenseGrid

_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True)
class DiscretizedEvidence:
    """Evidence z binned into cells around a fixed grid of points.

    Cell boundaries are the midpoints between consecutive grid points, with
    unbounded first and last cells.
    """

    z_points: tuple[float, ...]

    def __init__(self, z_points: Sequence[float]):
        pts = tuple(float(z) for z in z_points)
        if len(pts) < 2:
            raise ValueError("need at least two evidence points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("evidence points must be strictly increasing")
        object.__setattr__(self, "z_points", pts)

    @property
    def n_cells(self) -> int:
        return len(self.z_points)

    def edges(self) -> np.ndarray:
        pts = np.asarray(self.z_points)
        return (pts[:-1] + pts[1:]) / 2.0

    def cell_probabilities(self, mean: float) -> np.ndarray:
        """P(Z in cell) for Z ~ N(mean, 1), one entry per cell."""
        tails = upper_tail_np(self.edges() - mean)
        probs = np.empty(self.n_cells)
        probs[0] = 1.0 - tails[0]
        probs[1:-1] = tails[:-1] - tails[1:]
        probs[-1] = tails[-1]
        return probs


def discrete_root_value(
    horizon: int,
    cost: float,
    theta1: float,
    grid: LicenseGrid,
    evidence: DiscretizedEvidence,
) -> float:
    """Root value of the license game with evidence restricted to the cells.

    Backward induction as in ``backward_induction``, but each round's
    one-step problem is solved exactly: every nondecreasing grid-valued
    update on the cells is scored, and the best one whose null spend fits a
    level's budget (level plus cost, with slack since the feasible set is
    finite) is that level's continuation. The updates, their null spends
    and their level-reaching probabilities under the alternative do not
    depend on the round, so they are built once.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if not cost > 0.0:
        raise ValueError(f"round cost must be positive, got {cost}")
    # Suffix sums indexed by jump position: S[j] = P(cell >= j); S[n] = 0.
    s0, s1 = (
        np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))
        for p in (evidence.cell_probabilities(0.0), evidence.cell_probabilities(theta1))
    )
    # every update as its sorted K-tuple of jump positions in {0..n}
    jumps = combinations_with_replacement(range(evidence.n_cells + 1), grid.levels)
    combos = np.array(list(jumps), dtype=np.int64)
    # The all-(n)-jumps row (constant zero update) spends nothing, so every
    # budget has a feasible update.
    spend = grid.epsilon * s0[combos].sum(axis=1)
    reach = s1[combos]  # reach[c, k]: P_theta1(update c pays level k + 1 or more)
    levels = grid.level_values()
    value = np.minimum(levels, grid.cap)
    for _ in range(horizon):
        objective = value[0] + (np.diff(value)[np.newaxis, :] * reach).sum(axis=1)
        best = np.array(
            [objective[spend <= level + cost + _FEASIBILITY_SLACK].max() for level in levels]
        )
        continuation = best - cost
        value = np.where(continuation > levels, continuation, levels)
    return float(value[0])
