"""Exact one-step optimization on a finite evidence grid.

When the evidence is restricted to finitely many cells, the one-step problem
(maximize the expected next-stage value subject to the null budget, over
nondecreasing grid-valued updates) is a small combinatorial program. A
nondecreasing update from n cells to K+1 license levels is a sorted tuple of
K jump positions in {0..n} (position n means the level is never reached), so
the whole family is enumerated and scored in one vectorized pass. This is
the discretization used when the dynamic program must agree exactly with a
brute-force policy search on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from ..gaussian import upper_tail_np
from ..licenses import LicenseFn
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


@lru_cache(maxsize=8)
def _jump_combinations(n_cells: int, levels: int) -> np.ndarray:
    """All sorted K-tuples of jump positions in {0..n_cells}, as an array."""
    combos = np.fromiter(
        (
            j
            for combo in combinations_with_replacement(range(n_cells + 1), levels)
            for j in combo
        ),
        dtype=np.int64,
    )
    return combos.reshape(-1, levels)


def _update_from_jumps(
    jumps: np.ndarray, evidence: DiscretizedEvidence, grid: LicenseGrid
) -> LicenseFn:
    cells = np.arange(evidence.n_cells)
    level_per_cell = np.searchsorted(jumps, cells, side="right")
    edges = evidence.edges()
    breaks = []
    values = [grid.epsilon * level_per_cell[0]]
    for c in range(1, evidence.n_cells):
        if level_per_cell[c] != level_per_cell[c - 1]:
            breaks.append(float(edges[c - 1]))
            values.append(grid.epsilon * level_per_cell[c])
    return LicenseFn(breaks, values)


def optimal_step_discrete(
    v_next: Sequence[float],
    theta1: float,
    budget: float,
    grid: LicenseGrid,
    evidence: DiscretizedEvidence,
) -> tuple[LicenseFn, float]:
    """Exact best nondecreasing grid-valued update on the evidence cells.

    Returns the update and its expected next-stage value under the
    alternative; the null budget constraint may bind with slack since the
    feasible set is finite.
    """
    v_next = np.asarray(v_next, dtype=float)
    if v_next.shape != (grid.levels + 1,):
        raise ValueError(
            f"v_next must be tabulated on all {grid.levels + 1} grid levels"
        )
    p0 = evidence.cell_probabilities(0.0)
    p1 = evidence.cell_probabilities(theta1)
    # Suffix sums indexed by jump position: S[j] = P(cell >= j); S[n] = 0.
    s0 = np.concatenate((np.cumsum(p0[::-1])[::-1], [0.0]))
    s1 = np.concatenate((np.cumsum(p1[::-1])[::-1], [0.0]))

    combos = _jump_combinations(evidence.n_cells, grid.levels)
    spend = grid.epsilon * s0[combos].sum(axis=1)
    feasible = spend <= budget + _FEASIBILITY_SLACK
    # The all-(n)-jumps row (constant zero update) is always feasible.
    value_steps = np.diff(v_next)
    objective = v_next[0] + (value_steps[np.newaxis, :] * s1[combos]).sum(axis=1)
    objective = np.where(feasible, objective, -np.inf)
    best = int(np.argmax(objective))
    return (
        _update_from_jumps(combos[best], evidence, grid),
        float(objective[best]),
    )
