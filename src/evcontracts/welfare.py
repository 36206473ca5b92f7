"""Principal welfare over mixtures of agent types.

Utility model: approving a null product costs society c1 < 0, approving an
effective one gains c2 > 0, and nothing happens when the agent opts out or
is rejected. All licenses in the experiments are all-or-nothing, so the
principal's utility depends on the evidence only through the approval event
and every curve here is computed in closed form from normal tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import GaussianModel, upper_tail
from .licenses import Menu, null_expectation
from .single_round import Contract, agent_decide, status_quo_license

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class TypeMixture:
    """Finite distribution over agent types: (theta, weight) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        object.__setattr__(
            self, "atoms", tuple((float(t), float(w)) for t, w in atoms)
        )
        if any(w < 0.0 for _, w in self.atoms):
            raise ValueError("mixture weights must be nonnegative")
        total = sum(w for _, w in self.atoms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    @staticmethod
    def two_point(pi0: float, theta0: float, theta1: float) -> "TypeMixture":
        return TypeMixture([(theta0, pi0), (theta1, 1.0 - pi0)])


@dataclass(frozen=True)
class WelfareSpec:
    """Per-approval utilities: cost_null < 0 for nulls, benefit > 0 otherwise."""

    cost_null: float
    benefit_nonnull: float

    def __post_init__(self) -> None:
        if not (self.cost_null < 0.0 < self.benefit_nonnull):
            raise ValueError(
                "need cost_null < 0 < benefit_nonnull, got "
                f"{self.cost_null}, {self.benefit_nonnull}"
            )


# |c1| normalized to 1; severity ratios c2/|c1| of 10 and 4/7.
HIGH_SEVERITY = WelfareSpec(cost_null=-1.0, benefit_nonnull=10.0)
LOW_SEVERITY = WelfareSpec(cost_null=-1.0, benefit_nonnull=4.0 / 7.0)


@dataclass(frozen=True)
class MaximinReport:
    per_type_utility: tuple[tuple[float, float], ...]
    infimum: float
    worst_theta: float
    is_maximin: bool


def _type_utility(theta: float, contract: Contract, welfare: WelfareSpec) -> float:
    """Expected utility contributed by a single agent of type theta."""
    decision = agent_decide(theta, contract)
    if not decision.opted_in:
        return 0.0
    threshold = decision.chosen_license.approval_threshold()
    # exactly 1.0 at threshold -inf and 0.0 at +inf
    p_approve = upper_tail(threshold - theta)
    stake = welfare.cost_null if theta <= 0.0 else welfare.benefit_nonnull
    return p_approve * stake


def principal_utility(
    mixture: TypeMixture, contract: Contract, welfare: WelfareSpec
) -> float:
    """Closed-form expected utility of the principal over the mixture."""
    return sum(
        w * _type_utility(theta, contract, welfare) for theta, w in mixture.atoms
    )


def expected_market_size(mixture: TypeMixture, contract: Contract) -> float:
    """Mixture-averaged expected license value of opted-in agents.

    This is the principal's utility under a utility affine in the payout,
    and the quantity that the all-e-values menu maximizes among aligned
    menus.
    """
    total = 0.0
    for theta, w in mixture.atoms:
        decision = agent_decide(theta, contract)
        if decision.opted_in:
            total += w * null_expectation(decision.chosen_license, GaussianModel(theta))
    return total


def aligned_contract(cost: float, cap: float) -> Contract:
    return Contract(Menu.all_evalues(cost), cap)


def status_quo_contract(cost: float, cap: float) -> Contract:
    return Contract(Menu.explicit([status_quo_license(cap)], cost), cap)


def welfare_curve(
    pi0_grid: Sequence[float],
    cost: float,
    cap: float,
    welfare: WelfareSpec,
    theta1: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (pi0, utility_aligned, utility_status_quo) on the null-share
    grid, as float64 arrays.

    Both menus are built from the trial ``cost`` and the market ``cap``; the
    mixture puts mass pi0 on the null type 0 and the rest on theta1.
    """
    pi0 = np.asarray(pi0_grid, dtype=float)
    if not ((0.0 <= pi0) & (pi0 <= 1.0)).all():  # NaN fails both
        raise ValueError("pi0 grid values must lie in [0, 1]")
    # The mixture expectation is affine in pi0, so only the two endpoint
    # utilities are computed per menu; each point rounds as the scalar
    # pi0 * u_null + (1.0 - pi0) * u_alt does.
    ends = [(_type_utility(0.0, c, welfare), _type_utility(theta1, c, welfare))
            for c in (aligned_contract(cost, cap), status_quo_contract(cost, cap))]
    return (pi0, *(pi0 * u_null + (1.0 - pi0) * u_alt for u_null, u_alt in ends))


def maximin_check(
    contract: Contract,
    welfare: WelfareSpec,
    theta_grid: Sequence[float],
    tol: float = 1e-9,
) -> MaximinReport:
    """Worst-case utility over all two-point mixtures on the type grid.

    The mixture expectation is affine in the weights, so the infimum over
    two-point mixtures is attained at a degenerate mixture and equals the
    worst per-type utility. A maximin menu has worst case 0 (never below
    -tol): it screens out every null type.
    """
    if not any(t <= 0.0 for t in theta_grid) or not any(t > 0.0 for t in theta_grid):
        raise ValueError("theta grid must contain both null and nonnull types")
    per_type = tuple(
        (theta, _type_utility(theta, contract, welfare)) for theta in theta_grid
    )
    worst_theta, infimum = min(per_type, key=lambda pair: pair[1])
    return MaximinReport(
        per_type_utility=per_type,
        infimum=infimum,
        worst_theta=worst_theta,
        is_maximin=infimum >= -tol,
    )
