"""The single-round contract game.

The agent knows its type theta (evidence Z ~ N(theta, 1), null type 0),
faces a contract with trial cost C and market cap R, and picks the license
that maximizes its expected payout. Against the menu of all rescaled
e-values the argmax is known in closed form: the all-or-nothing license at
the one-sided Gaussian threshold with null hit probability C/R, so we
construct it directly instead of searching an infinite menu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import GaussianModel, upper_tail_inverse
from .licenses import LicenseFn, Menu, constant_license, null_expectation

# The incentive-unaware baseline: pay the cap whenever the one-tailed test
# rejects at the fixed 5% level.
STATUS_QUO_LEVEL = 0.05


@dataclass(frozen=True)
class Contract:
    """A menu priced at the trial cost C, and the market cap R > C."""

    menu: Menu
    cap: float

    @property
    def cost(self) -> float:
        return self.menu.cost

    def __post_init__(self) -> None:
        if not self.cap > self.cost:  # the menu checked cost > 0
            raise ValueError(f"need cap > cost, got cost={self.cost}, cap={self.cap}")


@dataclass(frozen=True)
class AgentDecision:
    chosen_license: LicenseFn | None
    expected_profit: float

    @property
    def opted_in(self) -> bool:
        return self.chosen_license is not None

    def __post_init__(self) -> None:
        if not self.opted_in and self.expected_profit != 0.0:
            raise ValueError("an opted-out agent has zero profit")


def np_best_response(cost: float, cap: float, sd: float = 1.0) -> LicenseFn:
    """Payout-maximizing license against the menu of all rescaled e-values.

    By the Neyman-Pearson lemma the optimum is all-or-nothing and the same
    for every effect theta > 0: pay ``cap`` when z clears the threshold
    whose null tail mass is cost/cap, zero otherwise, so the null
    expectation is exactly min(cost, cap) and the license depends on
    cost/cap and ``sd`` alone. With cost >= cap the constraint is slack and
    the constant license at the cap is optimal. ``sd`` scales the threshold
    for evidence that is an n-sample mean.
    """
    if cost <= 0.0:
        raise ValueError(f"cost must be positive, got {cost}")
    if cost >= cap:
        return constant_license(cap)
    # upper_tail_inverse(0.5) is -0.0; adding 0.0 makes the threshold +0.0
    threshold = sd * upper_tail_inverse(cost / cap) + 0.0
    return LicenseFn([threshold], [0.0, cap])


def status_quo_license(cap: float) -> LicenseFn:
    """All-or-nothing license of the fixed 5%-level one-tailed test."""
    if cap < 0.0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if cap == 0.0:
        return constant_license(0.0)
    return LicenseFn([upper_tail_inverse(STATUS_QUO_LEVEL)], [0.0, cap])


def agent_decide(theta: float, contract: Contract) -> AgentDecision:
    """Best response of a type-theta agent, with strict opt-in.

    An explicit menu offers its licenses; the menu of all rescaled e-values
    offers only its closed-form argmax, ``np_best_response``, and nothing to
    null and negative types, who never profit from it. The agent opts in
    only when the best expected profit is strictly positive; ties at zero
    mean opting out. Ties in expected payout break toward the license with
    the smallest null expectation; the argmax is not otherwise unique.
    """
    menu = contract.menu
    if menu.is_explicit:
        candidates = menu.licenses
    elif theta <= 0.0:
        return AgentDecision(None, 0.0)
    else:
        candidates = (np_best_response(contract.cost, contract.cap),)
    model = GaussianModel(theta)
    null = GaussianModel(0.0)
    best_f = None
    best_value = -math.inf
    for f in candidates:
        value = null_expectation(f, model)
        if value > best_value or (
            value == best_value
            and null_expectation(f, null) < null_expectation(best_f, null)
        ):
            best_f, best_value = f, value
    if best_value - contract.cost > 0.0:
        return AgentDecision(best_f, best_value - contract.cost)
    return AgentDecision(None, 0.0)


def posterior_null_share(
    null_rate: float, nonnull_rate: float, odds_null: float
) -> float:
    """Fraction of approvals that come from null products.

    ``odds_null`` is the prior ratio of null to nonnull candidates;
    the rates are the per-type approval probabilities.
    """
    if not (0.0 <= null_rate <= 1.0 and 0.0 <= nonnull_rate <= 1.0):
        raise ValueError("approval rates must lie in [0, 1]")
    if not odds_null > 0.0:
        raise ValueError(f"odds_null must be positive, got {odds_null}")
    mass = odds_null * null_rate + nonnull_rate
    if mass == 0.0:
        raise ZeroDivisionError("no approvals from either type: posterior undefined")
    return odds_null * null_rate / mass
