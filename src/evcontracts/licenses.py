"""License functions, e-value checks, and menus.

A license function maps trial evidence z to a cap on the agent's profit. We
represent licenses as nondecreasing step functions of z: the Gaussian
likelihood ratio is monotone in z, so every optimal license has this form,
and step functions admit exact expectations through the normal tail.

A statistical contract (menu of licenses, trial cost C) is incentive-aligned
exactly when every menu item divided by C is an e-value, i.e. has null
expectation at most 1. Both directions of that equivalence are exercised by
the test suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gaussian import GaussianModel, upper_tail


@dataclass(frozen=True)
class LicenseFn:
    """Nondecreasing step function of the evidence z, in money units.

    ``values[k]`` is paid on the k-th interval; intervals are
    [breakpoints[k-1], breakpoints[k]) with the two unbounded tails at the
    ends, so there is one more value than breakpoint. A point z falling
    exactly on a breakpoint takes the value to its right.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        breaks = tuple(map(float, breakpoints))
        vals = tuple(map(float, values))
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", vals)
        # map over C-level callables: these checks run on every license built,
        # by each agent decision and each best-response cost ratio; the
        # dynamic program keeps its updates as StepBatch rows and builds none
        if len(vals) != len(breaks) + 1:
            raise ValueError(
                f"need exactly one value per interval: got {len(breaks)} "
                f"breakpoints and {len(vals)} values"
            )
        if any(map(operator.le, breaks[1:], breaks)):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(map(math.isfinite, breaks)):
            raise ValueError("breakpoints must be finite")
        # 0 <= v is false for NaN too; values are checked nondecreasing
        # next, so +inf can only sit in the last one
        if not all(map((0.0).__le__, vals)) or vals[-1] == math.inf:
            if not all(map(math.isfinite, vals)):
                raise ValueError("license values must be finite")
            raise ValueError("license values must be nonnegative")
        if any(map(operator.lt, vals[1:], vals)):
            raise ValueError("license values must be nondecreasing in z")

    def __call__(self, z):
        """Evaluate at a scalar or array of evidence points."""
        idx = np.searchsorted(self.breakpoints, z, side="right")
        return np.asarray(self.values)[idx]

    def scaled(self, factor: float) -> "LicenseFn":
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")
        return LicenseFn(self.breakpoints, [v * factor for v in self.values])

    def approval_threshold(self) -> float:
        """Smallest z at which the license pays anything, -inf if always."""
        for k, v in enumerate(self.values):
            if v > 0.0:
                return -math.inf if k == 0 else self.breakpoints[k - 1]
        return math.inf


def constant_license(value: float) -> LicenseFn:
    return LicenseFn([], [value])


@dataclass(frozen=True)
class Menu:
    """Menu of license functions offered to the agent.

    Either the intensional menu of *all* licenses with null expectation at
    most C (every rescaled e-value), or an explicit finite list. The menu of
    all e-values is incentive-aligned by construction.
    """

    cost: float
    licenses: tuple[LicenseFn, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.cost > 0.0:
            raise ValueError(f"trial cost must be positive, got {self.cost}")
        if self.licenses is not None:
            object.__setattr__(self, "licenses", tuple(self.licenses))

    @staticmethod
    def all_evalues(cost: float) -> "Menu":
        return Menu(cost=cost, licenses=None)

    @staticmethod
    def explicit(licenses: Sequence[LicenseFn], cost: float) -> "Menu":
        return Menu(cost=cost, licenses=tuple(licenses))

    @property
    def is_explicit(self) -> bool:
        return self.licenses is not None


def null_expectation(f: LicenseFn, model: GaussianModel) -> float:
    """E[f(Z)] for Z ~ model, exact via normal tails; any Gaussian model.

    The null model gives the e-value checks below; an agent's own model gives
    its expected payout. Written as sum over value increments times tail
    probabilities, which uses only nonnegative terms and one tail evaluation
    per breakpoint.
    """
    total = f.values[0]
    for k, b in enumerate(f.breakpoints):
        step = f.values[k + 1] - f.values[k]
        if step != 0.0:
            total += step * upper_tail((b - model.mean) / model.sd)
    return total


def is_evalue(f: LicenseFn, null: GaussianModel, tol: float = 1e-9) -> bool:
    """True iff E_null[f(Z)] <= 1 + tol."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    return null_expectation(f, null) <= 1.0 + tol


def is_incentive_aligned(menu: Menu, null: GaussianModel, tol: float = 1e-9) -> bool:
    """True iff every menu item has null expectation at most cost * (1 + tol).

    Equivalently, every item divided by the cost is an e-value. The
    intensional all-e-values menu is aligned by construction.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if not menu.is_explicit:
        return True
    limit = menu.cost * (1.0 + tol)
    return all(null_expectation(f, null) <= limit for f in menu.licenses)
