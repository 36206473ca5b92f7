"""Monte Carlo simulation of multi-round license strategies.

Two simulators live here: a vectorized one for DP policies (updates live on
the license grid, no withdrawals) and a general one for arbitrary strategies
following the full license recursion

    L(t) = (L(t-1) + C_t - P(t)) * f_t(Z_t)   when the trial is run,
    L(t) = L(t-1) - P(t)                      otherwise,

with withdrawals P(t) in [0, L(t-1)] and multiplicative update factors f_t.
Both produce the same columnar episode batch, on which the net-profit
process N(t) = L(t) + total withdrawals - total costs is estimated per
stage; under a null agent N is a supermartingale, so every stage mean must
sit at or below zero up to Monte Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from ..gaussian import GaussianModel, RandomStream, replicate_rng
from ..licenses import LicenseFn, null_expectation
from .dp import DPPolicy


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode: per-round histories up to the exit round tau."""

    costs_paid: tuple[float, ...]
    withdrawals: tuple[float, ...]
    indicators: tuple[bool, ...]
    evidence: tuple[float, ...]
    licenses: tuple[float, ...]
    tau: int
    terminal_license: float
    total_cost: float
    total_withdrawal: float
    profit: float


class EpisodeBatch(Sequence[EpisodeRecord]):
    """Columnar storage for many episodes; behaves as a sequence of records.

    Per-round arrays have one column per round; license and cumulative
    columns are frozen at their exit values past an episode's tau.
    """

    def __init__(
        self,
        costs_paid: np.ndarray,
        withdrawals: np.ndarray,
        indicators: np.ndarray,
        evidence: np.ndarray,
        licenses: np.ndarray,
        tau: np.ndarray,
    ):
        self.costs_paid = costs_paid
        self.withdrawals = withdrawals
        self.indicators = indicators
        self.evidence = evidence
        self.licenses = licenses
        self.tau = tau
        self.total_cost = costs_paid.sum(axis=1)
        self.total_withdrawal = withdrawals.sum(axis=1)
        idx = np.arange(len(tau))
        last = np.maximum(tau - 1, 0)
        self.terminal_license = np.where(tau > 0, licenses[idx, last], 0.0)
        self.profit = self.terminal_license + self.total_withdrawal - self.total_cost

    @property
    def horizon(self) -> int:
        return self.costs_paid.shape[1]

    def __len__(self) -> int:
        return len(self.tau)

    def __getitem__(self, r: int) -> EpisodeRecord:
        t = int(self.tau[r])
        return EpisodeRecord(
            costs_paid=tuple(self.costs_paid[r, :t]),
            withdrawals=tuple(self.withdrawals[r, :t]),
            indicators=tuple(bool(i) for i in self.indicators[r, :t]),
            evidence=tuple(self.evidence[r, :t]),
            licenses=tuple(self.licenses[r, :t]),
            tau=t,
            terminal_license=float(self.terminal_license[r]),
            total_cost=float(self.total_cost[r]),
            total_withdrawal=float(self.total_withdrawal[r]),
            profit=float(self.profit[r]),
        )

    def net_profit_paths(self) -> np.ndarray:
        """N(t) per episode and stage, frozen past each episode's tau."""
        return (
            self.licenses
            + np.cumsum(self.withdrawals, axis=1)
            - np.cumsum(self.costs_paid, axis=1)
        )


def _replicate_normals(
    stream: RandomStream, reps: int, horizon: int, mean: float
) -> np.ndarray:
    z = np.empty((reps, horizon))
    for r in range(reps):
        z[r] = replicate_rng(stream, r).normal(mean, 1.0, horizon)
    return z


def simulate_policy(
    policy: DPPolicy, theta_true: float, reps: int, stream: RandomStream
) -> EpisodeBatch:
    """Run a DP policy against evidence from N(theta_true, 1).

    The DP agent makes no withdrawals; it pays the round cost whenever the
    policy continues and exits at the first stop action (or after the last
    round). Episodes use replicate-indexed streams, so results do not depend
    on `reps` batching.
    """
    if reps < 1:
        raise ValueError(f"need at least one replicate, got {reps}")
    T = policy.horizon
    grid = policy.grid
    z = _replicate_normals(stream, reps, T, theta_true)

    costs_paid = np.zeros((reps, T))
    withdrawals = np.zeros((reps, T))
    indicators = np.zeros((reps, T), dtype=bool)
    licenses = np.zeros((reps, T))
    tau = np.zeros(reps, dtype=np.int64)

    level_idx = np.zeros(reps, dtype=np.int64)
    active = np.ones(reps, dtype=bool)
    for t in range(1, T + 1):
        licenses[:, t - 1] = licenses[:, t - 2] if t > 1 else 0.0
        if not active.any():
            continue
        # Group on a snapshot: updates move episodes across levels and must
        # not make them eligible for a second update in the same round.
        start_levels = level_idx.copy()
        for lvl in np.unique(start_levels[active]):
            group = active & (start_levels == lvl)
            update = policy.action(t, int(lvl))
            if update is None:
                active[group] = False
                continue
            new_values = update(z[group, t - 1])
            new_idx = np.rint(new_values / grid.epsilon).astype(np.int64)
            level_idx[group] = new_idx
            licenses[group, t - 1] = new_values
            costs_paid[group, t - 1] = policy.costs[t - 1]
            indicators[group, t - 1] = True
            tau[group] = t
    evidence = np.where(indicators, z, np.nan)
    return EpisodeBatch(costs_paid, withdrawals, indicators, evidence, licenses, tau)


class StrategyAction(NamedTuple):
    stop: bool
    withdraw: float = 0.0
    run: bool = False
    factor: LicenseFn | None = None


class Strategy(Protocol):
    def decide(
        self, t: int, license_value: float, rng: np.random.Generator
    ) -> StrategyAction: ...


def simulate_strategy(
    strategy: Strategy,
    horizon: int,
    costs: Sequence[float],
    theta_true: float,
    reps: int,
    stream: RandomStream,
) -> EpisodeBatch:
    """Run an arbitrary strategy through the full license recursion."""
    if len(costs) != horizon:
        raise ValueError("need one round cost per stage")
    T = horizon
    costs_paid = np.zeros((reps, T))
    withdrawals = np.zeros((reps, T))
    indicators = np.zeros((reps, T), dtype=bool)
    evidence = np.full((reps, T), np.nan)
    licenses = np.zeros((reps, T))
    tau = np.zeros(reps, dtype=np.int64)
    for r in range(reps):
        rng = replicate_rng(stream, r)
        level = 0.0
        for t in range(1, T + 1):
            action = strategy.decide(t, level, rng)
            if action.stop:
                break
            withdraw = min(max(action.withdraw, 0.0), level)
            level -= withdraw
            withdrawals[r, t - 1] = withdraw
            if action.run:
                if action.factor is None:
                    raise ValueError("a run action must carry an update factor")
                z = rng.normal(theta_true, 1.0)
                evidence[r, t - 1] = z
                costs_paid[r, t - 1] = costs[t - 1]
                indicators[r, t - 1] = True
                level = (level + costs[t - 1]) * float(action.factor(z))
            licenses[r, t - 1] = level
            tau[r] = t
        licenses[r, tau[r]:] = level
    return EpisodeBatch(costs_paid, withdrawals, indicators, evidence, licenses, tau)


def random_factor_license(rng: np.random.Generator, max_breaks: int = 4) -> LicenseFn:
    """Random nondecreasing step factor with null expectation exactly one."""
    n_breaks = int(rng.integers(1, max_breaks + 1))
    breaks = np.sort(rng.normal(0.0, 1.5, n_breaks))
    while len(np.unique(breaks)) != n_breaks:  # pragma: no cover - measure zero
        breaks = np.sort(rng.normal(0.0, 1.5, n_breaks))
    raw = np.concatenate(([rng.uniform(0.0, 0.2)], rng.uniform(0.0, 1.0, n_breaks)))
    values = np.cumsum(raw)
    f = LicenseFn(breaks, values)
    return f.scaled(1.0 / null_expectation(f, GaussianModel(0.0)))


@dataclass
class RandomizedAlignedStrategy:
    """Random but incentive-aligned behavior: every factor is an e-value.

    Per stage: a fixed random factor with E_0 = 1, a stop probability, a
    probability of withdrawing, and a withdrawal fraction. Used to probe the
    supermartingale property across the whole strategy space, not just DP
    policies.
    """

    factors: tuple[LicenseFn, ...]
    stop_probs: tuple[float, ...]
    withdraw_probs: tuple[float, ...]
    withdraw_fracs: tuple[float, ...]
    run_probs: tuple[float, ...]

    @staticmethod
    def draw(rng: np.random.Generator, horizon: int) -> "RandomizedAlignedStrategy":
        return RandomizedAlignedStrategy(
            factors=tuple(random_factor_license(rng) for _ in range(horizon)),
            stop_probs=tuple(rng.uniform(0.0, 0.25, horizon)),
            withdraw_probs=tuple(rng.uniform(0.0, 0.8, horizon)),
            withdraw_fracs=tuple(rng.uniform(0.0, 1.0, horizon)),
            run_probs=tuple(rng.uniform(0.5, 1.0, horizon)),
        )

    def decide(
        self, t: int, license_value: float, rng: np.random.Generator
    ) -> StrategyAction:
        k = t - 1
        if rng.random() < self.stop_probs[k]:
            return StrategyAction(stop=True)
        withdraw = 0.0
        if license_value > 0.0 and rng.random() < self.withdraw_probs[k]:
            withdraw = self.withdraw_fracs[k] * license_value
        if rng.random() < self.run_probs[k]:
            return StrategyAction(stop=False, withdraw=withdraw, run=True,
                                  factor=self.factors[k])
        return StrategyAction(stop=False, withdraw=withdraw, run=False)


@dataclass(frozen=True)
class SingleStageStrategy:
    """Run the trial at one stage only, with a given factor; no withdrawals.

    With a factor whose null expectation is e0, the expected profit under
    the null is exactly (e0 - 1) times the stage cost, which is the handle
    used to demonstrate what a misaligned update is worth.
    """

    stage: int
    factor: LicenseFn

    def decide(
        self, t: int, license_value: float, rng: np.random.Generator
    ) -> StrategyAction:
        if t < self.stage:
            return StrategyAction(stop=False)
        if t == self.stage:
            return StrategyAction(stop=False, run=True, factor=self.factor)
        return StrategyAction(stop=True)


@dataclass(frozen=True)
class SupermartingaleReport:
    stage_means: tuple[float, ...]
    stage_ses: tuple[float, ...]
    terminal_mean: float
    terminal_se: float
    passes: bool


def supermartingale_check(
    episodes: EpisodeBatch, costs: Sequence[float]
) -> SupermartingaleReport:
    """Estimate E[N(t)] per stage and E[N(tau)] on null-generated episodes.

    Passes when every estimate is at most three standard errors above zero.
    The costs argument recomputes the paid-cost ledger from the indicators,
    so a batch with inconsistent bookkeeping is rejected.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (episodes.horizon,):
        raise ValueError("need one round cost per stage")
    implied = episodes.indicators * costs[np.newaxis, :]
    if not np.allclose(implied, episodes.costs_paid, rtol=0.0, atol=1e-12):
        raise ValueError("episode cost ledger disagrees with the given costs")
    paths = episodes.net_profit_paths()
    n = paths.shape[0]
    means = paths.mean(axis=0)
    ses = paths.std(axis=0, ddof=1) / np.sqrt(n)
    terminal = episodes.profit
    terminal_mean = float(terminal.mean())
    terminal_se = float(terminal.std(ddof=1) / np.sqrt(n))
    passes = bool(
        np.all(means <= 3.0 * ses) and terminal_mean <= 3.0 * terminal_se
    )
    return SupermartingaleReport(
        stage_means=tuple(float(m) for m in means),
        stage_ses=tuple(float(s) for s in ses),
        terminal_mean=terminal_mean,
        terminal_se=terminal_se,
        passes=passes,
    )


def episodes_to_csv_rows(episodes: EpisodeBatch) -> list[tuple]:
    """Rows (rep, tau, terminal_license, total_cost, profit) for export."""
    return [
        (
            r,
            int(episodes.tau[r]),
            float(episodes.terminal_license[r]),
            float(episodes.total_cost[r]),
            float(episodes.profit[r]),
        )
        for r in range(len(episodes))
    ]
