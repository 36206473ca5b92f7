"""Monte Carlo simulation of multi-round license strategies.

Two simulators live here: one for DP policies (updates live on the license
grid, no withdrawals) and one for arbitrary strategies following the full
license recursion

    L(t) = (L(t-1) + C_t - P(t)) * f_t(Z_t)   when the trial is run,
    L(t) = L(t-1) - P(t)                      otherwise,

with withdrawals P(t) in [0, L(t-1)] and multiplicative update factors f_t.
Both loop over rounds only, vectorized over replicates, and read their
evidence from a stream as one (reps, horizon) matrix, replicate r in row r.
The policy simulator applies every replicate's grid-level update in one
StepBatch.evaluate call a round; the strategy simulator draws each stage's
decisions from the same generator as arrays. Both produce the same columnar
episode batch. It keeps the whole evidence matrix, so other agents can be
scored on the very same draws (common random numbers). On it the
net-profit process N(t) = L(t) + total withdrawals - total costs is
estimated per stage; under a null agent N is a supermartingale, so every
stage mean must sit at or below zero up to Monte Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from ..gaussian import GaussianModel, RandomStream, mean_and_se, sample_normal
from ..licenses import LicenseFn, null_expectation
from .dp import DPPolicy, _round_costs

_MAX_FACTOR_BREAKS = 4  # breakpoints of a random_factor_license


class EpisodeBatch:
    """Columnar storage for many episodes: one row per episode.

    Per-round arrays have one column per round; license and cumulative
    columns are frozen at their exit values past an episode's tau, so the
    terminal license is the last license column (0 for an episode that
    stopped before round 1).
    ``costs`` has one entry per round, paid where ``indicators`` is set.
    ``evidence`` is the full (reps, horizon) matrix the simulator drew,
    including the cells of rounds that were not run; the evidence the
    episodes actually saw is ``evidence[indicators]``.
    """

    def __init__(
        self,
        costs: np.ndarray,
        withdrawals: np.ndarray,
        indicators: np.ndarray,
        evidence: np.ndarray,
        licenses: np.ndarray,
        tau: np.ndarray,
    ):
        self.costs = np.asarray(costs, dtype=float)
        self.withdrawals = withdrawals
        self.indicators = indicators
        self.evidence = evidence
        self.licenses = licenses
        self.tau = tau
        self.total_cost = self.costs_paid.sum(axis=1)
        self.total_withdrawal = withdrawals.sum(axis=1)
        self.terminal_license = licenses[:, -1]
        self.profit = self.terminal_license + self.total_withdrawal - self.total_cost

    @property
    def costs_paid(self) -> np.ndarray:
        return self.indicators * self.costs

    def __len__(self) -> int:
        return len(self.tau)

    def net_profit_paths(self) -> np.ndarray:
        """N(t) per episode and stage, frozen past each episode's tau."""
        return (
            self.licenses
            + np.cumsum(self.withdrawals, axis=1)
            - np.cumsum(self.costs_paid, axis=1)
        )


def simulate_policy(
    policy: DPPolicy, theta_true: float, reps: int, stream: RandomStream
) -> EpisodeBatch:
    """Run a DP policy against evidence from N(theta_true, 1).

    The DP agent makes no withdrawals; it pays the round cost whenever the
    policy continues and exits at the first stop action (or after the last
    round). The evidence is one (reps, horizon) matrix drawn from the
    stream, episode r reading row r; rows fill in order, so the first k
    episodes are the same for any `reps`.
    """
    if reps < 1:
        raise ValueError(f"need at least one replicate, got {reps}")
    T = policy.horizon
    z = sample_normal(GaussianModel(theta_true), stream, (reps, T))

    indicators = np.zeros((reps, T), dtype=bool)
    licenses = np.zeros((reps, T))
    tau = np.zeros(reps, dtype=np.int64)
    level = np.zeros(reps)
    active = np.ones(reps, dtype=bool)
    for k in range(T):
        index = np.rint(level / policy.grid.epsilon).astype(np.int64)
        active &= policy.go[k][index]
        level[active] = policy.updates[k].evaluate(index[active], z[active, k])
        licenses[:, k] = level
        indicators[:, k] = active
        tau[active] = k + 1
    return EpisodeBatch(policy.costs, np.zeros((reps, T)), indicators, z, licenses, tau)


class StrategyAction(NamedTuple):
    """One stage's decisions for all replicates: ``stop``, ``withdraw`` and
    ``run`` are per-replicate arrays or scalars shared by all; ``factor`` is
    the stage's update, required when any replicate runs the trial."""

    stop: bool | np.ndarray
    withdraw: float | np.ndarray = 0.0
    run: bool | np.ndarray = False
    factor: LicenseFn | None = None


class Strategy(Protocol):
    """Decides stage t (1-based) for every replicate from the array of
    current license values, drawing its randomness from ``rng``."""

    def decide(
        self, t: int, license_values: np.ndarray, rng: np.random.Generator
    ) -> StrategyAction: ...


def simulate_strategy(
    strategy: Strategy,
    horizon: int,
    costs: Sequence[float],
    theta_true: float,
    reps: int,
    stream: RandomStream,
) -> EpisodeBatch:
    """Run an arbitrary strategy through the full license recursion.

    The stream's one generator first draws the (reps, horizon) evidence
    matrix, replicate r in row r (the matrix ``simulate_policy`` reads), then
    each stage's decisions for all replicates at once. Stopped replicates
    keep their license; withdrawals are clipped to [0, license].
    """
    if reps < 1:
        raise ValueError(f"need at least one replicate, got {reps}")
    model, costs = GaussianModel(theta_true), np.asarray(_round_costs(costs, horizon))
    rng = stream.generator()
    z = rng.normal(model.mean, model.sd, size=(reps, horizon))

    withdrawals = np.zeros((reps, horizon))
    indicators = np.zeros((reps, horizon), dtype=bool)
    licenses = np.zeros((reps, horizon))
    tau = np.zeros(reps, dtype=np.int64)
    level = np.zeros(reps)
    active = np.ones(reps, dtype=bool)
    for k in range(horizon):
        action = strategy.decide(k + 1, level, rng)
        active &= ~np.asarray(action.stop, dtype=bool)
        withdrawals[:, k] = np.where(active, np.clip(action.withdraw, 0.0, level), 0.0)
        level -= withdrawals[:, k]
        run = indicators[:, k] = active & action.run
        if run.any():
            if action.factor is None:
                raise ValueError("a run action must carry an update factor")
            level[run] = (level[run] + costs[k]) * action.factor(z[run, k])
        licenses[:, k] = level
        tau[active] = k + 1
    return EpisodeBatch(costs, withdrawals, indicators, z, licenses, tau)


def random_factor_license(rng: np.random.Generator) -> LicenseFn:
    """Random nondecreasing step factor with null expectation exactly one."""
    n_breaks = int(rng.integers(1, _MAX_FACTOR_BREAKS + 1))
    breaks = np.sort(rng.normal(0.0, 1.5, n_breaks))
    while (np.diff(breaks) == 0.0).any():  # pragma: no cover - measure zero
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
        self, t: int, license_values: np.ndarray, rng: np.random.Generator
    ) -> StrategyAction:
        # one row of uniforms per replicate: stop, withdraw, run
        k = t - 1
        u = rng.random((len(license_values), 3))
        withdraw = (license_values > 0.0) & (u[:, 1] < self.withdraw_probs[k])
        return StrategyAction(
            stop=u[:, 0] < self.stop_probs[k],
            withdraw=np.where(withdraw, self.withdraw_fracs[k] * license_values, 0.0),
            run=u[:, 2] < self.run_probs[k],
            factor=self.factors[k],
        )


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
        self, t: int, license_values: np.ndarray, rng: np.random.Generator
    ) -> StrategyAction:
        return StrategyAction(stop=t > self.stage, run=t == self.stage, factor=self.factor)


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

    Passes when every estimate is at most three standard errors above zero;
    a standard error needs at least two episodes. The episodes must have
    been run at exactly the given round costs.
    """
    n = len(episodes)
    if n < 2:
        raise ValueError(f"need at least two episodes for a standard error, got {n}")
    costs = np.asarray(costs, dtype=float)
    if not np.array_equal(costs, episodes.costs):
        raise ValueError(f"costs {costs.tolist()} are not the episodes' {episodes.costs.tolist()}")
    means, ses = mean_and_se(episodes.net_profit_paths())
    terminal_mean, terminal_se = map(float, mean_and_se(episodes.profit.copy()))
    passes = bool(np.all(means <= 3.0 * ses) and terminal_mean <= 3.0 * terminal_se)
    return SupermartingaleReport(
        stage_means=tuple(float(m) for m in means),
        stage_ses=tuple(float(s) for s in ses),
        terminal_mean=terminal_mean,
        terminal_se=terminal_se,
        passes=passes,
    )


def episodes_to_csv_rows(episodes: EpisodeBatch) -> list[tuple]:
    """Rows (rep, tau, terminal_license, total_cost, profit) for export."""
    columns = (episodes.tau, episodes.terminal_license, episodes.total_cost, episodes.profit)
    return list(zip(range(len(episodes)), *(c.tolist() for c in columns)))
