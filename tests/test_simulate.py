import math

import numpy as np
import pytest

from evcontracts import (
    GaussianModel,
    LicenseFn,
    RandomStream,
    null_expectation,
    sample_normal,
)
from evcontracts.multiround import (
    LicenseGrid,
    RandomizedAlignedStrategy,
    SingleStageStrategy,
    backward_induction,
    episodes_to_csv_rows,
    random_factor_license,
    simulate_policy,
    simulate_strategy,
    supermartingale_check,
)

NULL = GaussianModel(0.0)
GRID = LicenseGrid.from_cap(1.0, 50)
POLICY = backward_induction(4, 0.1, 1.2, GRID)
COSTS = [0.1] * 4
BATCH_ARRAYS = ("costs_paid", "withdrawals", "indicators", "evidence", "licenses", "tau")


def reference_aligned_episodes(strategy, costs, theta_true, reps, stream):
    """RandomizedAlignedStrategy run one replicate at a time on the draws
    simulate_strategy makes: the (reps, horizon) evidence matrix, then one
    (reps, 3) block of stop/withdraw/run uniforms per stage."""
    T = len(costs)
    rng = stream.generator()
    z = rng.normal(theta_true, 1.0, (reps, T))
    u = [rng.random((reps, 3)) for _ in range(T)]
    out = {name: np.zeros((reps, T)) for name in BATCH_ARRAYS[:-1]}
    out["indicators"] = out["indicators"].astype(bool)
    out["evidence"] = z
    out["tau"] = np.zeros(reps, dtype=np.int64)
    for r in range(reps):
        level = 0.0
        for k in range(T):
            stop_u, withdraw_u, run_u = u[k][r]
            if stop_u < strategy.stop_probs[k]:
                break
            if level > 0.0 and withdraw_u < strategy.withdraw_probs[k]:
                withdraw = strategy.withdraw_fracs[k] * level
                out["withdrawals"][r, k] = withdraw
                level -= withdraw
            if run_u < strategy.run_probs[k]:
                out["costs_paid"][r, k] = costs[k]
                out["indicators"][r, k] = True
                level = (level + costs[k]) * float(strategy.factors[k](z[r, k]))
            out["licenses"][r, k] = level
            out["tau"][r] = k + 1
        out["licenses"][r, out["tau"][r]:] = level
    return out


def reference_policy_episodes(policy, theta_true, reps, stream):
    """simulate_policy run one replicate at a time on the same evidence
    matrix, through the policy's LicenseFn updates."""
    T = policy.horizon
    z = sample_normal(GaussianModel(theta_true), stream, (reps, T))
    out = {name: np.zeros((reps, T)) for name in BATCH_ARRAYS[:-1]}
    out["indicators"] = out["indicators"].astype(bool)
    out["evidence"] = z
    out["tau"] = np.zeros(reps, dtype=np.int64)
    for r in range(reps):
        level = 0.0
        for k in range(T):
            update = policy.action(k + 1, round(level / policy.grid.epsilon))
            if update is None:
                break
            level = float(update(z[r, k]))
            out["costs_paid"][r, k] = policy.costs[k]
            out["indicators"][r, k] = True
            out["licenses"][r, k] = level
            out["tau"][r] = k + 1
        out["licenses"][r, out["tau"][r]:] = level
    return out


class TestSimulatePolicy:
    def test_deterministic(self):
        a = simulate_policy(POLICY, 1.2, 300, RandomStream(5, 0))
        b = simulate_policy(POLICY, 1.2, 300, RandomStream(5, 0))
        assert np.array_equal(a.profit, b.profit)
        assert np.array_equal(a.licenses, b.licenses)

    def test_replicate_streams_make_prefixes_agree(self):
        small = simulate_policy(POLICY, 1.2, 50, RandomStream(5, 0))
        large = simulate_policy(POLICY, 1.2, 200, RandomStream(5, 0))
        assert np.array_equal(small.profit, large.profit[:50])

    def test_evidence_is_one_matrix_from_the_stream(self):
        # episode r reads row r of one (reps, horizon) draw, kept whole
        stream = RandomStream(5, 2)
        episodes = simulate_policy(POLICY, 1.2, 300, stream)
        z = sample_normal(GaussianModel(1.2), stream, (300, POLICY.horizon))
        run = episodes.indicators
        assert run.any() and not run.all()
        assert np.array_equal(episodes.evidence, z)

    def test_mc_mean_matches_root_value(self):
        episodes = simulate_policy(POLICY, 1.2, 40_000, RandomStream(17, 0))
        se = episodes.profit.std(ddof=1) / math.sqrt(len(episodes))
        assert episodes.profit.mean() == pytest.approx(
            POLICY.root_value, abs=3.5 * se
        )

    def test_null_agent_never_profits_on_average(self):
        episodes = simulate_policy(POLICY, 0.0, 40_000, RandomStream(19, 0))
        se = episodes.profit.std(ddof=1) / math.sqrt(len(episodes))
        assert episodes.profit.mean() <= 3.0 * se

    def test_bookkeeping_identities(self):
        episodes = simulate_policy(POLICY, 1.2, 500, RandomStream(23, 0))
        assert np.allclose(
            episodes.profit,
            episodes.terminal_license + episodes.total_withdrawal - episodes.total_cost,
        )
        assert np.all(episodes.licenses >= -1e-15)
        assert np.all(episodes.total_cost <= sum(POLICY.costs) + 1e-15)
        # cost ledger equals 0.1 per round actually run
        assert np.allclose(episodes.total_cost, 0.1 * episodes.indicators.sum(axis=1))

    def test_grid_levels_only(self):
        episodes = simulate_policy(POLICY, 1.2, 500, RandomStream(31, 0))
        scaled = episodes.licenses / GRID.epsilon
        assert np.allclose(scaled, np.rint(scaled), atol=1e-9)

    @pytest.mark.parametrize(
        "policy, theta_true",
        (
            (POLICY, 1.2),
            (POLICY, 0.0),
            (backward_induction(3, [0.05, 0.2, 0.1], 1.2, LicenseGrid.from_cap(5.0, 40)), 1.2),
            (backward_induction(1, 0.1, 1.2, GRID), 1.2),
            # costs above the cap: every level stops
            (backward_induction(3, 1.5, 1.0, LicenseGrid.from_cap(1.0, 20)), 1.0),
        ),
        ids=("policy", "null", "per-round-costs", "horizon-1", "all-stop"),
    )
    def test_matches_per_replicate_reference(self, policy, theta_true):
        stream = RandomStream(41, 0)
        episodes = simulate_policy(policy, theta_true, 400, stream)
        expected = reference_policy_episodes(policy, theta_true, 400, stream)
        for name in BATCH_ARRAYS:
            got = getattr(episodes, name)
            assert got.dtype == expected[name].dtype, name
            assert np.array_equal(got, expected[name]), name

    def test_csv_rows(self):
        episodes = simulate_policy(POLICY, 1.2, 10, RandomStream(37, 0))
        rows = episodes_to_csv_rows(episodes)
        assert len(rows) == 10
        assert rows[0][0] == 0


class TestSimulateStrategy:
    def test_license_recursion_identity(self):
        rng = np.random.default_rng(101)
        strategy = RandomizedAlignedStrategy.draw(rng, 4)
        episodes = simulate_strategy(strategy, 4, COSTS, 0.0, 400, RandomStream(43, 0))
        for r in range(0, 400, 37):
            level = 0.0
            for k in range(episodes.tau[r]):
                if episodes.indicators[r, k]:
                    factor = strategy.factors[k]
                    base = level + COSTS[k] - episodes.withdrawals[r, k]
                    level = base * float(factor(episodes.evidence[r, k]))
                else:
                    level = level - episodes.withdrawals[r, k]
                assert episodes.licenses[r, k] == pytest.approx(level, abs=1e-12)
                assert episodes.withdrawals[r, k] >= 0.0

    def test_withdrawals_never_exceed_license(self):
        rng = np.random.default_rng(7)
        strategy = RandomizedAlignedStrategy.draw(rng, 4)
        episodes = simulate_strategy(strategy, 4, COSTS, 0.0, 500, RandomStream(47, 0))
        level = np.zeros(500)
        for k in range(4):
            assert np.all(episodes.withdrawals[:, k] <= level + 1e-12)
            level = episodes.licenses[:, k]

    def test_evidence_is_the_sample_normal_matrix(self):
        # the same (reps, horizon) matrix simulate_policy reads from the stream
        strategy = RandomizedAlignedStrategy.draw(np.random.default_rng(3), 4)
        stream = RandomStream(43, 1)
        episodes = simulate_strategy(strategy, 4, COSTS, 0.5, 300, stream)
        z = sample_normal(GaussianModel(0.5), stream, (300, 4))
        run = episodes.indicators
        assert run.any() and not run.all()
        assert np.array_equal(episodes.evidence, z)

    def test_matches_per_replicate_reference(self):
        strategy = RandomizedAlignedStrategy.draw(np.random.default_rng(5), 4)
        stream = RandomStream(44, 0)
        episodes = simulate_strategy(strategy, 4, COSTS, 0.0, 500, stream)
        expected = reference_aligned_episodes(strategy, COSTS, 0.0, 500, stream)
        assert episodes.total_withdrawal.max() > 0.0
        for name in BATCH_ARRAYS:
            assert np.array_equal(getattr(episodes, name), expected[name], equal_nan=True), name

    def test_factor_licenses_are_evalues(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_factor_license(rng)
            assert null_expectation(f, NULL) == pytest.approx(1.0, abs=1e-9)


def gathered_terminal_license(episodes):
    """The license at each episode's last round, licenses[r, tau - 1], and 0
    for an episode that stopped before round 1."""
    last = np.maximum(episodes.tau - 1, 0)
    held = episodes.licenses[np.arange(len(episodes)), last]
    return np.where(episodes.tau > 0, held, 0.0)


class TestTerminalLicense:
    # the license columns freeze past tau, so the last column is the gather

    @pytest.mark.parametrize(
        "policy",
        (POLICY, backward_induction(3, 1.5, 1.0, LicenseGrid.from_cap(1.0, 20))),
        ids=("policy", "stops-before-round-1"),
    )
    def test_policy_terminal_license_is_the_gathered_one(self, policy):
        episodes = simulate_policy(policy, 1.2, 500, RandomStream(89, 0))
        assert np.array_equal(episodes.terminal_license, gathered_terminal_license(episodes))

    @pytest.mark.parametrize("seed", range(4))
    def test_strategy_terminal_license_is_the_gathered_one(self, seed):
        rng = np.random.default_rng(seed)
        strategy = RandomizedAlignedStrategy(
            factors=tuple(random_factor_license(rng) for _ in range(4)),
            stop_probs=(0.3, 0.2, 0.3, 0.4),
            withdraw_probs=(0.9,) * 4,
            withdraw_fracs=(0.5,) * 4,
            run_probs=(0.7,) * 4,
        )
        episodes = simulate_strategy(strategy, 4, COSTS, 0.5, 500, RandomStream(97, seed))
        # replicates stopping before round 1, before the last round and never
        tau = episodes.tau
        assert (tau == 0).any() and ((tau > 0) & (tau < 4)).any() and (tau == 4).any()
        assert (episodes.withdrawals[tau < 4] > 0.0).any()
        assert np.array_equal(episodes.terminal_license, gathered_terminal_license(episodes))

    def test_single_stage_strategy_terminal_license_is_the_gathered_one(self):
        factor = random_factor_license(np.random.default_rng(67))
        strategy = SingleStageStrategy(stage=2, factor=factor)
        episodes = simulate_strategy(strategy, 4, COSTS, 0.5, 300, RandomStream(71, 1))
        assert np.all(episodes.tau == 2)
        assert np.array_equal(episodes.terminal_license, gathered_terminal_license(episodes))


class TestSupermartingale:
    def test_dp_policy_under_null_passes(self):
        episodes = simulate_policy(POLICY, 0.0, 30_000, RandomStream(53, 0))
        report = supermartingale_check(episodes, POLICY.costs)
        assert report.passes

    def test_randomized_aligned_strategies_pass(self):
        rng = np.random.default_rng(59)
        for k in range(5):
            strategy = RandomizedAlignedStrategy.draw(rng, 4)
            episodes = simulate_strategy(
                strategy, 4, COSTS, 0.0, 4000, RandomStream(61, k)
            )
            report = supermartingale_check(episodes, COSTS)
            assert report.passes

    def test_misaligned_update_extracts_its_excess(self):
        # single-stage strategy with a factor of null mass 1.2: expected
        # profit is exactly 0.2 times the stage cost
        factor = random_factor_license(np.random.default_rng(67)).scaled(1.2)
        assert null_expectation(factor, NULL) == pytest.approx(1.2, abs=1e-9)
        strategy = SingleStageStrategy(stage=2, factor=factor)
        episodes = simulate_strategy(strategy, 4, COSTS, 0.0, 30_000, RandomStream(71, 0))
        se = episodes.profit.std(ddof=1) / math.sqrt(len(episodes))
        assert episodes.profit.mean() == pytest.approx(0.2 * 0.1, abs=3.0 * se)
        report = supermartingale_check(episodes, COSTS)
        assert not report.passes

    def test_needs_two_episodes(self):
        episodes = simulate_policy(POLICY, 0.0, 1, RandomStream(73, 0))
        with pytest.raises(ValueError, match="at least two episodes.* got 1"):
            supermartingale_check(episodes, POLICY.costs)

    def test_cost_ledger_validation(self):
        # at cap 1e-12 every cost is below 1e-12, so an absolute ledger
        # tolerance of that size would accept the doubled costs
        for cap in (1.0, 1e-12):
            policy = backward_induction(4, 0.1 * cap, 1.2, LicenseGrid.from_cap(cap, 50))
            episodes = simulate_policy(policy, 0.0, 1000, RandomStream(73, 0))
            assert episodes.indicators.any()
            assert supermartingale_check(episodes, [0.1 * cap] * 4).passes
            with pytest.raises(ValueError):
                supermartingale_check(episodes, [0.2 * cap] * 4)
            with pytest.raises(ValueError):
                supermartingale_check(episodes, [0.1 * cap] * 3)

    def test_costs_of_a_round_no_replicate_ran_must_match(self):
        # only stage 1 runs, so no episode paid the stage-4 cost; the batch
        # still holds it, and a different one is rejected
        strategy = SingleStageStrategy(stage=1, factor=LicenseFn([], [1.0]))
        episodes = simulate_strategy(strategy, 4, COSTS, 0.0, 100, RandomStream(79, 0))
        assert not episodes.indicators[:, 1:].any()
        assert supermartingale_check(episodes, COSTS).passes
        with pytest.raises(ValueError, match=r"are not the episodes' \[0.1, 0.1, 0.1, 0.1\]"):
            supermartingale_check(episodes, [0.1, 0.1, 0.1, 0.2])

    def test_costs_paid_is_derived_from_the_round_costs(self):
        episodes = simulate_policy(POLICY, 1.2, 200, RandomStream(83, 0))
        assert np.array_equal(episodes.costs, POLICY.costs)
        assert np.array_equal(episodes.costs_paid, episodes.indicators * episodes.costs)
        with pytest.raises(AttributeError):
            episodes.costs_paid = np.zeros_like(episodes.costs_paid)


class TestValidation:
    def test_reps_positive(self):
        with pytest.raises(ValueError):
            simulate_policy(POLICY, 1.0, 0, RandomStream(1, 0))

    def test_strategy_reps_positive(self):
        strategy = SingleStageStrategy(1, LicenseFn([], [1.0]))
        with pytest.raises(ValueError, match="at least one replicate"):
            simulate_strategy(strategy, 4, COSTS, 0.0, 0, RandomStream(1, 0))

    def test_strategy_theta_finite(self):
        strategy = SingleStageStrategy(1, LicenseFn([], [1.0]))
        with pytest.raises(ValueError, match="mean must be finite"):
            simulate_strategy(strategy, 4, COSTS, math.nan, 10, RandomStream(1, 0))

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, -math.inf])
    def test_strategy_costs_positive_finite(self, bad):
        strategy = SingleStageStrategy(1, LicenseFn([], [1.0]))
        with pytest.raises(ValueError, match="round costs must be positive and finite"):
            simulate_strategy(strategy, 4, [0.1, bad, 0.1, 0.1], 0.0, 10, RandomStream(1, 0))

    def test_strategy_needs_cost_per_round(self):
        strategy = SingleStageStrategy(1, LicenseFn([], [1.0]))
        with pytest.raises(ValueError):
            simulate_strategy(strategy, 3, [0.1], 0.0, 10, RandomStream(1, 0))

    def test_strategy_horizon_positive(self):
        strategy = SingleStageStrategy(1, LicenseFn([], [1.0]))
        with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
            simulate_strategy(strategy, 0, [], 0.0, 10, RandomStream(1, 0))
