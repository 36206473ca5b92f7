"""Acceptance suite: one test per committed criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or on failure).

Criterion 8 brackets the adaptive five-round agent's mean profit between two
one-round agents, in every (cap, theta1) cell, to 3 SE:

- Lower bound, the same-cost one-round agent: pay C once, take
  R * 1{Z > threshold} with null tail mass C/R, stop. That license lies on
  the license grid and is one of the program's choices, so the optimum is
  worth at least its closed-form profit.
- Upper bound, the pooled agent plus (H - 1) * C: the adaptive terminal
  license is a function of at most H observations, capped at R, and its null
  expectation is at most the cost paid, at most H * C. By Neyman-Pearson its
  expected payout is at most that of the pooled agent, who pays H * C for
  all H observations upfront and takes the all-or-nothing license with null
  mass H * C, while the adaptive agent pays at least C.

Dominance over the pooled agent is not guaranteed, and at cap 5 with small
effects the pooled agent wins: tests/test_dp.py::TestPooledAgentComparison
pins that observed regime, including under grid refinement.
"""

import math

import numpy as np

from evcontracts import (
    GaussianModel,
    HIGH_SEVERITY,
    LOW_SEVERITY,
    LicenseFn,
    Menu,
    RandomStream,
    Verdict,
    audit_table,
    is_evalue,
    is_incentive_aligned,
    np_best_response,
    null_expectation,
    placebo_expected_value,
    posterior_null_share,
    sample_normal,
    upper_tail,
    upper_tail_inverse,
    welfare_curve,
)
from evcontracts.experiments import resolve_config, run_evalue_growth
from evcontracts.multiround import (
    DiscretizedEvidence,
    LicenseGrid,
    PLCValue,
    RandomizedAlignedStrategy,
    SingleStageStrategy,
    backward_induction,
    discrete_root_value,
    optimal_steps,
    random_factor_license,
    simulate_policy,
    simulate_strategy,
    solve_lambda,
    supermartingale_check,
)

NULL = GaussianModel(0.0)
M = 1_000_000


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_intro_arithmetic():
    small = placebo_expected_value(0.05, 100 * M, 10 * M)
    large = placebo_expected_value(0.05, 1000 * M, 10 * M)
    share = posterior_null_share(0.05, 0.80, 20.0)
    ok = (
        small == -5 * M
        and large == 40 * M
        and round(share, 4) == 0.5556
    )
    report(1, "intro arithmetic: -5M, +40M, 55.56% null share", ok)


def test_criterion_2_audit_table():
    # printed values are rounded to 1M except the 4.9B entry (0.1B print
    # resolution); verdicts must match exactly
    printed = {
        ("standard", 1): (-49 * M, 1 * M, Verdict.ALIGNED),
        ("standard", 10): (-44 * M, 1 * M, Verdict.ALIGNED),
        ("standard", 100): (13 * M, 1 * M, Verdict.NOT_ALIGNED),
        ("modernized", 1): (-45 * M, 1 * M, Verdict.ALIGNED),
        ("modernized", 10): (0, 1 * M, Verdict.BORDERLINE),
        ("modernized", 100): (450 * M, 1 * M, Verdict.NOT_ALIGNED),
        ("accelerated", 1): (-1 * M, 1 * M, Verdict.BORDERLINE),
        ("accelerated", 10): (444 * M, 1 * M, Verdict.NOT_ALIGNED),
        ("accelerated", 100): (4900 * M, 50 * M, Verdict.NOT_ALIGNED),
    }
    rows = audit_table()
    ok = len(rows) == 9
    for row in rows:
        value, tolerance, verdict = printed[(row.protocol, row.profit // (1000 * M))]
        ok = ok and abs(row.expected_value - value) <= tolerance
        ok = ok and row.verdict is verdict
    report(2, "all nine audit rows and verdicts", ok)


def test_criterion_3_closed_form_multiplier():
    theta = 1.0
    knots = 4000.0 * (np.arange(4001) / 4000.0) ** 2
    v = PLCValue(knots, 2.0 * np.sqrt(knots))
    lam = solve_lambda(v, theta, 1.0)
    value = float(optimal_steps(v, theta, [1.0])[1][0])
    lam_target = math.exp(theta**2 / 2.0)
    value_target = 2.0 * math.exp(theta**2 / 2.0)
    ok = (
        abs(lam - lam_target) <= 1e-3 * lam_target
        and abs(value - value_target) <= 1e-3 * value_target
    )
    report(3, "sqrt value function: multiplier e^0.5, value 2e^0.5", ok)


def test_criterion_4_single_round_reduction():
    grid = LicenseGrid.from_cap(1.0, 100)
    ok = True
    for ratio in (0.002, 0.05, 0.2):
        for theta in (0.5, 1.0, 1.645):
            policy = backward_induction(1, ratio, theta, grid)
            target_threshold = upper_tail_inverse(ratio)
            target_profit = upper_tail(target_threshold - theta) - ratio
            update = policy.action(1, 0)
            ok = ok and abs(policy.root_value - target_profit) <= grid.epsilon
            ok = ok and len(update.breakpoints) == 1
            ok = ok and abs(update.breakpoints[0] - target_threshold) <= 1e-6
    report(4, "one-round program equals the all-or-nothing best response", ok)


def test_criterion_5_brute_force_equivalence():
    from test_dp import _enumeration_oracle

    z_points = np.linspace(-4.0, 4.0, 21)
    grid = LicenseGrid.from_cap(1.0, 5)
    evidence = DiscretizedEvidence(z_points)
    root = discrete_root_value(2, 0.1, 1.0, grid, evidence)
    oracle = _enumeration_oracle(
        z_points=z_points, n_levels=5, cap=1.0, costs=[0.1, 0.1], theta=1.0
    )
    ok = abs(root - oracle) <= 1e-12
    report(5, "discrete program equals brute-force policy enumeration", ok)


def test_criterion_6_welfare_properties():
    grid = [i / 100 for i in range(101)]
    tol = 1e-9
    ok = True
    for severity in (HIGH_SEVERITY, LOW_SEVERITY):
        rows50 = welfare_curve(grid, 1.0, 50.0, severity, 1.0)
        rows5 = welfare_curve(grid, 1.0, 5.0, severity, 1.0)
        ok = ok and all(ua >= -tol for _, ua, _ in rows50 + rows5)
        # loose status quo: null agents enter, utility 0.05*c1 at pi0 = 1
        ok = ok and abs(rows50[-1][2] - 0.05 * severity.cost_null) <= tol
        ok = ok and rows50[-1][2] < 0.0
        # tight status quo: nonnegative everywhere, strictly dominated
        ok = ok and all(us >= -tol for _, _, us in rows5)
        ok = ok and all(ua > us for pi0, ua, us in rows5 if pi0 < 1.0)
    sq_power = upper_tail(upper_tail_inverse(0.05) - 1.0)
    np_power = upper_tail(upper_tail_inverse(0.2) - 1.0)
    ok = ok and abs(sq_power - 0.2595) <= 5e-5 and np_power > sq_power
    report(6, "alignment and maximin welfare structure", ok)


def test_criterion_7_supermartingale_suite():
    horizon, cost = 5, 0.1
    costs = [cost] * horizon
    grid = LicenseGrid.from_cap(1.0, 100)
    policy = backward_induction(horizon, cost, 1.645, grid)
    dp_episodes = simulate_policy(policy, 0.0, 100_000, RandomStream(2025, 0))
    dp_report = supermartingale_check(dp_episodes, costs)
    ok = dp_report.passes

    # Each aligned strategy fails the 3-SE check by chance about 0.35% of
    # the time, so requiring all 50 to pass would fail about 16% of stream
    # sets. Allowing at most 2 flags keeps the false-alarm rate at
    # P(Bin(50, 0.0035) >= 3) = 7.4e-4, below one one-sided 3-SE test's 1.35e-3.
    rng = np.random.default_rng(424242)
    saw_withdrawals = False
    flagged = 0
    for k in range(50):
        strategy = RandomizedAlignedStrategy.draw(rng, horizon)
        episodes = simulate_strategy(
            strategy, horizon, costs, 0.0, 2000, RandomStream(90_000 + k, 0)
        )
        saw_withdrawals = saw_withdrawals or episodes.total_withdrawal.max() > 0.0
        flagged += not supermartingale_check(episodes, costs).passes
    ok = ok and flagged <= 2 and saw_withdrawals

    factor = random_factor_license(np.random.default_rng(11)).scaled(1.2)
    assert abs(null_expectation(factor, NULL) - 1.2) <= 1e-9
    episodes = simulate_strategy(
        SingleStageStrategy(stage=1, factor=factor),
        horizon,
        costs,
        0.0,
        100_000,
        RandomStream(777, 0),
    )
    se = episodes.profit.std(ddof=1) / math.sqrt(len(episodes))
    ok = ok and abs(episodes.profit.mean() - 0.2 * cost) <= 3.0 * se
    report(7, "net profit supermartingale under the null", ok)


def test_criterion_8_multiround_simulation_properties():
    horizon, cost, reps = 5, 0.1, 10_000
    seed = 60601
    pooled_sd = 1.0 / math.sqrt(horizon)
    pooled_cost = horizon * cost

    # focal effect, cap 1: reach the cap almost surely, stop early, pay little
    grid1 = LicenseGrid.from_cap(1.0, 100)
    policy = backward_induction(horizon, cost, 1.645, grid1)
    episodes = simulate_policy(policy, 1.645, reps, RandomStream(seed, 0))
    ok = bool(np.mean(episodes.terminal_license >= 1.0 - 1e-9) >= 0.95)
    ok = ok and episodes.tau.mean() < 5.0
    ok = ok and episodes.total_cost.mean() < 0.5

    # profit bracket: same-cost one-round agent <= adaptive <= pooled + (H-1)C
    stream_index = 1
    failures = []
    for cap in (1.0, 5.0):
        grid = LicenseGrid.from_cap(cap, 100)
        for theta in (0.5, 1.0, 1.645, 2.5):
            dp = backward_induction(horizon, cost, theta, grid)
            multi = simulate_policy(dp, theta, reps, RandomStream(seed, stream_index))
            five_license = np_best_response(pooled_cost, cap, sd=pooled_sd)
            z = sample_normal(
                GaussianModel(theta, pooled_sd),
                RandomStream(seed, stream_index + 1),
                reps,
            )
            five = np.asarray(five_license(z), dtype=float) - pooled_cost
            stream_index += 2
            mean = multi.profit.mean()
            multi_var = multi.profit.var(ddof=1) / reps

            one = cap * upper_tail(upper_tail_inverse(cost / cap) - theta) - cost
            se = math.sqrt(multi_var)
            if mean < one - 3.0 * se:
                failures.append(
                    f"cap={cap} theta={theta}: multi {mean:.4f} "
                    f"< one-round {one:.4f} - 3se ({se:.4f})"
                )

            upper = five.mean() + (horizon - 1) * cost
            se = math.sqrt(multi_var + five.var(ddof=1) / reps)
            if mean > upper + 3.0 * se:
                failures.append(
                    f"cap={cap} theta={theta}: multi {mean:.4f} "
                    f"> pooled + (H-1)C {upper:.4f} + 3se ({se:.4f})"
                )
    if failures:
        print("profit bracket violations:", *failures, sep="\n  ")
    ok = ok and not failures
    report(8, "multi-round simulation properties and one-round profit bracket", ok)


def test_criterion_9_evalue_growth(tmp_path):
    config = resolve_config(
        "evalue_growth",
        tmp_path / "evalue_growth",
        overrides={"n_max": "500", "reps": "10000", "seed": "314159"},
    )
    result = run_evalue_growth(config)
    slope = result.summary["slope"]
    ok = abs(slope - 0.02) <= 0.1 * 0.02 and result.summary["null_mean_ok"]
    report(9, "e-value growth rate 0.02 and null martingale mean", ok)


def test_criterion_10_characterization_round_trip():
    rng = np.random.default_rng(987)
    disagreements = 0
    for _ in range(1000):
        licenses = []
        for _ in range(int(rng.integers(1, 4))):
            n_breaks = int(rng.integers(1, 5))
            breaks = np.sort(rng.normal(0.0, 1.5, n_breaks))
            if len(np.unique(breaks)) != n_breaks:
                breaks = np.arange(n_breaks, dtype=float)
            values = np.cumsum(rng.uniform(0.0, 1.0, n_breaks + 1))
            licenses.append(LicenseFn(breaks, values))
        cost = float(rng.uniform(0.2, 3.0))
        menu = Menu.explicit(licenses, cost)
        aligned = is_incentive_aligned(menu, NULL)
        via_evalues = all(
            is_evalue(f.scaled(1.0 / cost), NULL) for f in licenses
        )
        if aligned != via_evalues:
            disagreements += 1
    report(10, "menu alignment iff rescaled members are e-values", disagreements == 0)
