import math

import numpy as np
import pytest
from scipy import integrate

from evcontracts import GaussianModel, LicenseFn, null_expectation, np_best_response
from evcontracts.multiround import (
    InfeasibleBudgetError,
    LicenseGrid,
    PLCValue,
    concave_monotone_hull,
    null_expectation_of_update,
    optimal_step,
    optimal_steps,
    optimizer,
    solve_lambda,
)

NULL = GaussianModel(0.0)


def sqrt_value(top: float, n_knots: int) -> PLCValue:
    """Discretization of 2*sqrt(x) with quadratically spaced knots."""
    knots = top * (np.arange(n_knots + 1) / n_knots) ** 2
    return PLCValue(knots, 2.0 * np.sqrt(knots))


def pointwise_update(v: PLCValue, lam: float, lr: float) -> float:
    """Largest knot whose left slope is at least lam / lr, else 0.

    ``lr`` is the likelihood-ratio value at the observed evidence; ties
    resolve to the larger knot.
    """
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not lr > 0.0:
        raise ValueError(f"likelihood ratio must be positive, got {lr}")
    price = lam / lr
    slopes = v.left_slopes()
    qualifying = np.nonzero(slopes >= price)[0]
    if qualifying.size == 0:
        return 0.0
    return float(v.knots[qualifying[-1] + 1])


def quadrature_update_expectation(v: PLCValue, lam: float, theta: float, mean: float):
    """Oracle: integrate phi(y - mean) * pointwise_update(v, lam, lr(y)) dy."""

    def integrand(y: float) -> float:
        lr = math.exp(theta * y - theta * theta / 2.0)
        density = math.exp(-0.5 * (y - mean) ** 2) / math.sqrt(2.0 * math.pi)
        return density * pointwise_update(v, lam, lr)

    value, _ = integrate.quad(
        integrand, -12.0 + mean, 12.0 + mean, epsabs=1e-12, epsrel=1e-10, limit=400
    )
    return value


class TestPointwiseUpdate:
    V = PLCValue([0.0, 1.0, 2.0, 3.0], [0.0, 3.0, 5.0, 6.0])  # slopes 3, 2, 1

    def test_huge_likelihood_ratio_selects_top(self):
        assert pointwise_update(self.V, 1.0, 1e280) == 3.0

    def test_price_above_first_slope_selects_origin(self):
        assert pointwise_update(self.V, 10.0, 1.0) == 0.0

    def test_tie_takes_larger_knot(self):
        # price exactly equal to the middle slope
        assert pointwise_update(self.V, 2.0, 1.0) == 2.0

    def test_interior(self):
        assert pointwise_update(self.V, 1.5, 1.0) == 2.0
        assert pointwise_update(self.V, 2.5, 1.0) == 1.0

    def test_huge_ratio_on_strictly_increasing_reaches_top(self):
        assert pointwise_update(self.V, 1e-280, 1.0) == 3.0

    def test_flat_segment_never_selected(self):
        # a zero left slope can never clear a positive price, so the update
        # stops at the leftmost point of the flat stretch
        flat_top = PLCValue([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert pointwise_update(flat_top, 1e-12, 1e12) == 1.0
        assert pointwise_update(flat_top, 0.5, 1.0) == 1.0

    def test_smooth_limit_matches_closed_form(self):
        # for 2*sqrt(x) the priced update tends to exp(2*y*theta - 2*theta^2);
        # the knot quantization error shrinks as the grid refines
        theta = 1.0
        lam = math.exp(theta * theta / 2.0)
        errors = []
        for n_knots in (200, 2000):
            v = sqrt_value(400.0, n_knots)
            worst = 0.0
            for y in (-1.0, 0.0, 0.5, 1.0, 2.0):
                lr = math.exp(theta * y - theta * theta / 2.0)
                target = math.exp(2.0 * y * theta - 2.0 * theta * theta)
                got = pointwise_update(v, lam, lr)
                worst = max(worst, abs(got - target) / target)
            errors.append(worst)
        assert errors[1] < errors[0]
        assert errors[1] < 0.1
        # away from the origin the fine grid is accurate to a percent
        for y in (0.5, 1.0, 2.0):
            lr = math.exp(theta * y - theta * theta / 2.0)
            target = math.exp(2.0 * y * theta - 2.0 * theta * theta)
            got = pointwise_update(sqrt_value(400.0, 2000), lam, lr)
            assert got == pytest.approx(target, rel=2e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            pointwise_update(self.V, 0.0, 1.0)
        with pytest.raises(ValueError):
            pointwise_update(self.V, 1.0, 0.0)


class TestNullExpectationOfUpdate:
    def test_matches_quadrature_oracle(self):
        v = PLCValue([0.0, 1.0, 2.0, 3.0], [0.0, 3.0, 5.0, 6.0])
        for lam in (0.5, 1.0, 2.0):
            assert null_expectation_of_update(v, lam, 1.0) == pytest.approx(
                quadrature_update_expectation(v, lam, 1.0, 0.0), abs=1e-9
            )

    def test_decreasing_in_lambda(self):
        v = PLCValue([0.0, 3.0], [0.0, 3.0])  # identity through the origin
        spends = [null_expectation_of_update(v, lam, 1.0) for lam in (0.5, 1.0, 2.0)]
        assert spends[0] > spends[1] > spends[2]

    def test_vanishes_at_huge_lambda(self):
        v = PLCValue([0.0, 3.0], [0.0, 3.0])
        assert null_expectation_of_update(v, 1e8, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_smooth_closed_form(self):
        # E_0 = lambda^-2 * exp(theta^2) for the 2*sqrt(x) value function
        theta = 1.0
        v = sqrt_value(4000.0, 4000)
        for lam in (1.3, math.exp(0.5), 2.2):
            target = lam**-2 * math.exp(theta * theta)
            assert null_expectation_of_update(v, lam, theta) == pytest.approx(
                target, rel=2e-3
            )

    def test_domain_errors(self):
        v = PLCValue([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            null_expectation_of_update(v, 1.0, 0.0)
        with pytest.raises(ValueError):
            null_expectation_of_update(v, -1.0, 1.0)


class TestSolveLambda:
    def test_sqrt_closed_form(self):
        # budget 1 with v = 2*sqrt(x), theta = 1: multiplier exp(theta^2/2)
        v = sqrt_value(4000.0, 4000)
        lam = solve_lambda(v, 1.0, 1.0)
        assert lam == pytest.approx(math.exp(0.5), rel=1e-3)

    def test_budget_monotonicity(self):
        v = PLCValue([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        lam_small = solve_lambda(v, 1.0, 0.2)
        lam_big = solve_lambda(v, 1.0, 0.4)
        assert lam_big < lam_small

    def test_one_knot_against_grid_search(self):
        # two-stage dense grid search oracle: coarse sweep, then refinement
        v = PLCValue([0.0, 2.0], [0.0, 1.5])
        theta, budget = 0.9, 0.35
        lam = solve_lambda(v, theta, budget)
        lo, hi = math.log(1e-4), math.log(1e4)
        for _ in range(3):
            grid = np.exp(np.linspace(lo, hi, 10_001))
            spends = np.abs(
                [null_expectation_of_update(v, g, theta) - budget for g in grid]
            )
            best = int(np.argmin(spends))
            lo = math.log(grid[max(best - 2, 0)])
            hi = math.log(grid[min(best + 2, len(grid) - 1)])
        lam_oracle = math.exp(0.5 * (lo + hi))
        assert lam == pytest.approx(lam_oracle, rel=1e-6)

    def test_budget_binds(self):
        v = PLCValue([0.0, 1.0, 2.0, 5.0], [0.0, 2.0, 3.0, 4.0])
        for budget in (0.05, 0.8, 3.0):
            lam = solve_lambda(v, 1.2, budget)
            assert null_expectation_of_update(v, lam, 1.2) == pytest.approx(
                budget, rel=1e-7
            )

    def test_infeasible_budget(self):
        v = PLCValue([0.0, 2.0], [0.0, 1.5])
        with pytest.raises(InfeasibleBudgetError):
            solve_lambda(v, 1.0, 2.5)  # above the top knot
        with pytest.raises(ValueError):
            solve_lambda(v, 1.0, 0.0)

    def test_spend_saturating_below_the_budget_is_infeasible(self):
        # these increments sum to one ulp below the top knot, so no spend,
        # even one saturated in floating point, reaches a budget at the top
        knots = [0.0, 0.13440320962888666, 0.3801404212637914, 0.9408224674022067]
        v = PLCValue(knots, [0.0, 0.4, 0.9, 1.0])
        for theta in (0.05, 1.0, 30.0):
            with pytest.raises(InfeasibleBudgetError, match="not attainable"):
                solve_lambda(v, theta, knots[-1])

    def test_unmet_tolerance_raises(self, monkeypatch):
        # no residual can meet a negative tolerance, so the bisection runs
        # out and must say so instead of returning its last midpoint
        monkeypatch.setattr(optimizer, "LAMBDA_REL_TOL", -1.0)
        v = PLCValue([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        with pytest.raises(RuntimeError, match="budget 0.3 .* residual"):
            solve_lambda(v, 1.0, 0.3)

    def test_vector_budgets_equal_scalar_calls(self):
        # theta 8 at cap 5 needs multipliers outside [1e-6, 1e6] on both sides
        for v, theta in ((sqrt_value(4.0, 50), 1.0), (PLCValue([0.0, 5.0], [0.0, 5.0]), 8.0)):
            budgets = np.array([1e-8, 0.01, 0.1, 0.5, 1.0, 3.0, 3.99])
            lams = solve_lambda(v, theta, budgets)
            assert lams.shape == budgets.shape
            scalars = [solve_lambda(v, theta, float(b)) for b in budgets]
            assert all(isinstance(lam, float) for lam in scalars)
            assert lams.tolist() == scalars
            for lam, budget in zip(lams, budgets):
                spend = null_expectation_of_update(v, lam, theta)
                assert spend == pytest.approx(budget, rel=1e-11)

    def test_vector_budget_validation(self):
        v = PLCValue([0.0, 2.0], [0.0, 1.5])
        with pytest.raises(InfeasibleBudgetError, match="budget 2.5"):
            solve_lambda(v, 1.0, np.array([0.5, 2.5]))
        with pytest.raises(ValueError, match="budget must be positive"):
            solve_lambda(v, 1.0, np.array([0.5, 0.0]))

    def test_max_spendable(self):
        # the top reachable knot bounds the budget; a flat tail is not spendable
        for v, top in (
            (PLCValue([0.0, 2.0], [0.0, 1.5]), 2.0),
            (PLCValue([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]), 1.0),
        ):
            with pytest.raises(InfeasibleBudgetError, match=f"top reachable knot {top}$"):
                solve_lambda(v, 1.0, math.nextafter(top, math.inf))
            assert null_expectation_of_update(
                v, solve_lambda(v, 1.0, 0.5 * top), 1.0
            ) == pytest.approx(0.5 * top, rel=1e-11)


class TestOptimalStep:
    def test_linear_terminal_recovers_best_response(self):
        # capped-linear next-stage values: the step is the all-or-nothing
        # license of the one-shot game
        grid = LicenseGrid.from_cap(1.0, 100)
        for ratio in (0.05, 0.2):
            update, value = optimal_step(
                concave_monotone_hull(
                    grid.level_values(), np.minimum(grid.level_values(), grid.cap)
                ),
                1.0,
                ratio,
            )
            reference = np_best_response(0.0, 1.0, ratio, 1.0)
            assert len(update.breakpoints) == 1
            assert update.values == (0.0, 1.0)
            assert update.breakpoints[0] == pytest.approx(
                reference.breakpoints[0], abs=1e-6
            )

    def test_single_level_grid_all_or_nothing(self):
        grid = LicenseGrid.from_cap(2.0, 1)
        update, _ = optimal_step(
            concave_monotone_hull(grid.level_values(), [0.0, 2.0]), 1.0, 0.3
        )
        assert update.values == (0.0, 2.0)
        assert len(update.breakpoints) == 1

    def test_budget_binds_on_emitted_update(self):
        rng = np.random.default_rng(8)
        grid = LicenseGrid.from_cap(1.0, 40)
        for _ in range(25):
            v_next = np.concatenate(
                ([0.0], np.cumsum(rng.uniform(0.0, 0.1, grid.levels)))
            )
            budget = rng.uniform(0.02, 0.9)
            update, _ = optimal_step(
                concave_monotone_hull(grid.level_values(), v_next), 1.0, budget
            )
            mass = null_expectation(update, NULL)
            assert mass == pytest.approx(budget, abs=1e-6 * grid.cap)

    def test_budget_at_cap_degenerates_to_constant(self):
        grid = LicenseGrid.from_cap(1.0, 10)
        levels = grid.level_values()
        update, value = optimal_step(concave_monotone_hull(levels, levels), 1.0, 1.0)
        assert update.breakpoints == ()
        assert update.values == (1.0,)
        assert value == pytest.approx(1.0)

    def test_value_matches_monte_carlo(self):
        rng = np.random.default_rng(123)
        grid = LicenseGrid.from_cap(1.0, 20)
        v_next = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 0.12, 20))))
        theta = 1.1
        update, value = optimal_step(
            concave_monotone_hull(grid.level_values(), v_next), theta, 0.3
        )
        z = rng.normal(theta, 1.0, 1_000_000)
        levels = np.asarray(update(z))
        idx = np.rint(levels / grid.epsilon).astype(int)
        samples = v_next[idx]
        se = samples.std(ddof=1) / 1000.0
        assert value == pytest.approx(samples.mean(), abs=3.0 * se)

    def test_transformed_objective_equals_raw_on_support(self):
        # nondecreasing raw values: the hull touches them at every level the
        # update can output, so no value is lost in the reduction
        rng = np.random.default_rng(77)
        grid = LicenseGrid.from_cap(1.0, 30)
        for _ in range(20):
            v_next = np.concatenate(
                ([0.0], np.cumsum(rng.uniform(0.0, 0.1, grid.levels)))
            )
            hull = concave_monotone_hull(grid.level_values(), v_next)
            update, _ = optimal_step(hull, 0.9, 0.25)
            for level in update.values:
                raw = v_next[int(round(level / grid.epsilon))]
                assert float(hull(level)) == pytest.approx(raw, abs=1e-12)

    def test_no_feasible_better_update_brute_force(self):
        # random feasible step updates on the grid never beat the optimizer
        rng = np.random.default_rng(99)
        grid = LicenseGrid.from_cap(1.0, 10)
        theta, budget = 1.0, 0.15
        v_next = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 0.2, 10))))
        _, best = optimal_step(
            concave_monotone_hull(grid.level_values(), v_next), theta, budget
        )
        alt = GaussianModel(theta)
        for _ in range(300):
            n_breaks = int(rng.integers(1, 4))
            breaks = np.sort(rng.normal(0.5, 1.5, n_breaks))
            if len(np.unique(breaks)) != n_breaks:
                continue
            idx = np.sort(rng.integers(0, 11, n_breaks + 1))
            candidate = LicenseGrid.from_cap(1.0, 10).epsilon * idx
            try:
                update = LicenseFn(breaks, candidate)
            except ValueError:
                continue
            if null_expectation(update, NULL) > budget:
                continue
            gained = sum(
                p * v_next[int(round(v / grid.epsilon))]
                for p, v in zip(_outcome_probs(update, theta), update.values)
            )
            assert gained <= best + 1e-9

    def test_flat_value_never_spends(self):
        flat = PLCValue([0.0, 1.0, 2.0], [0.3, 0.3, 0.3])
        updates, values = optimal_steps(flat, 1.0, [0.1, 0.5, 5.0])
        assert tuple(updates) == (LicenseFn([], [0.0]),) * 3
        assert values.tolist() == [0.3, 0.3, 0.3]

    def test_batch_equals_single_budgets(self):
        rng = np.random.default_rng(5)
        grid = LicenseGrid.from_cap(1.0, 30)
        v_next = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 0.1, 30))))
        hull = concave_monotone_hull(grid.level_values(), v_next)
        budgets = [0.05, 0.3, 0.7, 1.0, 2.0]
        updates, values = optimal_steps(hull, 0.8, budgets)
        for budget, update, value in zip(budgets, updates, values):
            assert optimal_step(hull, 0.8, budget) == (update, value)

    def test_infeasible_budget_propagates(self):
        grid = LicenseGrid.from_cap(1.0, 10)
        with pytest.raises(ValueError):
            levels = grid.level_values()
            optimal_step(concave_monotone_hull(levels, levels), 1.0, 0.0)


def _outcome_probs(update: LicenseFn, mean: float) -> list[float]:
    from evcontracts import upper_tail

    breaks = list(update.breakpoints)
    tails = [upper_tail(b - mean) for b in breaks]
    probs = [1.0 - tails[0]]
    probs += [tails[i] - tails[i + 1] for i in range(len(tails) - 1)]
    probs.append(tails[-1])
    return probs


class TestGridAndUpdateTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            LicenseGrid(0.0, 10)
        with pytest.raises(ValueError):
            LicenseGrid(0.1, 0)

    def test_grid_roundtrip(self):
        grid = LicenseGrid.from_cap(5.0, 100)
        assert grid.cap == pytest.approx(5.0)

    def test_step_update_validation(self):
        with pytest.raises(ValueError):
            LicenseFn([0.0], [1.0])
        with pytest.raises(ValueError):
            LicenseFn([1.0, 0.5], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            LicenseFn([0.0], [1.0, 0.5])

    def test_step_update_apply(self):
        update = LicenseFn([0.0, 1.0], [0.0, 0.5, 1.0])
        assert list(update(np.array([-1.0, 0.0, 0.5, 2.0]))) == [
            0.0,
            0.5,
            0.5,
            1.0,
        ]


class TestAlternativeValue:
    def test_against_quadrature(self):
        v = PLCValue([0.0, 1.0, 2.0, 3.0], [0.0, 3.0, 5.0, 6.0])
        theta = 1.0
        for lam in (0.8, 1.6):

            def integrand(y: float) -> float:
                lr = math.exp(theta * y - theta * theta / 2.0)
                x = pointwise_update(v, lam, lr)
                density = math.exp(-0.5 * (y - theta) ** 2) / math.sqrt(2 * math.pi)
                return density * float(v(x))

            target, _ = integrate.quad(
                integrand, -11.0, 13.0, epsabs=1e-12, epsrel=1e-10, limit=400
            )
            # the update that spends lam's budget is lam's update
            _, values = optimal_steps(v, theta, [null_expectation_of_update(v, lam, theta)])
            assert values[0] == pytest.approx(target, abs=1e-9)
