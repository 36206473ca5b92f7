import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from evcontracts import GaussianModel, LicenseFn, null_expectation, np_best_response, upper_tail
from evcontracts.multiround import (
    InfeasibleBudgetError,
    LicenseGrid,
    PLCValue,
    backward_induction,
    concave_monotone_hull,
    dp,
    null_expectation_of_update,
    optimal_step,
    optimal_steps,
    optimizer,
    solve_lambda,
)
from test_dp import _oracle_lambda

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

    def test_solvers_reject_a_nan_value(self):
        # a NaN slope passes the order checks, so these once priced it
        with pytest.raises(ValueError, match="must be finite"):
            solve_lambda(PLCValue([0.0, 1.0, 2.0], [0.0, 0.5, math.nan]), 1.0, 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            optimal_steps(PLCValue([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]), 1.0, [0.5])

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

    def test_lattice_points_are_the_linspace_table(self):
        # the lattice is fixed, not placed by the batch, so a budget's fit cell
        # and root are the same solved alone or with others; its first 65
        # points are np.linspace(log 1e-6, log 1e6, 65)
        grid = np.arange(65) * optimizer._LATTICE_STEP + optimizer._LATTICE_ORIGIN
        assert grid.tolist() == np.linspace(math.log(1e-6), math.log(1e6), 65).tolist()

    @pytest.mark.parametrize("theta", [8.0, 36.0])
    def test_large_effect_tabulates_its_bracket_once(self, monkeypatch, theta):
        # roots far below 1e-6 (near exp(-690) at theta 36) are bracketed in
        # closed form: one table pass, one pass over the fit cells' nodes
        # under the null and one under the alternative, and one certifying
        # pass over the 9 budgets, with no Newton pass
        passes, slopes = [], []
        spend, spend_slope = optimizer._spend, optimizer._spend_slope

        def counted(increments, y):
            passes.append(len(y))
            return spend(increments, y)

        def counted_slope(increments, y, theta):
            slopes.append(len(y))
            return spend_slope(increments, y, theta)

        monkeypatch.setattr(optimizer, "_spend", counted)
        monkeypatch.setattr(optimizer, "_spend_slope", counted_slope)
        v = sqrt_value(1.0, 10)
        budgets = np.linspace(0.1, 0.9, 9)
        lams = solve_lambda(v, theta, budgets)
        assert len(passes) == 4 and passes[1] == passes[2] and passes[3] == 9
        assert slopes == []
        monkeypatch.setattr(optimizer, "_spend", spend)
        for lam, budget in zip(lams, budgets):
            assert null_expectation_of_update(v, lam, theta) == pytest.approx(budget, rel=1e-11)

    def test_fine_grid_round_is_certified_in_one_pass(self, monkeypatch):
        # each round makes four passes through the one tail-sum kernel: the
        # lattice table, the fit cells' nodes under the null and under the
        # alternative (far fewer rows than levels), and the certify pass over
        # the 392 levels below the cap, the only pass over the levels: every
        # alternative value comes from its fit cell. No slope pass, so no
        # level takes a Newton step
        rows, slopes = [], []
        spend, spend_slope = optimizer._spend, optimizer._spend_slope

        def counted(increments, y):
            rows.append(len(y))
            return spend(increments, y)

        def counted_slope(increments, y, theta):
            slopes.append(len(y))
            return spend_slope(increments, y, theta)

        monkeypatch.setattr(optimizer, "_spend", counted)
        monkeypatch.setattr(optimizer, "_spend_slope", counted_slope)
        backward_induction(5, 0.1, 1.0, LicenseGrid.from_cap(5.0, 400))
        assert len(rows) == 20 and rows[3::4] == [392] * 5 and rows[1::4] == rows[2::4]
        assert max(rows[0::4] + rows[1::4]) < 392 / 3
        assert slopes == []

    def test_missed_roots_are_priced_once(self, monkeypatch):
        # at theta 0.05 about half the fitted roots miss certification; the
        # pass that certifies them is the first pass of their Newton loop, so
        # no breakpoint row (one update at one u) is priced twice
        rows = []
        spend = optimizer._spend

        def counted(increments, y):
            rows.extend(map(bytes, y))
            return spend(increments, y)

        monkeypatch.setattr(optimizer, "_spend", counted)
        backward_induction(1, 0.1, 0.05, LicenseGrid.from_cap(5.0, 400))
        assert len(rows) > 0 and len(set(rows)) == len(rows)

    @settings(max_examples=40, derandomize=True, database=None, deadline=2000)
    @given(st.data())
    def test_random_hull_meets_its_budgets(self, data):
        # a concave hull with up to 50 positive slopes, theta in [0.05, 40] and
        # budget shares Pbar(q) with theta * (theta/2 - q) <= 300, so every root
        # lies above exp(-306), where the oracle's geometric midpoints stay normal
        k = data.draw(st.integers(1, 50))
        gaps = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        log_slopes = sorted(data.draw(st.lists(st.floats(-6.0, 3.0), min_size=k, max_size=k)))
        knots = np.concatenate(([0.0], np.cumsum(gaps)))
        values = np.concatenate(([0.0], np.cumsum(np.exp(log_slopes[::-1]) * gaps)))
        v = concave_monotone_hull(knots, values)
        theta = data.draw(st.floats(0.05, 40.0))
        q_min = max(-2.0, theta / 2.0 - 300.0 / theta)
        qs = data.draw(st.lists(st.floats(q_min, q_min + 8.0), min_size=1, max_size=12))
        budgets = np.array([upper_tail(q) for q in qs]) * v.knots[-1]
        lams = solve_lambda(v, theta, budgets)
        assert lams.tolist() == [solve_lambda(v, theta, float(b)) for b in budgets]
        slopes, increments = v.left_slopes(), np.diff(v.knots)
        for lam, budget in zip(lams, budgets):
            spend = null_expectation_of_update(v, lam, theta)
            assert abs(spend - budget) <= optimizer.LAMBDA_REL_TOL * budget
            # both multipliers meet the budget to LAMBDA_REL_TOL, which pins
            # log lambda to about LAMBDA_REL_TOL * budget / |S'| either way
            y = optimizer._breakpoints(np.log(slopes), np.array([[math.log(lam)]]), theta)
            slope = -optimizer._spend_slope(increments, y, theta)[0]
            u_oracle = math.log(_oracle_lambda(slopes, increments, theta, budget))
            assert abs(math.log(lam) - u_oracle) <= 4.0 * optimizer.LAMBDA_REL_TOL * budget / slope

    def test_multiplier_above_the_double_range_raises(self):
        # a slope near 1e300 puts the root of a tiny budget above exp(709.8)
        v = PLCValue([0.0, 1.0], [0.0, 1e300])
        with pytest.raises(optimizer.MultiplierRangeError, match="lies above exp"):
            solve_lambda(v, 6.3, 1e-12)

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
            reference = np_best_response(ratio, 1.0)
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


class TestOneKnotSet:
    def test_near_equal_slopes_keep_their_own_steps(self):
        # slopes 2 and 2 * (1 - 1e-14) put two breakpoints about 1e-14 apart;
        # the stored updates keep both, as the multiplier solve priced them
        s = 2.0 * (1.0 - 1e-14)
        value = PLCValue([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.0 + s, 2.5 + s])
        budgets = [0.3, 1.0, 2.0]
        batch, _ = optimal_steps(value, 1.0, budgets)
        assert batch.log_slopes.tolist() == np.log(value.left_slopes()).tolist()
        assert batch.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        for i, budget in enumerate(budgets):
            assert len(batch[i].breakpoints) == 3
            spent = null_expectation(batch[i], NULL)
            assert abs(spent - budget) <= optimizer.LAMBDA_REL_TOL * budget

    def test_tie_pays_the_larger_knot_from_the_tie_on(self):
        # breakpoints 0, 0.5, 0.5 and 1.5: the second and third coincide
        batch = optimizer.StepBatch(1.0, np.array([0.5, 0.0, 0.0, -1.0]), np.arange(5.0), np.zeros(1))
        z = np.array([-1.0, 0.0, math.nextafter(0.5, 0.0), 0.5, 1.0, 1.5])
        assert batch.evaluate(0, z).tolist() == [0.0, 1.0, 1.0, 3.0, 3.0, 4.0]
        # a LicenseFn view of a tie fails loudly
        with pytest.raises(ValueError, match="strictly increasing"):
            batch[0]


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

    @pytest.mark.parametrize(
        "epsilon, levels, field",
        (
            (0.5, 2.5, "levels"),  # cap 1.25, but the levels would reach 1.5
            (0.5, 2.0, "levels"),
            (math.inf, 2, "epsilon"),
            (math.nan, 2, "epsilon"),
            (-0.5, 2, "epsilon"),
            (1e308, 10, r"levels \* epsilon"),  # the top level overflows
        ),
    )
    def test_grid_it_cannot_build_names_the_field(self, epsilon, levels, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LicenseGrid(epsilon, levels)

    def test_grid_rejects_a_fractional_level_count_before_the_dp(self):
        with pytest.raises(ValueError, match="levels must be an integer"):
            backward_induction(2, 0.1, 1.0, LicenseGrid(0.5, 2.5))

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


def _fitted_and_exact(monkeypatch, horizon, theta, levels, cells=None):
    """Run a DP at cap 5, cost 0.1 and return, for every solved level of every
    round, its alternative value as returned and as priced exactly by
    _alternative_values at its certified root; ``cells`` collects whether each
    fit cell passed _alternative_fit's error test."""
    fitted, exact = [], []
    steps, fit = optimizer.optimal_steps, optimizer._alternative_fit

    def checked(value, theta1, budgets):
        batch, alt_values = steps(value, theta1, budgets)
        solved = batch.u > -np.inf
        _, log_slopes = optimizer._positive_slope_prefix(value)
        y = optimizer._breakpoints(log_slopes, batch.u[solved, None], theta1)
        fitted.extend(alt_values[solved].tolist())
        exact.extend(optimizer._alternative_values(value, y, theta1).tolist())
        return batch, alt_values

    def recorded(a):
        coef, passed = fit(a)
        cells.extend(passed.tolist())
        return coef, passed

    monkeypatch.setattr(dp, "optimal_steps", checked)
    if cells is not None:
        monkeypatch.setattr(optimizer, "_alternative_fit", recorded)
    backward_induction(horizon, 0.1, theta, LicenseGrid.from_cap(5.0, levels))
    return np.array(fitted), np.array(exact)


class TestFittedAlternativeValues:
    # each level's alternative value is read off its fit cell's interpolant,
    # or, where the cell's trailing coefficients fail the error test, priced
    # exactly in one pass after the certify pass

    @pytest.mark.parametrize("theta", (0.05, 0.2, 1.0, 1.645, 8.0))
    @pytest.mark.parametrize("levels", (100, 400, 1600))
    def test_within_the_fit_tolerance_of_the_exact_pass(self, monkeypatch, theta, levels):
        fitted, exact = _fitted_and_exact(monkeypatch, 3, theta, levels)
        assert fitted.size > 0
        assert np.all(np.abs(fitted - exact) <= optimizer.ALT_FIT_REL_TOL * exact)

    def test_small_effect_takes_the_exact_fallback(self, monkeypatch):
        # at theta 0.05 a fit cell spans 8.6 breakpoint units; its interpolant
        # misses by more than the tolerance, every cell's trailing
        # coefficients say so, and every level is priced exactly, bit for bit
        cells = []
        fitted, exact = _fitted_and_exact(monkeypatch, 3, 0.05, 400, cells)
        assert len(cells) > 0 and not any(cells)
        assert fitted.tolist() == exact.tolist()
        with monkeypatch.context() as m:
            m.setattr(optimizer, "ALT_FIT_REL_TOL", math.inf)
            forced, exact = _fitted_and_exact(m, 3, 0.05, 400)
        assert np.max(np.abs(forced - exact) / exact) > optimizer.ALT_FIT_REL_TOL

    @pytest.mark.parametrize("theta, calls", ((0.05, 6), (1.0, 3)))
    def test_fallback_is_priced_once_per_round(self, monkeypatch, theta, calls):
        # each round prices its fit cells' nodes, then, after certification,
        # every level whose cell failed the error test once: all at theta
        # 0.05, none at 1.0
        rows = []
        alternative_values = optimizer._alternative_values

        def counted(v, y, theta1):
            rows.append(len(y))
            return alternative_values(v, y, theta1)

        monkeypatch.setattr(optimizer, "_alternative_values", counted)
        backward_induction(3, 0.1, theta, LicenseGrid.from_cap(5.0, 400))
        assert len(rows) == calls

    @pytest.mark.parametrize("theta", (0.2, 1.0, 8.0))
    def test_fine_grid_cells_pass_the_error_test(self, monkeypatch, theta):
        cells = []
        _fitted_and_exact(monkeypatch, 3, theta, 400, cells)
        assert len(cells) > 0 and all(cells)


class TestInPlaceKernels:
    # the breakpoint and tail kernels build their matrices in place; they
    # equal the plain expressions bit for bit and leave their inputs alone

    @staticmethod
    def check(log_slopes, u, theta, increments):
        from scipy import special

        log_slopes, u = np.array(log_slopes), np.array(u)[:, None]
        increments = np.array(increments[: log_slopes.size])
        with np.errstate(over="ignore"):
            want_y = theta / 2.0 - (log_slopes - u) / theta
        y = optimizer._breakpoints(log_slopes, u, theta)
        assert y.tobytes() == want_y.tobytes()
        kept = y.copy()
        want = (increments * (0.5 * special.erfc(y / math.sqrt(2.0)))).sum(axis=1)
        assert optimizer._spend(increments, y).tobytes() == want.tobytes()
        with np.errstate(over="ignore"):
            want = (increments * np.exp(-0.5 * y * y)).sum(axis=1) / (
                -theta * math.sqrt(2.0 * math.pi))
        assert optimizer._spend_slope(increments, y, theta).tobytes() == want.tobytes()
        assert y.tobytes() == kept.tobytes()
        return y

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        log_slopes=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=12),
        u=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=6),
        # subnormal thetas put breakpoints beyond the double range, at +-inf
        theta=st.one_of(st.floats(1e-3, 40.0), st.sampled_from([5e-324, 1e-310, 2.0**-1030])),
        increments=st.lists(st.floats(1e-6, 10.0), min_size=12, max_size=12),
    )
    def test_equal_the_plain_expressions(self, log_slopes, u, theta, increments):
        self.check(log_slopes, u, theta, increments)

    def test_breakpoints_beyond_the_double_range(self):
        y = self.check([1.0, -1.0, 0.0], [0.0, 1.0], 5e-324, [0.5, 0.25, 0.25])
        assert y.tolist() == [[-math.inf, math.inf, 0.0], [0.0, math.inf, math.inf]]
