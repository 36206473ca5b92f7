import numpy as np
import pytest

from evcontracts import (
    Contract,
    GaussianModel,
    HIGH_SEVERITY,
    LOW_SEVERITY,
    LicenseFn,
    Menu,
    TypeMixture,
    WelfareSpec,
    aligned_contract,
    expected_market_size,
    maximin_check,
    null_expectation,
    principal_utility,
    status_quo_contract,
    upper_tail,
    upper_tail_inverse,
    welfare_curve,
)

NULL = GaussianModel(0.0)
STATUS_QUO_POWER = upper_tail(upper_tail_inverse(0.05) - 1.0)  # 0.2595...


class TestPrincipalUtility:
    def test_all_null_aligned_is_zero(self):
        mixture = TypeMixture([(0.0, 1.0)])
        assert principal_utility(mixture, aligned_contract(1.0, 50.0), HIGH_SEVERITY) == 0.0

    def test_all_null_loose_status_quo(self):
        mixture = TypeMixture([(0.0, 1.0)])
        utility = principal_utility(mixture, status_quo_contract(1.0, 50.0), HIGH_SEVERITY)
        assert utility == pytest.approx(0.05 * HIGH_SEVERITY.cost_null, abs=1e-9)

    def test_same_threshold_same_utility(self):
        # at cost/cap = 0.05 the best response and the status quo coincide
        mixture = TypeMixture([(1.0, 1.0)])
        a = principal_utility(mixture, aligned_contract(1.0, 20.0), HIGH_SEVERITY)
        s = principal_utility(mixture, status_quo_contract(1.0, 20.0), HIGH_SEVERITY)
        expected = STATUS_QUO_POWER * HIGH_SEVERITY.benefit_nonnull
        assert a == pytest.approx(expected, abs=1e-9)
        assert s == pytest.approx(expected, abs=1e-9)


class TestWelfareCurve:
    def test_low_ratio_aligned_dominates(self):
        grid = [i / 100 for i in range(101)]
        rows = welfare_curve(grid, 1.0, 5.0, HIGH_SEVERITY, 1.0)
        for pi0, ua, us in rows:
            assert ua >= us - 1e-12
            if pi0 < 1.0:
                assert ua > us
        assert rows[-1][1] == pytest.approx(0.0, abs=1e-12)
        assert rows[-1][2] == pytest.approx(0.0, abs=1e-12)

    def test_high_ratio_endpoints(self):
        rows = welfare_curve([0.0, 1.0], 1.0, 50.0, LOW_SEVERITY, 1.0)
        assert rows[1][1] == 0.0
        assert rows[1][2] == pytest.approx(0.05 * LOW_SEVERITY.cost_null, abs=1e-9)

    def test_mixture_midpoint_is_average(self):
        rows = welfare_curve([0.0, 0.5, 1.0], 1.0, 5.0, HIGH_SEVERITY, 1.0)
        for col in (1, 2):
            assert rows[1][col] == pytest.approx(
                0.5 * (rows[0][col] + rows[2][col]), abs=1e-12
            )

    def test_affine_in_pi0(self):
        rows = welfare_curve([0.1, 0.4, 0.7], 1.0, 50.0, HIGH_SEVERITY, 1.0)
        for col in (1, 2):
            lo, mid, hi = (r[col] for r in rows)
            assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            welfare_curve([-0.1], 1.0, 5.0, HIGH_SEVERITY, 1.0)


class TestMaximin:
    GRID = [-0.5, 0.0, 0.5, 1.0, 2.0]

    def test_aligned_is_maximin(self):
        report = maximin_check(aligned_contract(1.0, 50.0), HIGH_SEVERITY, self.GRID)
        assert report.is_maximin
        assert report.infimum == pytest.approx(0.0, abs=1e-12)

    def test_loose_status_quo_fails(self):
        report = maximin_check(status_quo_contract(1.0, 50.0), HIGH_SEVERITY, self.GRID)
        assert not report.is_maximin
        assert report.infimum == pytest.approx(0.05 * HIGH_SEVERITY.cost_null, abs=1e-9)
        assert report.worst_theta == 0.0

    def test_tight_status_quo_passes(self):
        report = maximin_check(status_quo_contract(1.0, 5.0), HIGH_SEVERITY, self.GRID)
        assert report.is_maximin
        assert report.infimum == pytest.approx(0.0, abs=1e-12)

    def test_grid_needs_both_sides(self):
        with pytest.raises(ValueError):
            maximin_check(aligned_contract(1.0, 5.0), HIGH_SEVERITY, [1.0, 2.0])


class TestManyNullsLimit:
    def test_misaligned_menu_negative_at_all_null(self):
        # any explicit menu with null mass above cost: utility < 0 at pi0 = 1
        rng = np.random.default_rng(21)
        cost, cap = 1.0, 30.0
        mixture = TypeMixture([(0.0, 1.0)])
        found = 0
        for _ in range(50):
            breaks = np.sort(rng.normal(0.0, 1.0, 2))
            if breaks[0] == breaks[1]:
                continue
            values = np.cumsum(rng.uniform(0.0, cap / 2, 3))
            f = LicenseFn(breaks, values)
            menu = Menu.explicit([f], cost)
            contract = Contract(menu, cap)
            if null_expectation(f, NULL) <= cost:
                continue
            found += 1
            assert principal_utility(mixture, contract, HIGH_SEVERITY) < 0.0
        assert found > 10

    def test_aligned_menu_nonnegative_on_grid(self):
        grid = [i / 100 for i in range(101)]
        for severity in (HIGH_SEVERITY, LOW_SEVERITY):
            rows = welfare_curve(grid, 1.0, 50.0, severity, 1.0)
            assert all(ua >= -1e-12 for _, ua, _ in rows)


class TestLinearUtilityOptimality:
    def test_all_evalues_maximizes_market_size(self):
        # under utility affine in the payout, no explicit aligned menu beats
        # the full menu of rescaled e-values, for any mixture
        rng = np.random.default_rng(31)
        cost, cap = 1.0, 10.0
        full = aligned_contract(cost, cap)
        for _ in range(40):
            licenses = []
            for _ in range(3):
                breaks = np.sort(rng.normal(0.0, 1.2, 2))
                if breaks[0] == breaks[1]:
                    continue
                values = np.minimum(np.cumsum(rng.uniform(0.0, cap, 3)), cap)
                f = LicenseFn(breaks, values)
                mass = null_expectation(f, NULL)
                if mass > cost:
                    # strictly inside the aligned region: an exact-boundary
                    # rescale can land one ulp above cost and flip the null
                    # agent's strict opt-in test
                    f = f.scaled(cost / mass * (1.0 - 1e-9))
                licenses.append(f)
            if not licenses:
                continue
            explicit = Contract(Menu.explicit(licenses, cost), cap)
            pi0 = rng.uniform(0.0, 1.0)
            theta1 = rng.uniform(0.1, 2.5)
            mixture = TypeMixture([(0.0, pi0), (theta1, 1.0 - pi0)])
            assert (
                expected_market_size(mixture, full)
                >= expected_market_size(mixture, explicit) - 1e-9
            )


class TestTypes:
    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            TypeMixture([(0.0, 0.4), (1.0, 0.4)])
        with pytest.raises(ValueError):
            TypeMixture([(0.0, -0.1), (1.0, 1.1)])

    def test_two_point_helper(self):
        mixture = TypeMixture.two_point(0.25, 0.0, 1.0)
        assert mixture.atoms == ((0.0, 0.25), (1.0, 0.75))

    def test_welfare_spec_validation(self):
        with pytest.raises(ValueError):
            WelfareSpec(cost_null=1.0, benefit_nonnull=2.0)
        with pytest.raises(ValueError):
            WelfareSpec(cost_null=-1.0, benefit_nonnull=0.0)
