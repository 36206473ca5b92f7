import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from evcontracts.welfare import _type_utility

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


# the null shares at the ends of [0, 1], the smallest above 0 and the largest below 1
EDGE_PI0 = (0.0, -0.0, 1.0, 5e-324, 1.0 - 2**-53)


def per_row_curve(pi0_grid, cost, cap, welfare, theta1):
    """The row-by-row welfare curve the array version replaced: the oracle."""
    endpoints = []
    for c in (aligned_contract(cost, cap), status_quo_contract(cost, cap)):
        endpoints.append((_type_utility(0.0, c, welfare), _type_utility(theta1, c, welfare)))
    (a_null, a_alt), (s_null, s_alt) = endpoints
    return [
        (pi0, pi0 * a_null + (1.0 - pi0) * a_alt, pi0 * s_null + (1.0 - pi0) * s_alt)
        for pi0 in pi0_grid
    ]


class TestWelfareCurve:
    def test_low_ratio_aligned_dominates(self):
        grid = [i / 100 for i in range(101)]
        pi0, ua, us = welfare_curve(grid, 1.0, 5.0, HIGH_SEVERITY, 1.0)
        assert np.all(ua >= us - 1e-12)
        assert np.all(ua[pi0 < 1.0] > us[pi0 < 1.0])
        assert ua[-1] == pytest.approx(0.0, abs=1e-12)
        assert us[-1] == pytest.approx(0.0, abs=1e-12)

    def test_high_ratio_endpoints(self):
        _, ua, us = welfare_curve([0.0, 1.0], 1.0, 50.0, LOW_SEVERITY, 1.0)
        assert ua[1] == 0.0
        assert us[1] == pytest.approx(0.05 * LOW_SEVERITY.cost_null, abs=1e-9)

    def test_mixture_midpoint_is_average(self):
        columns = welfare_curve([0.0, 0.5, 1.0], 1.0, 5.0, HIGH_SEVERITY, 1.0)
        for col in columns[1:]:
            assert col[1] == pytest.approx(0.5 * (col[0] + col[2]), abs=1e-12)

    def test_affine_in_pi0(self):
        columns = welfare_curve([0.1, 0.4, 0.7], 1.0, 50.0, HIGH_SEVERITY, 1.0)
        for lo, mid, hi in columns[1:]:
            assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    @pytest.mark.parametrize("grid", ([-0.1], [1.0 + 2**-52], [-5e-324], [math.nan],
                                      [0.0, math.nan, 1.0], [math.inf]))
    @pytest.mark.parametrize("as_array", (False, True))
    def test_grid_validation(self, grid, as_array):
        with pytest.raises(ValueError, match="must lie in"):
            welfare_curve(np.array(grid) if as_array else grid, 1.0, 5.0, HIGH_SEVERITY, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        grid=st.lists(st.floats(0.0, 1.0) | st.sampled_from(EDGE_PI0), max_size=12),
        ratio=st.sampled_from([5.0, 20.0, 50.0]) | st.floats(1.01, 1e3),
        severity=st.sampled_from([HIGH_SEVERITY, LOW_SEVERITY]),
        theta1=st.sampled_from([1.0, 1.645]) | st.floats(1e-3, 10.0),
    )
    def test_columns_match_the_per_row_expression(self, grid, ratio, severity, theta1):
        grid = grid + list(EDGE_PI0)
        columns = welfare_curve(grid, 1.0, ratio, severity, theta1)
        rows = per_row_curve(grid, 1.0, ratio, severity, theta1)
        assert all(c.dtype == np.float64 for c in columns)
        for column, expected in zip(columns, zip(*rows)):
            assert column.tobytes() == np.array(expected).tobytes()  # -0.0 too

    @pytest.mark.parametrize("n", (1, 2, 101, 20_001))
    def test_array_grid_is_the_list_grid(self, n):
        # the grid run_welfare builds, against each point i / (n - 1) in floats
        listed = [0.0] if n == 1 else [i / (n - 1) for i in range(n)]
        assert (np.arange(n) / max(n - 1, 1)).tobytes() == np.array(listed).tobytes()


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
            _, ua, _ = welfare_curve(grid, 1.0, 50.0, severity, 1.0)
            assert np.all(ua >= -1e-12)


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
