import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcontracts import (
    GaussianModel,
    LicenseFn,
    Menu,
    RandomStream,
    constant_license,
    is_evalue,
    is_incentive_aligned,
    null_expectation,
    sample_normal,
    status_quo_license,
    upper_tail,
    upper_tail_inverse,
)

NULL = GaussianModel(0.0)


def combine_step_functions(f: LicenseFn, g: LicenseFn, a: float, b: float) -> LicenseFn:
    """Test-side combiner: a*f + b*g as a step function on merged breakpoints."""
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    if not merged:
        return constant_license(a * f.values[0] + b * g.values[0])
    probes = [merged[0] - 1.0] + list(merged)
    values = [a * float(f(z)) + b * float(g(z)) for z in probes]
    return LicenseFn(merged, values)


@st.composite
def step_licenses(draw):
    n_breaks = draw(st.integers(0, 4))
    breaks = draw(
        st.lists(
            st.floats(-3.0, 3.0),
            min_size=n_breaks,
            max_size=n_breaks,
            unique=True,
        )
    )
    increments = draw(
        st.lists(st.floats(0.0, 5.0), min_size=n_breaks + 1, max_size=n_breaks + 1)
    )
    values = np.cumsum(increments)
    return LicenseFn(sorted(breaks), values)


class TestLicenseFn:
    def test_interval_convention(self):
        f = LicenseFn([0.0, 1.0], [0.0, 2.0, 5.0])
        assert float(f(-0.5)) == 0.0
        assert float(f(0.0)) == 2.0  # on-breakpoint takes the right value
        assert float(f(0.7)) == 2.0
        assert float(f(1.0)) == 5.0
        assert list(f(np.array([-1.0, 0.5, 3.0]))) == [0.0, 2.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            LicenseFn([0.0], [1.0])  # wrong arity
        with pytest.raises(ValueError):
            LicenseFn([1.0, 1.0], [0.0, 1.0, 2.0])  # not strictly increasing
        with pytest.raises(ValueError):
            LicenseFn([0.0], [1.0, 0.5])  # decreasing values
        with pytest.raises(ValueError):
            LicenseFn([0.0], [-1.0, 0.5])  # negative value
        with pytest.raises(ValueError):
            LicenseFn([math.inf], [0.0, 1.0])

    @pytest.mark.parametrize(
        "breakpoints, values, message",
        (
            ([0.0], [1.0], "one value per interval"),
            ([1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
            ([1.0, 0.5], [0.0, 1.0, 2.0], "strictly increasing"),
            ([math.nan], [0.0, 1.0], "finite"),
            ([0.0, math.nan], [0.0, 1.0, 2.0], "finite"),
            ([-math.inf], [0.0, 1.0], "finite"),
            ([0.0], [-1.0, 0.5], "nonnegative"),
            ([0.0, 1.0], [0.0, 2.0, 1.0], "nondecreasing"),
            ([0.0], [0.0, math.nan], "finite"),
            ([0.0], [0.0, math.inf], "finite"),
            ([0.0], [-math.inf, 0.0], "finite"),
        ),
    )
    def test_validation_messages(self, breakpoints, values, message):
        with pytest.raises(ValueError, match=message):
            LicenseFn(breakpoints, values)

    def test_approval_threshold(self):
        assert status_quo_license(1.0).approval_threshold() == pytest.approx(
            1.6448536269514722, abs=1e-9
        )
        assert constant_license(2.0).approval_threshold() == -math.inf
        assert constant_license(0.0).approval_threshold() == math.inf


class TestNullExpectation:
    def test_constant(self):
        assert null_expectation(constant_license(2.5), NULL) == 2.5
        assert null_expectation(constant_license(2.5), GaussianModel(3.0, 0.2)) == 2.5

    def test_status_quo_mass(self):
        f = LicenseFn([1.6449], [0.0, 1.0])
        # frozen from the quadrature-backed tail
        assert null_expectation(f, NULL) == pytest.approx(0.04999521746834632, abs=1e-12)
        assert null_expectation(f, NULL) == pytest.approx(0.0500, abs=5e-5)

    @pytest.mark.parametrize("cost,cap", [(0.05, 1.0), (0.3, 2.0), (1.0, 50.0)])
    def test_tail_inversion_construction(self, cost, cap):
        f = LicenseFn([upper_tail_inverse(cost / cap)], [0.0, cap])
        assert null_expectation(f, NULL) == pytest.approx(cost, abs=1e-10 * cap)

    def test_shifted_model(self):
        f = LicenseFn([1.0], [0.0, 1.0])
        model = GaussianModel(1.0, 2.0)
        assert null_expectation(f, model) == pytest.approx(upper_tail(0.0), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(step_licenses(), step_licenses(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    def test_linearity(self, f, g, a, b):
        lhs = null_expectation(combine_step_functions(f, g, a, b), NULL)
        rhs = a * null_expectation(f, NULL) + b * null_expectation(g, NULL)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


class TestIsEvalue:
    def test_constant_one(self):
        assert is_evalue(constant_license(1.0), NULL)

    def test_constant_above_one(self):
        assert not is_evalue(constant_license(1.01), NULL, tol=0.0)

    def test_20x_boundary(self):
        # 20 * tail(1.6449) = 0.99990... <= 1: just barely an e-value, while
        # nudging the threshold down to 1.6448 tips the mass over 1.
        inside = LicenseFn([1.6449], [0.0, 20.0])
        assert null_expectation(inside, NULL) == pytest.approx(
            0.9999043493669264, abs=1e-10
        )
        assert is_evalue(inside, NULL, tol=1e-6)
        outside = LicenseFn([1.6448], [0.0, 20.0])
        assert null_expectation(outside, NULL) == pytest.approx(
            1.0001106218784002, abs=1e-10
        )
        assert not is_evalue(outside, NULL, tol=1e-6)


class TestIncentiveAlignment:
    def test_all_evalues_aligned_by_construction(self):
        assert is_incentive_aligned(Menu.all_evalues(1.0), NULL)

    def test_np_style_menu_aligned(self):
        cost, cap = 1.0, 10.0
        f = LicenseFn([upper_tail_inverse(cost / cap)], [0.0, cap])
        assert is_incentive_aligned(Menu.explicit([f], cost), NULL)

    def test_status_quo_misaligned_at_high_ratio(self):
        # null expectation 0.05 * 50 = 2.5 times the cost
        menu = Menu.explicit([status_quo_license(50.0)], 1.0)
        assert not is_incentive_aligned(menu, NULL)

    def test_status_quo_aligned_at_low_ratio(self):
        # 0.05 * 5 = 0.25 <= 1
        menu = Menu.explicit([status_quo_license(5.0)], 1.0)
        assert is_incentive_aligned(menu, NULL)

    @settings(max_examples=50, deadline=None)
    @given(step_licenses(), st.floats(0.1, 4.0))
    def test_characterization_round_trip(self, f, cost):
        menu = Menu.explicit([f], cost)
        rescaled_is_evalue = is_evalue(f.scaled(1.0 / cost), NULL)
        assert is_incentive_aligned(menu, NULL) == rescaled_is_evalue


class TestAnalyticEValue:
    def test_martingale_monte_carlo(self):
        # E = exp(theta1 * sum(z) - n * theta1^2 / 2): its mean over null
        # draws stays at one, the defining e-value property
        theta1, n = 0.2, 10
        reps = 100_000
        z = sample_normal(NULL, RandomStream(314, 0), reps * n).reshape(reps, n)
        values = np.exp(theta1 * z.sum(axis=1) - n * theta1**2 / 2.0)
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - 1.0) <= 3.0 * se


class TestConcaveUtilityOptOut:
    def test_jensen_opt_out(self):
        # Any concave nondecreasing utility with nu(0) = 0 keeps the null
        # agent's expected utility of an aligned license nonpositive.
        rng = np.random.default_rng(77)
        reps = 60_000
        for trial in range(5):
            cost = rng.uniform(0.2, 2.0)
            cap = cost * rng.uniform(1.5, 30.0)
            f = LicenseFn([upper_tail_inverse(cost / cap)], [0.0, cap])
            # concave nondecreasing piecewise-linear utility through 0
            knots = np.concatenate(([0.0], np.sort(rng.uniform(0.1, cap, 3))))
            slopes = np.sort(rng.uniform(0.1, 2.0, 4))[::-1]
            values = np.concatenate(([0.0], np.cumsum(slopes[1:] * np.diff(knots))))

            def nu(x):
                inside = np.interp(x, knots, values)
                return np.where(x < 0.0, slopes[0] * x, inside)

            z = sample_normal(NULL, RandomStream(500 + trial, 0), reps)
            payoff = nu(np.asarray(f(z)) - cost)
            se = payoff.std(ddof=1) / math.sqrt(reps)
            assert payoff.mean() <= 3.0 * se


class TestMenu:
    def test_cost_must_be_positive(self):
        with pytest.raises(ValueError):
            Menu.all_evalues(0.0)

    def test_explicit_flag(self):
        assert not Menu.all_evalues(1.0).is_explicit
        assert Menu.explicit([constant_license(1.0)], 1.0).is_explicit
