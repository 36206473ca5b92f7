import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from evcontracts import (
    AgentDecision,
    Contract,
    GaussianModel,
    LicenseFn,
    Menu,
    agent_decide,
    constant_license,
    np_best_response,
    null_expectation,
    posterior_null_share,
    status_quo_license,
    upper_tail,
    upper_tail_inverse,
)

NULL = GaussianModel(0.0)


def aligned(cost: float, cap: float) -> Contract:
    return Contract(Menu.all_evalues(cost), cap)


def status_quo(cost: float, cap: float) -> Contract:
    return Contract(Menu.explicit([status_quo_license(cap)], cost), cap)


class TestNpBestResponse:
    def test_five_percent_level(self):
        f = np_best_response(0.05, 1.0)
        assert f.breakpoints[0] == pytest.approx(1.6449, abs=1e-4)
        assert f.values == (0.0, 1.0)

    def test_cost_at_cap_degenerates(self):
        assert np_best_response(1.0, 1.0) == constant_license(1.0)
        assert np_best_response(2.0, 1.0) == constant_license(1.0)

    def test_low_ratio_threshold(self):
        f = np_best_response(0.002, 1.0)
        # frozen from the bisection oracle
        assert f.breakpoints[0] == pytest.approx(2.878161739095484, abs=1e-6)
        assert f.breakpoints[0] == pytest.approx(2.878, abs=1e-3)

    @pytest.mark.parametrize("cost,cap", [(0.05, 1.0), (0.3, 2.0), (4.0, 5.0)])
    def test_null_expectation_binds(self, cost, cap):
        f = np_best_response(cost, cap)
        assert null_expectation(f, NULL) == pytest.approx(min(cost, cap), abs=1e-9)

    def test_scaled_evidence(self):
        sd = 1.0 / math.sqrt(5.0)
        f = np_best_response(0.5, 1.0, sd=sd)
        assert f.breakpoints[0] == pytest.approx(sd * upper_tail_inverse(0.5), abs=1e-12)
        assert null_expectation(f, GaussianModel(0.0, sd)) == pytest.approx(0.5, abs=1e-9)

    # upper_tail_inverse(0.5) is -0.0, but the threshold is +0.0, so the CSV
    # spells it 0, not -0
    @pytest.mark.parametrize("sd", [1.0, 1.0 / math.sqrt(5.0)])
    def test_zero_threshold_is_positive_zero(self, sd):
        f = np_best_response(1.5, 3.0, sd)
        assert f.breakpoints[0] == 0.0
        assert math.copysign(1.0, f.breakpoints[0]) == 1.0


class TestStatusQuo:
    def test_unit_cap(self):
        f = status_quo_license(1.0)
        assert f.breakpoints[0] == pytest.approx(1.6449, abs=1e-4)
        assert f.values == (0.0, 1.0)

    def test_zero_cap(self):
        assert status_quo_license(0.0) == constant_license(0.0)

    def test_null_mass(self):
        f = status_quo_license(3.0)
        assert null_expectation(f, NULL) == pytest.approx(0.15, abs=1e-9)


class TestExpectedLicense:
    def test_status_quo_power(self):
        # frozen: tail(1.6448536... - 1)
        power = null_expectation(status_quo_license(1.0), GaussianModel(1.0))
        assert power == pytest.approx(0.25951102284144406, abs=1e-10)
        assert power == pytest.approx(0.2595, abs=5e-5)

    def test_constant(self):
        assert null_expectation(constant_license(2.0), GaussianModel(-3.0)) == 2.0

    def test_np_under_null_returns_cost(self):
        f = np_best_response(0.05, 1.0)
        assert null_expectation(f, NULL) == pytest.approx(0.05, abs=1e-9)


class TestAgentDecide:
    def test_null_agent_aligned_menu_opts_out(self):
        decision = agent_decide(0.0, aligned(1.0, 20.0))
        assert decision == AgentDecision(None, 0.0)

    def test_null_agent_exploits_loose_status_quo(self):
        # cap/cost = 50: approval mass 0.05 * 50 = 2.5 > 1
        decision = agent_decide(0.0, status_quo(1.0, 50.0))
        assert decision.opted_in
        assert decision.expected_profit == pytest.approx(1.5, abs=1e-9)

    def test_nonnull_agent_status_quo_low_ratio(self):
        decision = agent_decide(1.0, status_quo(1.0, 5.0))
        assert decision.opted_in
        # 0.2595110228 * 5 - 1, i.e. 0.2977 in cost units
        assert decision.expected_profit == pytest.approx(0.29755511420722, abs=1e-9)

    def test_nonnull_agent_all_evalues(self):
        decision = agent_decide(1.0, aligned(1.0, 5.0))
        assert decision.opted_in
        assert decision.chosen_license.breakpoints[0] == pytest.approx(
            upper_tail_inverse(0.2), abs=1e-9
        )
        power = upper_tail(upper_tail_inverse(0.2) - 1.0)
        assert decision.expected_profit == pytest.approx(5.0 * power - 1.0, abs=1e-9)

    def test_negative_type_opts_out(self):
        assert not agent_decide(-0.7, aligned(1.0, 20.0)).opted_in

    def test_any_positive_type_opts_in_to_all_evalues(self):
        # the best-response profit is zero at theta = 0 with strictly
        # positive slope, so every positive type strictly profits
        decision = agent_decide(0.01, aligned(1.0, 1.25))
        assert decision.opted_in
        assert decision.expected_profit > 0.0

    def test_explicit_menu_argmax(self):
        f_low = LicenseFn([0.0], [0.0, 1.0])
        f_high = LicenseFn([1.0], [0.0, 3.0])
        contract = Contract(Menu.explicit([f_low, f_high], 0.3), 3.0)
        decision = agent_decide(2.0, contract)
        assert decision.chosen_license == f_high

    @pytest.mark.parametrize("step_first", [False, True], ids=["constant_first", "step_first"])
    def test_tie_break_prefers_smaller_null_mass(self, step_first):
        # a step license and the constant equal to its alternative value tie
        # exactly in expected payout; the step one has the smaller null mass,
        # and wins whichever of the two the menu lists first
        theta = 1.0
        step = LicenseFn([0.5], [0.0, 2.0])
        tied_constant = constant_license(
            null_expectation(step, GaussianModel(theta))
        )
        licenses = [step, tied_constant] if step_first else [tied_constant, step]
        contract = Contract(Menu.explicit(licenses, 0.5), 3.0)
        decision = agent_decide(theta, contract)
        assert decision.chosen_license == step

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        theta=st.floats(-10.0, 10.0),
        cost=st.floats(1e-6, 1e3),
        ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_all_evalues_decide_as_the_one_license_menu(self, theta, cost, ratio):
        # the menu of all rescaled e-values decides as the explicit menu of
        # its closed-form argmax, bit for bit, and null and negative types
        # opt out
        cap = cost / ratio
        assume(cost < cap < math.inf)
        decision = agent_decide(theta, aligned(cost, cap))
        if theta <= 0.0:
            assert decision == AgentDecision(None, 0.0)
        else:
            one = Contract(Menu.explicit([np_best_response(cost, cap)], cost), cap)
            assert decision == agent_decide(theta, one)

    def test_opt_out_at_exact_zero_profit(self):
        # constant license equal to the cost: profit exactly zero, stay out
        contract = Contract(Menu.explicit([constant_license(1.0)], 1.0), 2.0)
        assert not agent_decide(1.0, contract).opted_in


class TestPosteriorNullShare:
    def test_large_profit_case(self):
        assert posterior_null_share(0.05, 0.80, 20.0) == pytest.approx(0.5556, abs=5e-5)

    def test_zero_null_rate(self):
        assert posterior_null_share(0.0, 0.8, 123.0) == 0.0

    def test_strict_protocol_variant(self):
        assert posterior_null_share(0.005, 0.80, 20.0) == pytest.approx(0.1111, abs=5e-5)

    def test_undefined(self):
        with pytest.raises(ZeroDivisionError):
            posterior_null_share(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            posterior_null_share(0.5, 0.5, 0.0)


class TestProperties:
    def test_np_dominance(self):
        # no aligned license beats the all-or-nothing best response
        rng = np.random.default_rng(12)
        cost, cap, theta = 0.4, 3.0, 1.3
        best = np_best_response(cost, cap)
        best_value = null_expectation(best, GaussianModel(theta))
        for _ in range(200):
            n_breaks = int(rng.integers(1, 5))
            breaks = np.sort(rng.normal(0.0, 1.5, n_breaks))
            if len(np.unique(breaks)) != n_breaks:
                continue
            values = np.minimum(np.cumsum(rng.uniform(0.0, cap, n_breaks + 1)), cap)
            g = LicenseFn(breaks, values)
            mass = null_expectation(g, NULL)
            if mass > cost:
                g = g.scaled(cost / mass)  # rescale onto the aligned boundary
            assert null_expectation(g, GaussianModel(theta)) <= best_value + 1e-9

    def test_larger_menus_never_hurt(self):
        rng = np.random.default_rng(99)
        for trial in range(50):
            licenses = []
            for _ in range(4):
                breaks = np.sort(rng.normal(0.0, 1.0, 2))
                if breaks[0] == breaks[1]:
                    continue
                values = np.cumsum(rng.uniform(0.0, 1.0, 3))
                licenses.append(LicenseFn(breaks, values))
            if len(licenses) < 2:
                continue
            theta = rng.uniform(0.2, 2.0)
            subset = Menu.explicit(licenses[:2], 0.5)
            superset = Menu.explicit(licenses, 0.5)
            cap = 100.0
            sub_best = max(
                null_expectation(f, GaussianModel(theta)) for f in subset.licenses
            )
            sup_best = max(
                null_expectation(f, GaussianModel(theta)) for f in superset.licenses
            )
            assert sup_best >= sub_best

    def test_alignment_iff_null_stays_out(self):
        rng = np.random.default_rng(5)
        cost, cap = 1.0, 10.0
        for _ in range(100):
            breaks = np.sort(rng.normal(0.0, 1.5, 2))
            if breaks[0] == breaks[1]:
                continue
            values = np.cumsum(rng.uniform(0.0, cap / 2, 3))
            menu = Menu.explicit([LicenseFn(breaks, values)], cost)
            contract = Contract(menu, cap)
            decision = agent_decide(0.0, contract)
            best_mass = null_expectation(menu.licenses[0], NULL)
            assert decision.opted_in == (best_mass > cost)


class TestContract:
    def test_validation(self):
        # the cap must exceed the menu's cost; the message names both
        for cap in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match=rf"need cap > cost, got cost=1.0, cap={cap}"):
                Contract(Menu.all_evalues(1.0), cap)

    def test_cost_is_the_menu_cost(self):
        contract = Contract(Menu.all_evalues(0.3), 3.0)
        assert contract.cost == 0.3
        with pytest.raises(AttributeError):
            contract.cost = 0.4
        with pytest.raises(TypeError):
            Contract(Menu.all_evalues(0.3), 0.3, 3.0)  # no second copy of the cost

    def test_decision_invariant(self):
        with pytest.raises(ValueError):
            AgentDecision(None, 1.0)
        assert AgentDecision(constant_license(1.0), 0.5).opted_in
        assert not AgentDecision(None, 0.0).opted_in
        with pytest.raises(AttributeError):
            AgentDecision(None, 0.0).opted_in = True
