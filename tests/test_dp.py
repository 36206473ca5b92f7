import math

import numpy as np
import pytest

from evcontracts import (
    GaussianModel,
    np_best_response,
    null_expectation,
    upper_tail,
    upper_tail_inverse,
)
from evcontracts.multiround import (
    DiscretizedEvidence,
    LicenseGrid,
    backward_induction,
    concave_monotone_hull,
    dp,
)

NULL = GaussianModel(0.0)


def np_profit(cost: float, cap: float, theta: float) -> float:
    return cap * upper_tail(upper_tail_inverse(cost / cap) - theta) - cost


class TestSingleRoundReduction:
    def test_value_and_threshold(self):
        grid = LicenseGrid.from_cap(1.0, 100)
        policy = backward_induction(1, 0.05, 1.0, grid)
        assert policy.root_value == pytest.approx(np_profit(0.05, 1.0, 1.0), abs=1e-8)
        update = policy.action(1, 0)
        reference = np_best_response(0.0, 1.0, 0.05, 1.0)
        assert len(update.breakpoints) == 1
        assert update.breakpoints[0] == pytest.approx(
            reference.breakpoints[0], abs=1e-6
        )

    def test_terminal_table_is_capped_identity(self):
        grid = LicenseGrid.from_cap(2.0, 10)
        policy = backward_induction(1, 0.5, 1.0, grid)
        assert np.allclose(policy.value_tables[-1], np.minimum(grid.level_values(), 2.0))


class TestHullPerRound:
    def test_one_hull_per_round(self, monkeypatch):
        # the hull depends on the round's value table, not on the level
        calls = []

        def counted(xs, ys):
            calls.append(len(xs))
            return concave_monotone_hull(xs, ys)

        monkeypatch.setattr(dp, "concave_monotone_hull", counted)
        backward_induction(3, 0.1, 1.0, LicenseGrid.from_cap(1.0, 20))
        assert calls == [21, 21, 21]


class TestDegenerateCases:
    def test_costs_above_cap_stop_everywhere(self):
        grid = LicenseGrid.from_cap(1.0, 20)
        policy = backward_induction(3, 1.5, 1.0, grid)
        levels = grid.level_values()
        for t in range(3):
            assert np.allclose(policy.value_tables[t], levels)
        assert all(
            policy.action(t, i) is None
            for t in range(1, 4)
            for i in range(len(levels))
        )

    def test_validation(self):
        grid = LicenseGrid.from_cap(1.0, 10)
        with pytest.raises(ValueError):
            backward_induction(0, 0.1, 1.0, grid)
        with pytest.raises(ValueError):
            backward_induction(2, [0.1], 1.0, grid)
        with pytest.raises(ValueError):
            backward_induction(2, -0.1, 1.0, grid)
        with pytest.raises(ValueError):
            backward_induction(2, 0.1, 0.0, grid)
        with pytest.raises(ValueError):
            backward_induction(2, 0.1, -1.0, grid)


class TestValueTables:
    def make_policy(self, horizon=4, levels=50):
        grid = LicenseGrid.from_cap(1.0, levels)
        return backward_induction(horizon, 0.1, 1.2, grid)

    def test_monotone_in_level(self):
        policy = self.make_policy()
        for table in policy.value_tables:
            assert np.all(np.diff(table) >= -1e-12)

    def test_stopping_floor(self):
        policy = self.make_policy()
        levels = policy.grid.level_values()
        for table in policy.value_tables:
            assert np.all(table >= levels - 1e-12)

    def test_nonincreasing_in_time(self):
        # fewer remaining rounds can only reduce the value at a fixed level
        policy = self.make_policy()
        for earlier, later in zip(policy.value_tables, policy.value_tables[1:]):
            assert np.all(earlier >= later - 1e-12)

    def test_emitted_budgets_bind(self):
        policy = self.make_policy(horizon=3, levels=40)
        levels = policy.grid.level_values()
        cap = policy.grid.cap
        for t in range(1, 4):
            for i, level in enumerate(levels):
                update = policy.action(t, i)
                if update is None:
                    continue
                budget = level + policy.costs[t - 1]
                mass = null_expectation(update, NULL)
                if budget >= cap:
                    assert mass == pytest.approx(cap, abs=1e-9)
                else:
                    assert mass == pytest.approx(budget, abs=1e-6 * cap)

    def test_grid_refinement_never_loses_value(self):
        values = []
        for levels in (25, 50, 100):
            grid = LicenseGrid.from_cap(1.0, levels)
            values.append(backward_induction(5, 0.1, 0.5, grid).root_value)
        assert values[1] >= values[0] - 1e-9
        assert values[2] >= values[1] - 1e-9
        # and the increments shrink as the grid converges
        assert values[2] - values[1] <= (values[1] - values[0]) + 1e-9


class TestDiscreteEvidenceMode:
    def test_small_brute_force_equivalence(self):
        # tiny configuration checked against an independent enumeration
        grid = LicenseGrid.from_cap(1.0, 3)
        evidence = DiscretizedEvidence(np.linspace(-3.0, 3.0, 9))
        policy = backward_induction(2, 0.15, 1.0, grid, evidence=evidence)
        oracle = _enumeration_oracle(
            z_points=np.linspace(-3.0, 3.0, 9),
            n_levels=3,
            cap=1.0,
            costs=[0.15, 0.15],
            theta=1.0,
        )
        assert policy.root_value == pytest.approx(oracle, abs=1e-12)

    def test_discrete_below_analytic(self):
        # restricting evidence to cells can only lose value
        grid = LicenseGrid.from_cap(1.0, 5)
        evidence = DiscretizedEvidence(np.linspace(-4.0, 4.0, 21))
        discrete = backward_induction(2, 0.1, 1.0, grid, evidence=evidence)
        analytic = backward_induction(2, 0.1, 1.0, grid)
        assert discrete.root_value <= analytic.root_value + 1e-9


class TestPolicyExport:
    def test_table_format(self):
        grid = LicenseGrid.from_cap(1.0, 4)
        policy = backward_induction(2, 0.3, 1.0, grid)
        lines = policy.export_text().splitlines()
        assert lines[0] == "t,level,action,z_breakpoints,grid_values,value"
        assert len(lines) == 1 + 2 * 5  # two rounds, five levels
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert first[2] in ("stop", "continue")
        continue_rows = [l for l in lines[1:] if ",continue," in l]
        assert continue_rows, "some state must continue"
        fields = continue_rows[0].split(",")
        assert ";" in fields[4] or fields[4]  # grid values list present
        float(fields[5])  # value parses


class TestPooledAgentComparison:
    """Observed relation between the adaptive agent and the pooled one-shot.

    With the cap at one, paying per round and stopping early strictly beats
    buying all five observations upfront at every tested effect size. With
    the cap at five, evidence is relatively cheap and the pooled fixed-sample
    test's extra power wins at small effects: the stage-constrained license
    process is a test supermartingale, which costs power at a fixed horizon.
    Both regimes are pinned here from converged program values; the cap-five
    pooled win is checked again at 200 levels, where the root moves by at
    most 1e-3.
    """

    def five_data_profit(self, theta: float, cap: float) -> float:
        sd = 1.0 / math.sqrt(5.0)
        threshold = sd * upper_tail_inverse(0.5 / cap)
        return cap * upper_tail((threshold - theta) / sd) - 0.5

    def test_cap_one_adaptive_dominates(self):
        grid = LicenseGrid.from_cap(1.0, 100)
        for theta in (0.5, 1.0, 1.645, 2.5):
            root = backward_induction(5, 0.1, theta, grid).root_value
            assert root > self.five_data_profit(theta, 1.0)

    def test_cap_five_split_regime(self):
        grid = LicenseGrid.from_cap(5.0, 100)
        for theta, adaptive_wins in ((0.5, False), (1.0, False), (1.645, True), (2.5, True)):
            root = backward_induction(5, 0.1, theta, grid).root_value
            pooled = self.five_data_profit(theta, 5.0)
            assert (root > pooled) == adaptive_wins
            # comparable throughout: never more than 15% below
            assert root >= pooled * 0.85

    @pytest.mark.parametrize("theta", (0.5, 1.0))
    def test_cap_five_pooled_win_survives_refinement(self, theta):
        root = backward_induction(5, 0.1, theta, LicenseGrid.from_cap(5.0, 100)).root_value
        fine = backward_induction(5, 0.1, theta, LicenseGrid.from_cap(5.0, 200)).root_value
        assert fine < self.five_data_profit(theta, 5.0)
        assert abs(fine - root) <= 1e-3


def _enumeration_oracle(z_points, n_levels, cap, costs, theta) -> float:
    """Brute-force policy search, coded independently of the package.

    Evidence cells from the midpoints; per state, every nondecreasing map
    from cells to license levels is scored; stage values combine by explicit
    forward expectation.
    """
    from itertools import combinations_with_replacement
    from scipy.stats import norm

    pts = np.asarray(z_points, dtype=float)
    edges = (pts[:-1] + pts[1:]) / 2.0
    n_cells = len(pts)

    def cell_probs(mean):
        cdf = norm.cdf(edges - mean)
        p = np.empty(n_cells)
        p[0] = cdf[0]
        p[1:-1] = np.diff(cdf)
        p[-1] = 1.0 - cdf[-1]
        return p

    p0, p1 = cell_probs(0.0), cell_probs(theta)
    eps = cap / n_levels
    combos = list(combinations_with_replacement(range(n_cells + 1), n_levels))

    def levels_per_cell(jumps):
        return [sum(1 for j in jumps if j <= c) for c in range(n_cells)]

    def best_step(w, budget):
        best = -math.inf
        for jumps in combos:
            spend = eps * sum(p0[j:].sum() for j in jumps)
            if spend > budget + 1e-12:
                continue
            value = sum(
                p1[c] * w[k] for c, k in enumerate(levels_per_cell(jumps))
            )
            best = max(best, value)
        return best

    w = [min(i * eps, cap) for i in range(n_levels + 1)]
    for cost in reversed(costs):
        w = [
            max(i * eps, best_step(w, i * eps + cost) - cost)
            for i in range(n_levels + 1)
        ]
    return w[0]
