import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcontracts.multiround import (
    PLCValue,
    concave_monotone_hull,
    least_concave_majorant,
    monotone_envelope,
)


def hull_oracle(xs, ys):
    """Brute-force least concave majorant on the tabulation grid.

    The majorant at a grid point is the largest value of any chord between
    two tabulated points that straddles it (including the point itself).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    out = ys.copy()
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                if xs[i] <= xs[k] <= xs[j]:
                    w = (xs[k] - xs[i]) / (xs[j] - xs[i])
                    chord = (1 - w) * ys[i] + w * ys[j]
                    out[k] = max(out[k], chord)
    return out


@st.composite
def nondecreasing_tabulations(draw):
    n = draw(st.integers(2, 12))
    increments = draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1))
    base = draw(st.floats(0.0, 2.0))
    xs = np.arange(n, dtype=float)
    return xs, base + np.concatenate(([0.0], np.cumsum(increments)))


@st.composite
def concave_nondecreasing_tabulations(draw):
    n = draw(st.integers(2, 10))
    raw = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1, max_size=n - 1))
    slopes = np.sort(np.asarray(raw))[::-1]
    xs = np.arange(n, dtype=float)
    return xs, np.concatenate(([0.0], np.cumsum(slopes)))


class TestLeastConcaveMajorant:
    def test_chord_example(self):
        hull = least_concave_majorant([0.0, 1.0, 2.0], [0.0, 0.0, 2.0])
        assert list(hull.knots) == [0.0, 2.0]
        assert float(hull(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_single_point(self):
        hull = least_concave_majorant([0.0], [1.5])
        assert hull.knots == (0.0,)
        assert float(hull(0.0)) == 1.5

    @settings(max_examples=60)
    @given(concave_nondecreasing_tabulations())
    def test_idempotent_on_concave_input(self, tab):
        xs, ys = tab
        hull = least_concave_majorant(xs, ys)
        assert np.allclose(hull(xs), ys, rtol=0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(nondecreasing_tabulations())
    def test_matches_brute_force_oracle(self, tab):
        xs, ys = tab
        hull = least_concave_majorant(xs, ys)
        assert np.allclose(hull(xs), hull_oracle(xs, ys), rtol=0.0, atol=1e-9)

    def test_collinear_points_dropped(self):
        hull = least_concave_majorant([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert list(hull.knots) == [0.0, 2.0]

    @pytest.mark.parametrize("scale", (2.0**600, 2.0**-600))
    def test_extreme_scales_keep_every_hull_point(self, scale):
        # the chord test's products would overflow (or underflow) at these
        # scales; scaling by a power of two changes no decision
        xs = np.arange(5.0)
        hull = concave_monotone_hull(xs * scale, np.sqrt(xs) * scale)
        assert hull.knots.tolist() == (xs * scale).tolist()
        assert hull.values.tolist() == (np.sqrt(xs) * scale).tolist()

    def test_requires_origin(self):
        with pytest.raises(ValueError):
            least_concave_majorant([1.0, 2.0], [0.0, 1.0])


class TestMonotoneEnvelope:
    def test_nondecreasing_unchanged(self):
        values = [0.0, 0.5, 0.5, 2.0]
        assert list(monotone_envelope(values)) == values

    def test_running_max(self):
        assert list(monotone_envelope([1.0, 0.0, 2.0])) == [1.0, 1.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            monotone_envelope([])

    @settings(max_examples=60)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12))
    def test_composition_is_concave_nondecreasing(self, ys):
        xs = np.arange(len(ys), dtype=float)
        hull = concave_monotone_hull(xs, ys)
        values = np.asarray(hull.values)
        assert np.all(np.diff(values) >= -1e-12)
        slopes = hull.left_slopes()
        assert np.all(np.diff(slopes) <= 1e-9)
        assert np.all(hull(xs) >= np.asarray(ys) - 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=10))
    def test_reduction_order_commutes(self, ys):
        # majorant of envelope equals envelope of majorant (checked with the
        # brute-force hull, which has no monotonicity requirement), and the
        # package composition agrees with both
        xs = np.arange(len(ys), dtype=float)
        a = monotone_envelope(hull_oracle(xs, ys))
        b = hull_oracle(xs, monotone_envelope(ys))
        assert np.allclose(a, b, rtol=0.0, atol=1e-9)
        assert np.allclose(concave_monotone_hull(xs, ys)(xs), b, rtol=0.0, atol=1e-9)


class TestPLCValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            PLCValue([0.0, 1.0], [1.0])  # arity
        with pytest.raises(ValueError):
            PLCValue([0.5, 1.0], [0.0, 1.0])  # must start at 0
        with pytest.raises(ValueError):
            PLCValue([0.0, 1.0], [1.0, 0.0])  # decreasing
        with pytest.raises(ValueError):
            PLCValue([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])  # convex corner

    @pytest.mark.parametrize(
        "knots, values",
        (
            ([0.0, 1.0, 2.0], [0.0, 0.5, np.nan]),
            ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
            ([0.0, 1.0, np.inf], [0.0, 0.5, 1.0]),
            ([0.0, np.nan, 2.0], [0.0, 0.5, 1.0]),
            ([0.0, 1.0, 2.0], [0.0, 0.5, np.inf]),
        ),
    )
    def test_non_finite_knots_and_values_rejected(self, knots, values):
        # a NaN slope fails every comparison, so only a finiteness check stops it
        with pytest.raises(ValueError, match="knots and values must be finite"):
            PLCValue(knots, values)

    def test_hull_of_a_nan_table_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            concave_monotone_hull([0.0, 1.0, 2.0], [0.0, np.nan, 1.0])

    def test_interp_and_slopes(self):
        v = PLCValue([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert list(v.left_slopes()) == [2.0, 0.5]
        assert float(v(0.5)) == 1.0
        assert float(v(2.0)) == 2.5
        assert float(v(99.0)) == 3.0  # clamped at the top knot
