import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from evcontracts import (
    GaussianModel,
    RandomStream,
    replicate_rng,
    sample_normal,
    upper_tail,
    upper_tail_inverse,
)
from evcontracts.gaussian import mean_and_se, upper_tail_np


def quadrature_tail(x: float) -> float:
    """Independent oracle: adaptive quadrature of the normal density."""
    value, _ = integrate.quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
        x,
        np.inf,
        epsabs=1e-15,
        epsrel=1e-13,
    )
    return value


def bisection_tail_inverse(p: float) -> float:
    """Independent oracle: plain bisection against quadrature-checked tails."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if upper_tail(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestUpperTail:
    def test_symmetry_at_zero(self):
        assert upper_tail(0.0) == 0.5

    def test_status_quo_threshold_region(self):
        assert upper_tail(1.64) == pytest.approx(0.0505, abs=5e-5)
        assert upper_tail(1.6449) == pytest.approx(0.0500, abs=5e-5)

    @pytest.mark.parametrize("x", [-6.0, -3.0, -1.0, 0.3, 1.6449, 3.0, 6.0])
    def test_against_quadrature_oracle(self, x):
        assert upper_tail(x) == pytest.approx(quadrature_tail(x), abs=1e-12)

    def test_vectorized_tail_against_stdlib_erfc(self):
        # the accuracy any vectorized tail kernel must keep: relative 1e-13
        # where the stdlib tail is a normal double, absolute 2**-1022 where it
        # is subnormal or 0; 37 to 39 holds the underflow edge, sampled densely
        x = np.concatenate([np.linspace(-40.0, 40.0, 80_001), np.linspace(37.0, 39.0, 20_001)])
        want = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in x.tolist()])
        error = np.abs(upper_tail_np(x) - want)
        normal = want >= 2.0**-1022
        assert np.all(error[normal] <= 1e-13 * want[normal])
        assert np.all(error[~normal] <= 2.0**-1022)
        assert 0 < np.count_nonzero(~normal & (want > 0.0))

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-8, 8, 33)
        assert upper_tail_np(xs) == pytest.approx(
            [upper_tail(x) for x in xs], abs=5e-16
        )

    @given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    def test_strictly_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-12:  # below float resolution of the tail
            assert upper_tail(lo) >= upper_tail(hi)
        else:
            assert upper_tail(lo) > upper_tail(hi)

    @given(st.floats(-10.0, 10.0))
    def test_complement_identity(self, x):
        assert upper_tail(x) + upper_tail(-x) == pytest.approx(1.0, abs=1e-12)


class TestUpperTailInverse:
    def test_median(self):
        assert upper_tail_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_five_percent(self):
        # frozen from the bisection oracle
        assert upper_tail_inverse(0.05) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert upper_tail_inverse(0.05) == pytest.approx(
            bisection_tail_inverse(0.05), abs=1e-12
        )

    def test_standard_protocol_tail(self):
        assert upper_tail_inverse(0.000625) == pytest.approx(3.2272, abs=1e-4)
        assert upper_tail_inverse(0.000625) == pytest.approx(
            bisection_tail_inverse(0.000625), abs=1e-12
        )

    @pytest.mark.parametrize(
        "p, x",
        (
            # x: the 50-digit quantile rounded to the nearest double
            (0.5, 0.0),
            (0.05, 1.6448536269514726),
            (0.025, 1.9599639845400543),
            (0.002, 2.8781617390954835),
            (0.000625, 3.2272184259631564),
            (1e-10, 6.361340902404057),
        ),
    )
    def test_accuracy(self, p, x):
        assert abs(upper_tail_inverse(p) - x) <= 2e-15

    @pytest.mark.parametrize(
        "p, reference",
        (
            # reference: the 50-digit upper-tail quantile of the double p
            (0.02, "2.0537489106318230443386390749202705842697611430091"),
            (0.05, "1.6448536269514726879521280764633298932149746414168"),
            (1 / 11, "1.3351777361189366636909072306597834888275920143755"),
            (1e-10, "6.3613409024040561991003969487875583470663365305064"),
            (1e-300, "37.047096299361199236547042504890222343638453723845"),
        ),
    )
    def test_within_eight_ulps(self, p, reference):
        x = float(reference)
        assert abs(upper_tail_inverse(p) - x) <= 8 * math.ulp(x)

    @pytest.mark.parametrize("p", [1.0, 0.0, -0.2, 1.7])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            upper_tail_inverse(p)

    @settings(max_examples=60)
    @given(st.floats(-5.9, 6.0))
    def test_round_trip(self, x):
        assert upper_tail_inverse(upper_tail(x)) == pytest.approx(x, abs=1e-8)

    def test_round_trip_left_edge(self):
        # below x ~ -5.9 the tail is within a few ulp of 1, and one ulp of p
        # already moves the quantile by ulp(1)/pdf(x) ~ 1.8e-8 at x = -6; no
        # float64 inverse can do better than that, so the edge gets the
        # representation-limited tolerance
        for x in (-5.9375, -6.0):
            limit = 1.11e-16 / (math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi))
            assert upper_tail_inverse(upper_tail(x)) == pytest.approx(
                x, abs=1e-8 + 2.0 * limit
            )


class TestSampling:
    def test_empty(self):
        out = sample_normal(GaussianModel(0.0), RandomStream(1, 0), 0)
        assert out.shape == (0,)
        out = sample_normal(GaussianModel(0.0), RandomStream(1, 0), (3, 0))
        assert out.shape == (3, 0)

    def test_negative_count_rejected(self):
        for n in (-1, (2, -1)):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                sample_normal(GaussianModel(0.0), RandomStream(1, 0), n)

    def test_determinism(self):
        a = sample_normal(GaussianModel(0.3, 2.0), RandomStream(42, 7), 50)
        b = sample_normal(GaussianModel(0.3, 2.0), RandomStream(42, 7), 50)
        assert np.array_equal(a, b)
        c = sample_normal(GaussianModel(0.3, 2.0), RandomStream(42, 7), (5, 10))
        assert np.array_equal(c, a.reshape(5, 10))

    def test_streams_differ(self):
        a = sample_normal(GaussianModel(0.0), RandomStream(42, 0), 50)
        b = sample_normal(GaussianModel(0.0), RandomStream(42, 1), 50)
        assert not np.array_equal(a, b)

    def test_clt_bound(self):
        draws = sample_normal(GaussianModel(0.0), RandomStream(2024, 0), 10**6)
        assert abs(draws.mean()) < 4e-3  # 4 / sqrt(n)

    def test_replicate_streams_deterministic(self):
        stream = RandomStream(9, 3)
        a = replicate_rng(stream, 5).normal(0, 1, 10)
        b = replicate_rng(stream, 5).normal(0, 1, 10)
        c = replicate_rng(stream, 6).normal(0, 1, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_accepted(self):
        out = sample_normal(GaussianModel(0.0), RandomStream(-3, 0), 5)
        assert out.shape == (5,)


class TestMeanAndSe:
    @pytest.mark.parametrize("shape", [(2,), (1000,), (3, 1), (500, 7)])
    @pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (3.0, 0.01), (-2e5, 7e3)])
    def test_equals_the_numpy_formula_bit_for_bit(self, shape, loc, scale):
        x = np.random.default_rng(11).normal(loc, scale, shape)
        n = shape[0]
        want = (x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(n))
        got = mean_and_se(x.copy())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("k", [-1000, -1, 1, 1000])
    @pytest.mark.parametrize("shape", [(1000,), (400, 3)])
    def test_scales_exactly_by_powers_of_two(self, k, shape):
        x = np.random.default_rng(13).normal(0.5, 1.0, shape)
        scaled = np.ldexp(x, k)
        assert np.all(np.abs(scaled) >= np.finfo(float).tiny)  # normal inputs
        mean, se = mean_and_se(x.copy())
        got_mean, got_se = mean_and_se(scaled)
        assert np.array_equal(got_mean, np.ldexp(mean, k))
        assert np.array_equal(got_se, np.ldexp(se, k))
        assert np.all(got_se > 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_gives_non_finite_results(self, bad):
        x = np.random.default_rng(17).normal(0.0, 1.0, (50, 2))
        x[7, 0] = bad
        with np.errstate(invalid="ignore"):
            mean, se = mean_and_se(x)
        assert not np.isfinite(mean[0]) and not np.isfinite(se[0])
        assert np.isfinite(mean[1])

    def test_overwrites_its_input(self):
        x = np.random.default_rng(19).normal(0.0, 1.0, (20, 3))
        before = x.copy()
        mean_and_se(x)
        assert not np.array_equal(x, before)


class TestGaussianModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianModel(math.nan)
        with pytest.raises(ValueError):
            GaussianModel(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianModel(0.0, -1.0)

    def test_n_sample_mean_scaling(self):
        model = GaussianModel(1.0, 1.0 / math.sqrt(5.0))
        assert model.sd == pytest.approx(0.4472135954999579)
