"""Gaussian tail arithmetic, seeded sampling and Monte Carlo means for every module.

All evidence in this package is Gaussian-location: a single observation is
N(theta, 1), an n-sample mean is N(theta, 1/sqrt(n)). Tail probabilities are
computed through the complementary error function, which keeps the absolute
error below 1e-12 everywhere; the quantile is the standard library's
``statistics.NormalDist().inv_cdf`` (Wichura's AS241), accurate to a few ulps.
Importing this module loads no scipy: only the vectorized tail needs
``scipy.special``, and it imports it on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_NORMAL = NormalDist()


@dataclass(frozen=True)
class GaussianModel:
    """Normal evidence law with mean ``mean`` and standard deviation ``sd``.

    ``sd`` is 1 for single observations and 1/sqrt(n) for an n-sample mean.
    """

    mean: float
    sd: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (self.sd > 0.0 and math.isfinite(self.sd)):
            raise ValueError(f"sd must be a positive finite real, got {self.sd}")


@dataclass(frozen=True)
class RandomStream:
    """Seeded random stream: (seed, stream_index) fully determines it.

    Its generator is PCG64 seeded by SeedSequence([seed, stream_index]).
    Monte Carlo evidence is drawn from a stream as one matrix with a row per
    replicate (``sample_normal``), so results are bit-identical across runs
    and the first k replicates do not depend on how many are drawn.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self._seed_sequence())

    def _seed_sequence(self, *extra: int) -> np.random.SeedSequence:
        # SeedSequence wants nonnegative entropy words; fold negatives into
        # the uint64 range instead of rejecting them.
        words = [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_index, *extra]
        return np.random.SeedSequence(words)


def replicate_rng(stream: RandomStream, replicate: int) -> np.random.Generator:
    """Independent child generator for one Monte Carlo replicate."""
    return np.random.default_rng(stream._seed_sequence(replicate))


def upper_tail(x: float) -> float:
    """P(Z > x) for standard normal Z, absolute error <= 1e-12."""
    return 0.5 * math.erfc(x / _SQRT2)


def upper_tail_np(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`upper_tail` for array arguments.

    Loads ``scipy.special`` on its first call, so only the multi-round
    optimizer and the discrete-evidence mode pay for importing it. The
    tails are built in place in one new array, which the caller may reuse.
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    tails = np.divide(x, _SQRT2, out=np.empty_like(x))
    special.erfc(tails, out=tails)
    tails *= 0.5
    return tails


def upper_tail_inverse(p: float) -> float:
    """x such that upper_tail(x) = p: by symmetry, minus the CDF quantile of p.

    Raises ValueError unless 0 < p < 1.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    return -_NORMAL.inv_cdf(p)


def sample_normal(
    model: GaussianModel, stream: RandomStream, n: int | tuple[int, ...]
) -> np.ndarray:
    """I.i.d. draws from the model in an array of shape ``n`` (an int or a
    tuple), deterministic given the stream.

    A shape fills row-major, so the rows of a (reps, horizon) matrix are the
    same for every leading ``reps``.
    """
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"n must be nonnegative, got {n}")
    return stream.generator().normal(model.mean, model.sd, size=n)


def mean_and_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means along axis 0 and their standard errors, the sample SD (ddof=1)
    over sqrt(n), computed in place (``x`` is overwritten) on ``x`` scaled by
    the power of two that brings max |x| into [0.5, 1): no square overflows
    or underflows at an extreme scale, and both results scale exactly with
    ``x`` by powers of two. A non-finite ``x`` stays unscaled (frexp gives 0)."""
    n = len(x)
    _, e = math.frexp(max(x.max(), -x.min()))
    np.ldexp(x, -e, out=x)
    mean = x.mean(axis=0)
    x -= mean
    x *= x
    se = np.sqrt(x.sum(axis=0) / (n - 1)) / math.sqrt(n)
    return np.ldexp(mean, e), np.ldexp(se, e)
