import math
import tracemalloc

import numpy as np
import pytest

from nhppbayes import IntensityModel, KernelSpec, PriorSpec, Window


@pytest.fixture(scope="session")
def circle():
    return Window.circle()


@pytest.fixture(scope="session")
def sine2(circle):
    return IntensityModel.from_function(circle, lambda u: np.sin(u) + 2.0,
                                        total_mass=4.0 * math.pi)


@pytest.fixture(scope="session")
def vm5(circle):
    return KernelSpec.von_mises(5.0, circle)


@pytest.fixture(scope="session")
def uniform_prior(circle):
    return PriorSpec.uniform_unit(circle)


@pytest.fixture(scope="session")
def cosine_prior(circle):
    """A smooth non-uniform base, 1 + cos(u)/2 on the circle (mass 2*pi)."""
    return PriorSpec(circle, lambda u: 1.0 + 0.5 * np.cos(u), 2.0 * math.pi)


def batch_se(values, n_batches=40):
    """Standard error of an autocorrelated trace via batch means."""
    values = np.asarray(values, dtype=float)
    usable = values[: values.size // n_batches * n_batches]
    means = usable.reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def peak_traced_mb(fn, *args):
    """Peak memory, in MB, that tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def poisson_gof_pvalue(counts, mu):
    """Chi-square goodness-of-fit p-value of integer counts vs Poisson(mu).

    Cells with expectation below 5 are pooled into their neighbors from both
    ends, which keeps the chi-square approximation honest.
    """
    from collections import Counter

    from scipy import stats

    counts = np.asarray(counts, dtype=int)
    n = counts.size
    observed = Counter(counts.tolist())
    kmax = max(observed)
    ks = np.arange(kmax + 2)
    expected = n * stats.poisson.pmf(ks, mu)
    expected[-1] = n * stats.poisson.sf(kmax, mu)
    obs = np.array([observed.get(int(k), 0) for k in ks], dtype=float)
    # pool small-expectation cells inward from both tails
    lo = 0
    while expected[lo] < 5.0 and lo < ks.size - 2:
        expected[lo + 1] += expected[lo]
        obs[lo + 1] += obs[lo]
        lo += 1
    hi = ks.size - 1
    while expected[hi] < 5.0 and hi > lo + 1:
        expected[hi - 1] += expected[hi]
        obs[hi - 1] += obs[hi]
        hi -= 1
    obs = obs[lo:hi + 1]
    expected = expected[lo:hi + 1]
    expected *= obs.sum() / expected.sum()
    return float(stats.chisquare(obs, expected).pvalue)
