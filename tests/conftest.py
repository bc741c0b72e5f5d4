import math
import tracemalloc

import numpy as np
import pytest

from nhppbayes import (IntensityModel, KernelSpec, McmcResult, ModelError,
                       PriorSpec, Window)


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


def draw_table(per_draw):
    """A chain's draw table holding the given (locations, counts) draws.

    Each draw assigns the observations to its clusters in order, so every
    draw's counts must sum to the same N.  No draws give the zero-draw table
    of an empty pattern.
    """
    per_draw = [(np.asarray(locs, dtype=float), np.asarray(c, dtype=np.int64))
                for locs, c in per_draw]
    n_obs = int(per_draw[0][1].sum()) if per_draw else 0
    assignments = [np.repeat(np.arange(c.size), c) for _, c in per_draw]
    return McmcResult(
        np.array(assignments, dtype=np.int64).reshape(len(per_draw), n_obs),
        np.concatenate([np.zeros(0)] + [locs for locs, _ in per_draw]),
        np.concatenate([np.zeros(0, np.int64)] + [c for _, c in per_draw]),
        np.array([c.size for _, c in per_draw], dtype=np.int64), 1.0)


def kl_decomposed(true_model, est_model, t: float, n: int = 4096):
    """Split the divergence into its weight and shape components.

    Both components use the quadrature masses, so they are individually
    nonnegative and sum to kl_intensity at the same resolution exactly (up
    to float rounding).  The reference for ``kl_intensity``.
    """
    if true_model.window != est_model.window:
        raise ModelError("models must share a window")
    nodes, weights = true_model.window.quad_nodes(n)
    lam = true_model(nodes)
    lam_p = est_model(nodes)
    if np.any(lam_p <= 0) or np.any(lam <= 0):
        raise ModelError("intensities must be strictly positive")
    mass = float(np.dot(weights, lam))
    mass_p = float(np.dot(weights, lam_p))
    log_ratio = math.log(mass_p / mass)
    cross = float(np.dot(weights, lam * np.log(lam / lam_p)))
    weight_term = t * (mass_p - mass - mass * log_ratio)
    shape_term = t * (cross + mass * log_ratio)
    return weight_term, shape_term


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
