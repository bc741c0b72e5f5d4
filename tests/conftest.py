import math
import tracemalloc

import numpy as np
import pytest

from nhppbayes import (IntensityModel, KernelSpec, McmcResult, ModelError,
                       PriorSpec, Window, nb_log_pmf)
from nhppbayes.core import TWO_PI
from nhppbayes.kernels import _bessel_ratios
from nhppbayes.simulate import RngLike, as_generator

# Oracles and helpers that only tests call live here, not in the package,
# which keeps what a command or a demo runs.

_NB_TERMS = 10_000_000  # most terms nb_total_mass sums before it gives up


def bessel_i0(kappa: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Returns inf, without raising, where I0 overflows (kappa above 713.98).
    """
    if not kappa >= 0:
        raise ModelError("bessel_i0 requires kappa >= 0")
    if kappa > 1000.0:  # I0 is inf here; e^(kappa / 2) overflows past 1419
        return math.inf
    half = math.exp(0.5 * kappa)
    return _bessel_ratios(kappa)[1] * half * half


def nb_total_mass(r: float, p: float, tol: float = 1e-10):
    """Truncated pmf sum with a certified geometric tail bound below tol.

    The pmf ratio p (m + r) / (m + 1) falls with m when r >= 1 and rises
    towards p when r < 1, so the current ratio bounds every later one in the
    first case and p does in the second.  Once that bound is below 1 the
    certified tail falls with m, so a tail still at or above tol at the
    10^7-term cap is rejected at once, before the sum.  So is a pmf(0) =
    (1 - p)^r that underflows to 0, which would certify a zero sum.
    """
    pmf = math.exp(nb_log_pmf(r, p, 0))
    if pmf == 0.0:
        raise ModelError(f"negative binomial pmf(0) underflows at r = {r!r}, "
                         f"p = {p!r}")
    bound = p * (_NB_TERMS + r) / (_NB_TERMS + 1) if r >= 1.0 else p
    if bound >= 1.0 or (math.exp(nb_log_pmf(r, p, _NB_TERMS))
                        * bound / (1.0 - bound) >= tol):
        raise ModelError("negative binomial tail did not certify")
    total = 0.0
    m = 0
    while True:
        total += pmf
        ratio = p * (m + r) / (m + 1)
        bound = ratio if r >= 1.0 else p
        if bound < 1.0:
            tail = pmf * bound / (1.0 - bound)
            if tail < tol:
                return total, tail
        pmf *= ratio
        m += 1
        if m > _NB_TERMS:
            raise ModelError("negative binomial tail did not certify")


def sample_crp(prior: PriorSpec, n: int, rng: RngLike):
    """Sequential Chinese-restaurant draw of n latent locations.

    Returns (locations, labels): the first location is a base draw; each
    subsequent one repeats an earlier location with probability 1/(|alpha|+k)
    each, or is a fresh base draw with probability |alpha|/(|alpha|+k).
    """
    if n < 0:
        raise ModelError("n must be nonnegative")
    gen = as_generator(rng)
    theta = prior.total_mass_alpha
    locations = np.empty(n)
    labels = np.empty(n, dtype=int)
    table_locs = []
    if n == 0:
        return locations, labels
    base_u = gen.random(n)          # decision uniforms, one per customer
    fresh = gen.uniform(prior.window.a, prior.window.b, n)
    fresh_used = 0
    for k in range(n):
        if k == 0 or base_u[k] * (theta + k) < theta:
            table_locs.append(fresh[fresh_used])
            fresh_used += 1
            labels[k] = len(table_locs) - 1
        else:
            # repeat one of the k earlier draws uniformly (reusing the
            # residual of the decision uniform, which is uniform on [0, k))
            j = min(int(base_u[k] * (theta + k) - theta), k - 1)
            labels[k] = labels[j]
        locations[k] = table_locs[labels[k]]
    return locations, labels


def grid_integral(g) -> float:
    """The integral of a ``GridDensity`` over its window: the periodic
    rectangle rule on the circle, the trapezoid rule on an interval."""
    if g.window.is_circle:
        return float(np.sum(g.values) * TWO_PI / g.grid.size)
    return float(np.trapezoid(g.values, g.grid))


def report_entry(report, label: str):
    """The ``RiskEntry`` of a ``RiskReport`` that carries ``label``."""
    for e in report.entries:
        if e.label == label:
            return e
    raise KeyError(label)


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
    draw's counts must sum to the same N.  ``[([], [])]``, one draw with no
    clusters, is the prior state of an empty pattern.
    """
    per_draw = [(np.asarray(locs, dtype=float), np.asarray(c, dtype=np.int64))
                for locs, c in per_draw]
    n_obs = int(per_draw[0][1].sum())
    assignments = [np.repeat(np.arange(c.size), c) for _, c in per_draw]
    return McmcResult(
        np.array(assignments, dtype=np.int64).reshape(len(per_draw), n_obs),
        np.concatenate([locs for locs, _ in per_draw]),
        np.concatenate([c for _, c in per_draw]),
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


def set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def log_cluster_marginal(kernel, xs):
    """log of the integral over u of prod_i k(x_i, u) du on the window: the
    uniform unit base's |alpha| per cluster times the cluster's marginal.

    von Mises: 2 pi I0(kappa R) / (2 pi I0(kappa))^n with R = |sum e^(i x)|;
    Gaussian: (2 pi sigma^2)^(-n/2) e^(-SS / 2 sigma^2) sigma sqrt(2 pi / n)
    times the N(mean x, sigma^2 / n) mass of the window, SS = sum (x - mean)^2.
    """
    from scipy import special, stats

    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if kernel.window.is_circle:
        # log I0(v) = v + log i0e(v), finite at any kappa
        k, k_r = kernel.kappa, kernel.kappa * abs(np.exp(1j * xs).sum())
        return (math.log(TWO_PI) + k_r + math.log(special.i0e(k_r))
                - n * (math.log(TWO_PI) + k + math.log(special.i0e(k))))
    sigma, a, b = kernel.sigma, kernel.window.a, kernel.window.b
    mean, s = xs.mean(), sigma / math.sqrt(n)
    ss = float(np.sum((xs - mean) ** 2))
    mass = stats.norm.cdf((b - mean) / s) - stats.norm.cdf((a - mean) / s)
    return (-0.5 * n * math.log(TWO_PI * sigma * sigma)
            - ss / (2.0 * sigma * sigma) + math.log(s * math.sqrt(TWO_PI))
            + math.log(mass))


def partition_posterior(kernel, xs, ys):
    """(E[K], lambda-bar at the points ys): the exact shape posterior given
    the few points xs, by enumerating their partitions.

    Partition P weighs prod_c (n_c - 1)! M(c), M the ``log_cluster_marginal``
    (the CRP's |alpha|^K cancels the base's 1 / |alpha| per cluster).  Given
    P, cluster c adds n_c E[k(y, u_c)] = n_c M(c + {y}) / M(c) to the base
    term, the kernel's mass in the window, and lambda-bar is their sum over
    |alpha| + N.
    """
    from scipy import stats

    window = kernel.window
    ys = np.asarray(ys, dtype=float)
    if window.is_circle:
        base = np.ones(ys.size)
    else:
        base = (stats.norm.cdf((window.b - ys) / kernel.sigma)
                - stats.norm.cdf((window.a - ys) / kernel.sigma))
    log_w, sizes, shapes = [], [], []
    for part in set_partitions(list(xs)):
        marg = [log_cluster_marginal(kernel, c) for c in part]
        log_w.append(sum(math.lgamma(len(c)) + m for c, m in zip(part, marg)))
        sizes.append(len(part))
        shapes.append(base + sum(
            len(c) * np.exp([log_cluster_marginal(kernel, c + [y]) - m
                             for y in ys])
            for c, m in zip(part, marg)))
    w = np.exp(np.array(log_w) - max(log_w))
    w /= w.sum()
    return (float(w @ sizes),
            w @ np.array(shapes) / (window.length + len(xs)))


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
