"""Bayesian predictive densities for future observation windows.

The predictive density of a future pattern factorizes into a negative
binomial count layer,

    M ~ NegBin(r = |alpha| - gamma + N,  p = t / (t + s + 1/beta)),

with 1/beta = 0 in the improper limit, times a point layer: the joint
density of the future locations given their count, which is a ratio of
Dirichlet-process mixture integrals.  The point layer is estimated by
sequential decomposition: each future point contributes its one-step
Chinese-restaurant predictive density given the observation clusters and the
previously absorbed future points, and the cluster state is augmented by
sampling the point's assignment.  The product is exact in expectation per
posterior draw; averaging across draws (and a few augmentation replicates
per draw) gives the estimate.

The point layer keeps one row per (draw, replicate) pair, rows
i*aug .. (i+1)*aug starting from draw i, and takes one array pass over all
rows per future point.  The augmentation stream is drawn point by point: one
uniform per row, then the new clusters' locations in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .core import ModelError, PointPattern, PriorSpec
from .kernels import KernelSpec, eval_kernel, sample_kernel_posterior
from .posterior import ClusterState, McmcConfig, base_predictive, run_mcmc
from .simulate import RngLike, as_generator


def nb_log_pmf(r: float, p: float, m: int) -> float:
    """Negative binomial log pmf: Gamma(m+r)/(m! Gamma(r)) p^m (1-p)^r.

    The Gamma ratio is skipped at m = 0, where it is 1 but gammaln(r) is
    infinite for subnormal r.
    """
    if not r > 0 or not 0.0 < p < 1.0 or m < 0:
        raise ModelError("need r > 0, 0 < p < 1, m >= 0")
    log_coef = gammaln(m + r) - gammaln(m + 1) - gammaln(r) if m else 0.0
    return float(log_coef + m * math.log(p) + r * math.log1p(-p))


def nb_total_mass(r: float, p: float, tol: float = 1e-10):
    """Truncated pmf sum with a certified geometric tail bound below tol.

    The pmf ratio p (m + r) / (m + 1) falls with m when r >= 1 and rises
    towards p when r < 1, so the current ratio bounds every later one in the
    first case and p does in the second.
    """
    total = 0.0
    m = 0
    pmf = math.exp(nb_log_pmf(r, p, 0))
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
        if m > 10_000_000:
            raise ModelError("negative binomial tail did not certify")


def predictive_count_params(prior: PriorSpec, n: int, s: float, t: float):
    """(failures r, success probability p) of the predictive count layer."""
    if not (s > 0 and t > 0):
        raise ModelError("exposures must be positive")
    r = prior.weight_shape + n
    if prior.is_improper:
        p = t / (t + s)
    else:
        p = t / (t + s + 1.0 / prior.beta)
    return r, p


def predictive_point_logdensity(draws: Sequence[ClusterState], prior: PriorSpec,
                                kernel: KernelSpec, ys, pattern: PointPattern,
                                rng: RngLike, aug_replicates: int = 8) -> float:
    """Log joint density of the future locations given their count.

    ``draws`` are posterior clusterings of the observed pattern (an empty
    sequence encodes the prior state for an empty pattern).  Each future
    point is scored by its one-step predictive density and then assigned to
    a cluster by sampling, so later points see the augmented state.  Returns
    0.0 for an empty future (the empty product).
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    gen = as_generator(rng)
    # rows zero-padded to K_max + M columns, of which row r occupies used[r]
    sizes = np.array([d.n_clusters for d in draws] or [0], dtype=np.intp)
    filled = np.arange(int(sizes.max()) + ys.size) < sizes[:, None]
    locs, counts = np.zeros(filled.shape), np.zeros(filled.shape)
    locs[filled] = np.concatenate([np.empty(0)] + [d.locations for d in draws])
    counts[filled] = np.concatenate([np.empty(0)] + [d.counts for d in draws])
    locs = np.repeat(locs, aug_replicates, axis=0)
    counts = np.repeat(counts, aug_replicates, axis=0)
    used = np.repeat(sizes, aug_replicates)
    rows = used.size

    base = base_predictive(prior, kernel, ys)
    denom = prior.total_mass_alpha + pattern.count
    log_prod = np.zeros(rows)
    for j, y in enumerate(ys):
        width = max(int(used.max()), 1)
        cum = counts[:, :width] * eval_kernel(kernel, y, locs[:, :width])
        np.cumsum(cum, axis=1, out=cum)
        numer = base[j] + cum[:, -1]
        log_prod += np.log(numer / denom)
        # absorb y into every row by sampling its assignment: a new cluster
        # with weight base[j], else the first column whose cumulative weight
        # exceeds the pick (the last occupied one if rounding leaves none)
        pick = gen.random(rows) * numer - base[j]
        new = pick < 0
        join = np.minimum((cum <= pick[:, None]).sum(axis=1), used - 1)
        counts[np.flatnonzero(~new), join[~new]] += 1.0
        r = np.flatnonzero(new)
        locs[r, used[r]] = sample_kernel_posterior(kernel, prior, y, gen,
                                                   r.size)
        counts[r, used[r]] = 1.0
        used[r] += 1
        denom += 1.0

    peak = float(np.max(log_prod))
    return peak + math.log(float(np.mean(np.exp(log_prod - peak))))


@dataclass(frozen=True)
class PredictiveDensity:
    """Count layer parameters plus the handle needed for point-layer scoring."""

    r: float
    p: float
    prior: PriorSpec
    kernel: KernelSpec
    pattern: PointPattern
    draws: tuple
    aug_replicates: int = 8

    def count_log_pmf(self, m: int) -> float:
        return nb_log_pmf(self.r, self.p, m)

    def point_log_density(self, ys, rng: RngLike) -> float:
        return predictive_point_logdensity(self.draws, self.prior, self.kernel,
                                           ys, self.pattern, rng,
                                           self.aug_replicates)

    def log_score(self, future: PointPattern, rng: RngLike) -> float:
        return predictive_log_score(self, future, rng)


def build_predictive(pattern: PointPattern, prior: PriorSpec, kernel: KernelSpec,
                     s: float, t: float, config: McmcConfig = McmcConfig(),
                     rng: RngLike = None, draws: Optional[Sequence] = None,
                     aug_replicates: int = 8) -> PredictiveDensity:
    """Assemble the predictive density, running the chain if needed."""
    r, p = predictive_count_params(prior, pattern.count, s, t)
    if draws is None:
        draws = run_mcmc(pattern, prior, kernel, config, rng).draws
    return PredictiveDensity(r, p, prior, kernel, pattern, tuple(draws),
                             aug_replicates)


def predictive_log_score(predictive: PredictiveDensity, future: PointPattern,
                         rng: RngLike) -> float:
    """Log predictive density of a future pattern: count term + point term."""
    if future.window != predictive.pattern.window:
        raise ModelError("future pattern must live on the same window")
    count_term = predictive.count_log_pmf(future.count)
    point_term = predictive.point_log_density(future.points, rng) \
        if future.count else 0.0
    return count_term + point_term
