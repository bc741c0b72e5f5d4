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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .core import ModelError, PointPattern, PriorSpec
from .kernels import KernelSpec, sample_kernel_posterior
from .posterior import ClusterState, McmcConfig, base_predictive, run_mcmc
from .simulate import RngLike, as_generator


def nb_log_pmf(r: float, p: float, m: int) -> float:
    """Negative binomial log pmf: Gamma(m+r)/(m! Gamma(r)) p^m (1-p)^r."""
    if not r > 0 or not 0.0 < p < 1.0 or m < 0:
        raise ModelError("need r > 0, 0 < p < 1, m >= 0")
    return float(gammaln(m + r) - gammaln(m + 1) - gammaln(r)
                 + m * math.log(p) + r * math.log1p(-p))


def nb_total_mass(r: float, p: float, tol: float = 1e-10):
    """Truncated pmf sum with a certified geometric tail bound below tol."""
    total = 0.0
    m = 0
    pmf = math.exp(nb_log_pmf(r, p, 0))
    while True:
        total += pmf
        ratio = p * (m + r) / (m + 1)
        if ratio < 1.0:
            tail = pmf * ratio / (1.0 - ratio)
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
    if ys.size == 0:
        return 0.0
    gen = as_generator(rng)
    theta = prior.total_mass_alpha
    n_obs = pattern.count
    states = list(draws) if len(draws) else [None]

    # integral of k(y_j, u) alpha(du) for each future point, as floats for
    # the scalar loop below
    base_vals = base_predictive(prior, kernel, ys).tolist()

    exp, log, cos = math.exp, math.log, math.cos
    if kernel.kind == "von_mises":
        kap, norm = kernel.kappa, kernel.log_norm

        def kval(y, u):
            return exp(kap * cos(y - u) - norm)
    else:
        inv2s2, norm = 0.5 / kernel.sigma ** 2, kernel.log_norm

        def kval(y, u):
            d = y - u
            return exp(-d * d * inv2s2 - norm)

    y_list = [float(v) for v in ys]
    log_products = []
    for state in states:
        for _ in range(aug_replicates):
            if state is None:
                locs, counts = [], []
            else:
                locs = [float(v) for v in state.locations]
                counts = [int(v) for v in state.counts]
            denom = theta + n_obs
            log_prod = 0.0
            for j, y in enumerate(y_list):
                kvals = [kval(y, u) for u in locs]
                cluster_sum = 0.0
                for c in range(len(locs)):
                    cluster_sum += counts[c] * kvals[c]
                numer = base_vals[j] + cluster_sum
                log_prod += log(numer / denom)
                # absorb y into the state by sampling its assignment
                pick = gen.random() * numer
                if pick < base_vals[j] or not locs:
                    locs.append(sample_kernel_posterior(kernel, prior, y, gen))
                    counts.append(1)
                else:
                    pick -= base_vals[j]
                    acc = 0.0
                    for c in range(len(locs)):
                        acc += counts[c] * kvals[c]
                        if pick < acc:
                            counts[c] += 1
                            break
                    else:
                        counts[-1] += 1
                denom += 1.0
            log_products.append(log_prod)

    arr = np.asarray(log_products)
    peak = float(np.max(arr))
    return peak + math.log(float(np.mean(np.exp(arr - peak))))


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
