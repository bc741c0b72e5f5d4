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
rows per future point.  Its cells are slot-major, shape (slots, rows), with
slots added as clusters open, and keep a count and the ``kernel_table`` of a
location, so a future point makes no trig call.  The augmentation stream is
drawn point by point, in the order it had before the trig tables: one
uniform per row, then the new clusters' locations in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelError, PointPattern, PriorSpec
from .kernels import (KernelSpec, eval_table, kernel_table,
                      sample_kernel_posterior)
from .posterior import McmcConfig, McmcResult, base_predictive, run_mcmc
from .simulate import RngLike, as_generator

_NB_TERMS = 10_000_000  # most terms nb_total_mass sums before it gives up
_GROW = 4  # slots the point layer adds when a row runs out of them


def nb_log_pmf(r: float, p: float, m: int) -> float:
    """Negative binomial log pmf: Gamma(m+r)/(m! Gamma(r)) p^m (1-p)^r.

    The Gamma ratio comes from ``math.lgamma``; r must be finite and within
    its range (below about 2.5e305), else ``ModelError``.  At m = 0 the ratio
    is exactly 0.0 in log form, even for subnormal r.
    """
    if not 0 < r < math.inf or not 0.0 < p < 1.0 or m < 0:
        raise ModelError("need finite r > 0, 0 < p < 1, m >= 0")
    try:
        log_coef = math.lgamma(m + r) - math.lgamma(m + 1) - math.lgamma(r)
    except OverflowError:
        raise ModelError(f"r = {r!r} is beyond the range of lgamma") from None
    return float(log_coef + m * math.log(p) + r * math.log1p(-p))


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


def predictive_count_params(prior: PriorSpec, n: int, s: float, t: float):
    """(failures r, success probability p) of the predictive count layer."""
    if not (0 < s < math.inf and 0 < t < math.inf):
        raise ModelError(f"exposures must be finite and positive: {s}, {t}")
    r = prior.weight_shape + n
    if prior.is_improper:
        p = t / (t + s)
    else:
        p = t / (t + s + 1.0 / prior.beta)
    return r, p


def predictive_point_logdensity(draws: McmcResult, prior: PriorSpec,
                                kernel: KernelSpec, ys, pattern: PointPattern,
                                rng: RngLike, aug_replicates: int = 8) -> float:
    """Log joint density of the future locations given their count.

    ``draws`` is the table of posterior clusterings of the observed pattern
    (for an empty pattern, the prior state: one draw with no clusters).  Each
    future point is scored by its one-step predictive density and then
    assigned to a cluster by sampling, so later points see the augmented
    state.  Returns 0.0 for an empty future (the empty product).
    ``aug_replicates`` below 1 raises ``ModelError``.
    """
    if aug_replicates < 1:
        raise ModelError(f"need aug_replicates >= 1, got {aug_replicates}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    gen = as_generator(rng)
    # location and count of slot k of draw i at [:, k, i]
    sizes = draws.cluster_count_trace
    filled = np.arange(max(int(sizes.max()), 1))[:, None] < sizes
    per_draw = np.zeros((2,) + filled.shape)
    per_draw.transpose(0, 2, 1)[:, filled.T] = (draws.locations, draws.counts)
    # per slot and row: the kernel_table fields of the location, then the
    # count; row r occupies its first used[r] slots, with count 0 past them
    cells = np.repeat(np.concatenate([kernel_table(kernel, per_draw[0]),
                                      per_draw[1:]]), aug_replicates, axis=-1)
    used = np.repeat(sizes, aug_replicates)
    rows = used.size
    every_row = np.arange(rows)

    base = base_predictive(prior, kernel, ys)
    denom = prior.total_mass_alpha + pattern.count
    log_prod = np.zeros(rows)
    for j, y in enumerate(ys):
        width = max(int(used.max()), 1)
        cum = eval_table(kernel, y, cells[:-1, :width])
        cum *= cells[-1, :width]
        for k in range(1, width):  # np.cumsum's order, on contiguous rows
            cum[k] += cum[k - 1]
        numer = base[j] + cum[-1]
        log_prod += np.log(numer / denom)
        # absorb y into every row by sampling its assignment: a new cluster
        # with weight base[j], else the first slot whose cumulative weight
        # exceeds the pick (the last occupied one if rounding leaves none)
        pick = gen.random(rows) * numer - base[j]
        new = pick < 0
        join = np.where(new, used,
                        np.minimum((cum <= pick).sum(axis=0), used - 1))
        if join.max() == cells.shape[1]:  # a row opens past the last slot
            del cum  # freed before the copy, which sets the layer's peak
            cells = np.concatenate(
                [cells, np.zeros((len(cells), _GROW, rows))], axis=1)
        cells[-1, join, every_row] += 1.0
        r = np.flatnonzero(new)
        cells[:-1, used[r], r] = kernel_table(kernel, sample_kernel_posterior(
            kernel, y, gen, r.size))
        used += new
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
    draws: McmcResult
    aug_replicates: int = 8

    def log_score(self, future: PointPattern, rng: RngLike) -> float:
        """Log predictive density of a future pattern on the same window.

        The negative binomial log pmf of its count plus the point layer's
        log density of its locations (drawn from ``rng``; 0.0 for no points).
        """
        if future.window != self.pattern.window:
            raise ModelError("future pattern must live on the same window")
        score = nb_log_pmf(self.r, self.p, future.count)
        return score + predictive_point_logdensity(
            self.draws, self.prior, self.kernel, future.points, self.pattern,
            rng, self.aug_replicates)


def build_predictive(pattern: PointPattern, prior: PriorSpec, kernel: KernelSpec,
                     s: float, t: float, config: McmcConfig = McmcConfig(),
                     rng: RngLike = None, aug_replicates: int = 8
                     ) -> PredictiveDensity:
    """Assemble the predictive density, running the chain on the pattern."""
    if aug_replicates < 1:
        raise ModelError(f"need aug_replicates >= 1, got {aug_replicates}")
    r, p = predictive_count_params(prior, pattern.count, s, t)
    draws = run_mcmc(pattern, prior, kernel, config, rng)
    return PredictiveDensity(r, p, prior, kernel, pattern, draws, aug_replicates)

