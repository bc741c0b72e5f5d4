"""Posterior inference under the shrinkage prior family.

The posterior factorizes over the total weight and the normalized shape.
The weight posterior is closed form: its mean is (|alpha| - gamma + N)
divided by (s + 1/beta), with the improper limit dropping the 1/beta term.
The shape posterior is a Dirichlet-process mixture handled by MCMC over the
latent clustering of the observations, using auxiliary-component Gibbs
reassignment (a handful of fresh candidate locations per step) plus a
random-walk Metropolis refresh of each cluster location every sweep.

An empty pattern needs no chain: its posterior shape is the prior, so
``run_mcmc`` returns no draws and the estimate is the prior predictive.

The shape estimate never depends on beta, gamma, or s, so one chain serves
every member of the prior family at once; estimators for different gamma
differ only by their closed-form weight factor.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import TWO_PI, GridDensity, ModelError, PointPattern, PriorSpec
from .kernels import (KernelSpec, eval_kernel, member_stats, mixture_density,
                      mixture_series)
from .simulate import RngLike, as_generator, sample_base


@dataclass(frozen=True)
class ClusterState:
    """One MCMC draw: the partition of observations and cluster locations."""

    assignments: np.ndarray
    locations: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        l = np.asarray(self.locations, dtype=float)
        c = np.asarray(self.counts, dtype=np.int64)
        if int(c.sum()) != a.size:
            raise ModelError("cluster member counts must sum to the sample size")
        if l.shape != c.shape:
            raise ModelError("locations and counts must align")
        for arr in (a, l, c):
            arr.flags.writeable = False
        object.__setattr__(self, "assignments", a)
        object.__setattr__(self, "locations", l)
        object.__setattr__(self, "counts", c)

    @property
    def n_observations(self) -> int:
        return int(self.assignments.size)

    @property
    def n_clusters(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class McmcConfig:
    burn_in: int = 2000
    samples: int = 2000
    thin: int = 5
    aux_components: int = 3
    location_step: float = 0.2

    def __post_init__(self):
        if self.burn_in < 0 or self.samples < 1 or self.thin < 1:
            raise ModelError("need burn_in >= 0, samples >= 1, thin >= 1")
        if self.aux_components < 1:
            raise ModelError("need at least one auxiliary component")
        if not self.location_step > 0:
            raise ModelError("location_step must be positive")


@dataclass(frozen=True)
class McmcResult:
    """Retained draws plus chain diagnostics (never silently dropped).

    An empty pattern gives no draws; its acceptance rate is reported as
    None in the diagnostics, since no proposal was made.
    """

    draws: tuple
    acceptance_rate: float
    cluster_count_trace: np.ndarray

    @property
    def diagnostics(self) -> dict:
        trace = self.cluster_count_trace
        return {
            "acceptance_rate": self.acceptance_rate if self.draws else None,
            "mean_clusters": float(np.mean(trace)) if trace.size else 0.0,
            "cluster_count_trace": trace.tolist(),
            "draws": len(self.draws),
        }


def posterior_weight_mean(prior: PriorSpec, n: int, s: float) -> float:
    """Posterior mean of the total weight given the observed count.

    (|alpha| - gamma + N) / (s + 1/beta), where the improper prior takes the
    beta -> infinity limit and divides by s alone.
    """
    if not s > 0:
        raise ModelError("s must be positive")
    numer = prior.weight_shape + n
    if prior.is_improper:
        return numer / s
    return numer / (s + 1.0 / prior.beta)


def run_mcmc(pattern: PointPattern, prior: PriorSpec, kernel: KernelSpec,
             config: McmcConfig = McmcConfig(), rng: RngLike = None) -> McmcResult:
    """Sample the latent clustering of the observations.

    The chain targets the distribution proportional to
    prod_l k(x_l, u_{c(l)}) times the Chinese-restaurant prior on the
    partition and base-measure draws for the cluster locations.  The
    empty-pattern posterior equals the prior: that case returns no draws and
    takes nothing from the generator.
    """
    n_obs = pattern.count
    if n_obs == 0:
        return McmcResult((), 1.0, np.zeros(0, dtype=np.int64))
    if rng is None:
        raise ModelError("run_mcmc needs an RngStream or Generator")
    gen = as_generator(rng)
    xs = [float(v) for v in pattern.points]
    theta = prior.total_mass_alpha
    m_aux = config.aux_components
    aux_w = theta / m_aux
    step = config.location_step
    window = prior.window
    circular = window.is_circle
    win_a, win_b = window.a, window.b

    # scalar fast paths: kernel weights are inlined in the sweep loop below
    # (normalizing constants cancel in every categorical draw, so the von
    # Mises weight is scaled by exp(-kappa) to stay finite at large kappa)
    cos, sin, exp, log = math.cos, math.sin, math.exp, math.log
    von_mises = kernel.kind == "von_mises"
    if von_mises:
        kap = kernel.kappa

        def refresh_delta(u, up, s0, s1, n):
            return kap * (s0 * (cos(up) - cos(u)) + s1 * (sin(up) - sin(u)))
    else:
        inv2s2 = 0.5 / (kernel.sigma * kernel.sigma)

        def refresh_delta(u, up, s0, s1, n):
            return inv2s2 * (2.0 * s0 * (up - u) - n * (up * up - u * u))

    if prior.uniform_base:
        log_base = None
    else:
        def log_base(u, _f=prior.base_density):
            return log(float(_f(u)))

    # state: slot tables with a free list; observation i sits in slot assign[i]
    stats = [member_stats(kernel, x) for x in xs]
    sx0 = [s[0] for s in stats]
    sx1 = [s[1] for s in stats]
    locs = list(xs)                      # init: one singleton cluster per point
    counts = [1] * n_obs
    cs0 = list(sx0)
    cs1 = list(sx1)
    assign = list(range(n_obs))
    active = list(range(n_obs))
    free: list = []

    draws = []
    count_trace = []
    accepts = 0
    proposals = 0
    total_sweeps = config.burn_in + config.samples * config.thin
    next_keep = config.burn_in + config.thin - 1

    for sweep in range(total_sweeps):
        cat_u = gen.random(n_obs).tolist()
        aux_flat = sample_base(prior, n_obs * m_aux, gen).tolist()

        for i in range(n_obs):
            xi = xs[i]
            c = assign[i]
            counts[c] -= 1
            cs0[c] -= sx0[i]
            cs1[c] -= sx1[i]
            singleton = None
            if counts[c] == 0:
                singleton = locs[c]
                active.remove(c)
                free.append(c)

            base = i * m_aux
            aux_locs = aux_flat[base:base + m_aux]
            if singleton is not None:
                aux_locs[0] = singleton

            total = 0.0
            cumulative = []
            edge_append = cumulative.append
            if von_mises:
                for sid in active:
                    total += counts[sid] * exp(kap * cos(xi - locs[sid]) - kap)
                    edge_append(total)
                for u in aux_locs:
                    total += aux_w * exp(kap * cos(xi - u) - kap)
                    edge_append(total)
            else:
                for sid in active:
                    d = xi - locs[sid]
                    total += counts[sid] * exp(-d * d * inv2s2)
                    edge_append(total)
                for u in aux_locs:
                    d = xi - u
                    total += aux_w * exp(-d * d * inv2s2)
                    edge_append(total)

            # the first edge above the draw (the last if rounding leaves none)
            pick = min(bisect_right(cumulative, cat_u[i] * total),
                       len(cumulative) - 1)
            n_active = len(active)
            if pick < n_active:
                sid = active[pick]
            else:
                u_new = aux_locs[pick - n_active]
                sid = free.pop() if free else len(locs)
                if sid == len(locs):
                    locs.append(u_new)
                    counts.append(0)
                    cs0.append(0.0)
                    cs1.append(0.0)
                else:
                    locs[sid] = u_new
                active.append(sid)
            counts[sid] += 1
            cs0[sid] += sx0[i]
            cs1[sid] += sx1[i]
            assign[i] = sid

        # random-walk refresh of every occupied cluster location
        k_active = len(active)
        z = gen.normal(0.0, step, k_active).tolist()
        accept_u = gen.random(k_active).tolist()
        for j in range(k_active):
            sid = active[j]
            u = locs[sid]
            up = u + z[j]
            if circular:
                up = up % TWO_PI
            elif up < win_a or up > win_b:
                proposals += 1
                continue
            delta = refresh_delta(u, up, cs0[sid], cs1[sid], counts[sid])
            if log_base is not None:
                delta += log_base(up) - log_base(u)
            proposals += 1
            if delta >= 0.0 or accept_u[j] < exp(delta):
                locs[sid] = up
                accepts += 1

        if sweep == next_keep:
            next_keep += config.thin
            rank = {sid: r for r, sid in enumerate(active)}
            draws.append(ClusterState(
                np.array([rank[a] for a in assign], dtype=np.int64),
                np.asarray([locs[sid] for sid in active]),
                np.asarray([counts[sid] for sid in active], dtype=np.int64)))
            count_trace.append(k_active)

    rate = accepts / proposals if proposals else 1.0
    return McmcResult(tuple(draws), rate, np.asarray(count_trace, dtype=np.int64))


def base_predictive(prior: PriorSpec, kernel: KernelSpec,
                    grid: np.ndarray) -> np.ndarray:
    """integral of k(y, u) alpha(du) at the points of ``grid``.

    For the uniform unit base on the circle this is identically 1 (the kernel
    integrates to one); otherwise it is computed by quadrature over the
    window, which on an interval leaves out the Gaussian mass beyond the
    edges.
    """
    if prior.uniform_base and prior.window.is_circle \
            and abs(prior.total_mass_alpha - prior.window.length) < 1e-12:
        return np.ones(grid.size)
    nodes, weights = prior.window.quad_nodes()
    dens = np.asarray(prior.base_density(nodes), dtype=float) * weights
    out = np.empty(grid.size)
    step = max(1, 2_000_000 // max(nodes.size, 1))
    for lo in range(0, grid.size, step):
        hi = lo + step
        out[lo:hi] = eval_kernel(kernel, grid[lo:hi, None], nodes[None, :]) @ dens
    return out


def posterior_lambda_bar(draws: Sequence[ClusterState], prior: PriorSpec,
                         kernel: KernelSpec, grid: Optional[np.ndarray] = None,
                         base_pred: Optional[np.ndarray] = None) -> GridDensity:
    """Posterior-mean normalized intensity on a grid.

    Each draw contributes (base-measure predictive + sum_c n_c k(y, u_c))
    normalized by |alpha| + N; the result averages the draws.  An empty draw
    sequence gives the prior predictive (the N = 0 posterior).  On the circle
    the cluster term comes from the kernel's Fourier series, whose error the
    positive base term keeps small relative to the result.
    """
    window = prior.window
    if grid is None:
        grid = window.grid(1024)
    if base_pred is None:
        base_pred = base_predictive(prior, kernel, grid)
    theta = prior.total_mass_alpha
    if len(draws) == 0:
        return GridDensity(window, grid, base_pred / theta)
    n_obs = draws[0].n_observations
    all_locs = np.concatenate([d.locations for d in draws])
    all_counts = np.concatenate([d.counts for d in draws]).astype(float)
    mixture = mixture_series if kernel.kind == "von_mises" else mixture_density
    values = mixture(kernel, all_locs, all_counts, grid)
    values = (values / len(draws) + base_pred) / (theta + n_obs)
    return GridDensity(window, grid, values)


@dataclass(frozen=True)
class PosteriorSummary:
    """Bayes estimates for one member of the prior family.

    lambda_hat is the weight mean times the shared shape estimate; its
    integral over the window equals the weight mean up to grid error.
    """

    gamma: float
    weight_mean: float
    lambda_bar: GridDensity
    lambda_hat: GridDensity
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "weight_mean": self.weight_mean,
            "grid": [float(v) for v in self.lambda_bar.grid],
            "lambda_bar": [float(v) for v in self.lambda_bar.values],
            "lambda_hat": [float(v) for v in self.lambda_hat.values],
            "diagnostics": self.diagnostics,
        }


def estimate_intensity(pattern: PointPattern, prior: PriorSpec, kernel: KernelSpec,
                       s: float, config: McmcConfig = McmcConfig(),
                       rng: RngLike = None, grid_size: int = 1024) -> PosteriorSummary:
    """Posterior-mean intensity estimate under one prior."""
    return estimate_intensity_multi(pattern, prior, kernel, s, [prior.gamma],
                                    config, rng, grid_size)[0]


def estimate_intensity_multi(pattern: PointPattern, prior: PriorSpec,
                             kernel: KernelSpec, s: float, gammas: Sequence[float],
                             config: McmcConfig = McmcConfig(), rng: RngLike = None,
                             grid_size: int = 1024) -> list:
    """Estimates for several gamma values sharing one chain.

    The shape estimate is computed once and reused: estimates for different
    gamma are exactly proportional, differing only in the closed-form weight
    factor.
    """
    grid = prior.window.grid(grid_size)
    result = run_mcmc(pattern, prior, kernel, config, rng)
    lam_bar = posterior_lambda_bar(result.draws, prior, kernel, grid)
    diagnostics = result.diagnostics
    summaries = []
    for gamma in gammas:
        member = prior.with_gamma(gamma)
        w_mean = posterior_weight_mean(member, pattern.count, s)
        summaries.append(PosteriorSummary(
            gamma, w_mean, lam_bar, lam_bar.scaled(w_mean), dict(diagnostics)))
    return summaries
