"""Posterior inference under the shrinkage prior family.

The posterior factorizes over the total weight and the normalized shape.
The weight posterior is closed form: its mean is (|alpha| - gamma + N)
divided by (s + 1/beta), with the improper limit dropping the 1/beta term.
The shape posterior is a Dirichlet-process mixture handled by MCMC over the
latent clustering of the observations, using auxiliary-component Gibbs
reassignment (a handful of fresh candidate locations per step, uniform on
the window like the base measure) plus a random-walk Metropolis refresh of
each cluster location every sweep.

``run_mcmc`` keeps its draws as one flat table, ``McmcResult``: a draws x N
array of cluster ranks, the locations and member counts of every kept atom
in draw order, and the per-draw cluster counts that delimit the atoms.  Its
consumers (the shape estimate, the predictive point layer) read all atoms at
once.  An empty pattern needs no chain: its posterior shape is the prior, so
``run_mcmc`` returns one draw with no clusters, which every consumer reads
as it reads any draw; the estimate is then the prior predictive.

The shape estimate never depends on beta, gamma, or s, so one chain serves
every member of the prior family at once; estimators for different gamma
differ only by their closed-form weight factor.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .core import TWO_PI, GridDensity, ModelError, PointPattern, PriorSpec
from .kernels import KernelSpec, member_stats, mixture_density, mixture_series
from .simulate import RngLike, as_generator


# Chain tuning: fresh candidate locations per reassignment step (Neal's
# Algorithm 8 auxiliary components) and the random-walk refresh's scale.
_AUX_COMPONENTS = 3
_LOCATION_STEP = 0.2


@dataclass(frozen=True)
class McmcConfig:
    burn_in: int = 2000
    samples: int = 2000
    thin: int = 5

    def __post_init__(self):
        if self.burn_in < 0 or self.samples < 1 or self.thin < 1:
            raise ModelError("need burn_in >= 0, samples >= 1, thin >= 1")


@dataclass(frozen=True)
class McmcResult:
    """The chain's kept draws as one flat table, plus chain diagnostics.

    Draw i has k_i = ``cluster_count_trace[i]`` clusters.  Row i of
    ``assignments`` (draws x N) gives each observation's cluster rank,
    0 .. k_i - 1, in the draw's order of active clusters.  ``locations`` and
    ``counts`` hold every kept atom in draw order: draw i's k_i atoms follow
    the ``cluster_count_trace[:i].sum()`` atoms of the draws before it.

    An empty pattern gives one draw with no clusters (``assignments`` of
    shape (1, 0)); its acceptance rate is reported as None in the
    diagnostics, since no proposal was made.
    """

    assignments: np.ndarray
    locations: np.ndarray
    counts: np.ndarray
    cluster_count_trace: np.ndarray
    acceptance_rate: float

    def __len__(self) -> int:
        return int(self.cluster_count_trace.size)

    def __iter__(self):
        # exists only for bench/tracing.py, which sums d.n_clusters over the
        # draws it is passed; the package reads the arrays
        return (SimpleNamespace(n_clusters=int(k))
                for k in self.cluster_count_trace)

    @property
    def diagnostics(self) -> dict:
        trace = self.cluster_count_trace
        return {
            "acceptance_rate": (self.acceptance_rate
                                if self.assignments.shape[1] else None),
            "mean_clusters": float(np.mean(trace)),
            "cluster_count_trace": trace.tolist(),
            "draws": len(self),
        }


def posterior_weight_mean(prior: PriorSpec, n: int, s: float) -> float:
    """Posterior mean of the total weight given the observed count.

    (|alpha| - gamma + N) / (s + 1/beta), where the improper prior takes the
    beta -> infinity limit and divides by s alone.  A mean that overflows
    raises ``ModelError``.
    """
    if not 0 < s < math.inf:
        raise ModelError(f"s must be finite and positive, got {s}")
    numer = prior.weight_shape + n
    mean = numer / (s if prior.is_improper else s + 1.0 / prior.beta)
    if mean == math.inf:
        raise ModelError(f"the posterior weight mean overflows at s = {s!r}")
    return mean


def run_mcmc(pattern: PointPattern, prior: PriorSpec, kernel: KernelSpec,
             config: McmcConfig = McmcConfig(), rng: RngLike = None) -> McmcResult:
    """Sample the latent clustering of the observations.

    The chain targets the distribution proportional to
    prod_l k(x_l, u_{c(l)}) times the Chinese-restaurant prior on the
    partition and uniform base draws for the cluster locations.  The
    empty-pattern posterior equals the prior: that case returns one draw
    with no clusters and takes nothing from the generator.
    """
    n_obs = pattern.count
    if n_obs == 0:
        return McmcResult(np.zeros((1, 0), dtype=np.int64), np.zeros(0),
                          np.zeros(0, dtype=np.int64),
                          np.zeros(1, dtype=np.int64), 1.0)
    if rng is None:
        raise ModelError("run_mcmc needs an RngStream or Generator")
    gen = as_generator(rng)
    xs = [float(v) for v in pattern.points]
    theta = prior.total_mass_alpha
    m_aux = _AUX_COMPONENTS
    aux_w = theta / m_aux
    window = prior.window
    circular = window.is_circle
    win_a, win_b = window.a, window.b

    # scalar fast paths: kernel weights are inlined in the sweep loop below
    # (normalizing constants cancel in every categorical draw, so the von
    # Mises weight is scaled by exp(-kappa) to stay finite at large kappa)
    cos, sin, exp = math.cos, math.sin, math.exp
    if circular:
        kap = kernel.kappa

        def refresh_delta(u, up, s0, s1, n):
            return kap * (s0 * (cos(up) - cos(u)) + s1 * (sin(up) - sin(u)))
    else:
        inv2s2 = 0.5 / (kernel.sigma * kernel.sigma)

        def refresh_delta(u, up, s0, s1, n):
            return inv2s2 * (2.0 * s0 * (up - u) - n * (up * up - u * u))

    # state: one record [location, members, stat sum 0, stat sum 1, rank] per
    # occupied cluster, in ``active`` order; observation i sits in assign[i].
    # A record leaves ``active`` when its last member does; list.remove can
    # match no other record, since only that one has 0 members.
    stats = [member_stats(kernel, x) for x in xs]
    sx0 = [s[0] for s in stats]
    sx1 = [s[1] for s in stats]
    # init: one singleton cluster per point
    assign = [[x, 1, s0, s1, 0] for x, (s0, s1) in zip(xs, stats)]
    active = list(assign)

    kept_assign = []
    kept_locs = []
    kept_counts = []
    count_trace = []
    accepts = 0
    proposals = 0
    total_sweeps = config.burn_in + config.samples * config.thin
    next_keep = config.burn_in + config.thin - 1

    for sweep in range(total_sweeps):
        cat_u = gen.random(n_obs).tolist()
        aux_flat = gen.uniform(win_a, win_b, n_obs * m_aux).tolist()

        for i in range(n_obs):
            xi = xs[i]
            rec = assign[i]
            rec[1] -= 1
            rec[2] -= sx0[i]
            rec[3] -= sx1[i]
            base = i * m_aux
            aux_locs = aux_flat[base:base + m_aux]
            if rec[1] == 0:
                aux_locs[0] = rec[0]
                active.remove(rec)

            total = 0.0
            cumulative = []
            edge_append = cumulative.append
            if circular:
                for c in active:
                    total += c[1] * exp(kap * cos(xi - c[0]) - kap)
                    edge_append(total)
                for u in aux_locs:
                    total += aux_w * exp(kap * cos(xi - u) - kap)
                    edge_append(total)
            else:
                for c in active:
                    d = xi - c[0]
                    total += c[1] * exp(-d * d * inv2s2)
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
                rec = active[pick]
                rec[1] += 1
                rec[2] += sx0[i]
                rec[3] += sx1[i]
            else:
                rec = [aux_locs[pick - n_active], 1, sx0[i], sx1[i], 0]
                active.append(rec)
            assign[i] = rec

        # random-walk refresh of every occupied cluster location
        k_active = len(active)
        z = gen.normal(0.0, _LOCATION_STEP, k_active).tolist()
        accept_u = gen.random(k_active).tolist()
        proposals += k_active
        for rec, step, v in zip(active, z, accept_u):
            u = rec[0]
            up = u + step
            if circular:
                up = up % TWO_PI
            elif up < win_a or up > win_b:
                continue
            delta = refresh_delta(u, up, rec[2], rec[3], rec[1])
            if delta >= 0.0 or v < exp(delta):
                rec[0] = up
                accepts += 1

        if sweep == next_keep:
            next_keep += config.thin
            for r, rec in enumerate(active):
                rec[4] = r
                kept_locs.append(rec[0])
                kept_counts.append(rec[1])
            kept_assign.append([rec[4] for rec in assign])
            count_trace.append(k_active)

    return McmcResult(np.array(kept_assign, dtype=np.int64),
                      np.array(kept_locs), np.array(kept_counts, dtype=np.int64),
                      np.array(count_trace, dtype=np.int64),
                      accepts / proposals)


def base_predictive(prior: PriorSpec, kernel: KernelSpec,
                    grid: np.ndarray) -> np.ndarray:
    """integral of k(y, u) alpha(du) at the points of ``grid``, in closed form.

    On the circle the von Mises kernel integrates to one, so this is 1.  On
    an interval [a, b] it is the Gaussian mass inside the window,
    Phi((b - y) / sigma) - Phi((a - y) / sigma), taken through ``math.erf``.
    """
    window = prior.window
    if window.is_circle:
        return np.ones(grid.size)
    scale = kernel.sigma * math.sqrt(2.0)
    return np.array([0.5 * (math.erf((window.b - y) / scale)
                            - math.erf((window.a - y) / scale))
                     for y in grid.tolist()])


def posterior_lambda_bar(draws: McmcResult, prior: PriorSpec,
                         kernel: KernelSpec,
                         grid: Optional[np.ndarray] = None) -> GridDensity:
    """Posterior-mean normalized intensity on a grid.

    Each draw contributes (base-measure predictive + sum_c n_c k(y, u_c))
    normalized by |alpha| + N; the result averages the draws.  The prior
    state, one draw with no clusters, gives the prior predictive (the N = 0
    posterior).  On the circle the cluster term comes from the kernel's
    Fourier series, whose error the positive base term keeps small relative
    to the result.
    """
    window = prior.window
    if grid is None:
        grid = window.grid(1024)
    n_obs = draws.assignments.shape[1]
    mixture = mixture_series if kernel.kind == "von_mises" else mixture_density
    values = mixture(kernel, draws.locations, draws.counts, grid)
    values = ((values / len(draws) + base_predictive(prior, kernel, grid))
              / (prior.total_mass_alpha + n_obs))
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
    # the weight means check s and gamma, so bad input fails before the chain
    w_means = [posterior_weight_mean(prior.with_gamma(gamma), pattern.count, s)
               for gamma in gammas]
    result = run_mcmc(pattern, prior, kernel, config, rng)
    lam_bar = posterior_lambda_bar(result, prior, kernel, grid)
    return [PosteriorSummary(gamma, w_mean, lam_bar, lam_bar.scaled(w_mean),
                             dict(result.diagnostics))
            for gamma, w_mean in zip(gammas, w_means)]
