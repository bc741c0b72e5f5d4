"""Posterior inference under the shrinkage prior family.

The posterior factorizes over the total weight and the normalized shape.
The weight posterior is closed form: its mean is (|alpha| - gamma + N)
divided by (s + 1/beta), with the improper limit dropping the 1/beta term.
The shape posterior is a Dirichlet-process mixture handled by MCMC over the
latent clustering of the observations, using auxiliary-component Gibbs
reassignment (a handful of fresh candidate locations per step, uniform on
the window like the base measure) plus a refresh of each location every
sweep: random-walk Metropolis on the circle, exact Gibbs on an interval.

``run_mcmc`` keeps its draws as one flat table, ``McmcResult``: a draws x N
array of cluster ranks, the locations and member counts of every kept atom
in draw order, and the per-draw cluster counts that delimit the atoms.  Its
consumers (the shape estimate, the predictive point layer) read all atoms at
once.  An empty pattern needs no chain: its posterior shape is the prior, so
``run_mcmc`` returns one draw with no clusters, which every consumer reads
as it reads any draw; the estimate is then the prior predictive.

The chain draws its randomness in blocks whose shape depends on N and the
config alone, never on the chain's path (see ``run_mcmc``), so the
generator's state after a chain is a function of its stream, N and the
config.  Each block's auxiliary weights come from one numpy pass, each
cluster record carries its location's trig table, and the records' stat
sums are rebuilt once per sweep, so little Python work is per observation.

The shape estimate never depends on beta, gamma, or s, so one chain serves
every member of the prior family at once; estimators for different gamma
differ only by their closed-form weight factor.  So the shape layer takes
no prior: |alpha| is the length of the kernel's window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .core import TWO_PI, GridDensity, ModelError, PointPattern, PriorSpec
from .kernels import (KernelSpec, check_window, eval_peak_ratio, member_stats,
                      mixture_density, mixture_series, truncated_normal,
                      window_mass)
from .simulate import RngLike, as_generator


# Chain tuning: fresh candidate locations per reassignment step (Neal's
# Algorithm 8 auxiliary components) and the circle's random-walk scale.
_AUX_COMPONENTS = 3
_LOCATION_STEP = 0.2
# target doubles per block of sweeps' draws (uniforms plus steps); a block
# holds at least one sweep
_BLOCK_DRAWS = 4096


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


def run_mcmc(pattern: PointPattern, kernel: KernelSpec,
             config: McmcConfig = McmcConfig(), rng: RngLike = None) -> McmcResult:
    """Sample the latent clustering of the observations.

    The chain targets the distribution proportional to
    prod_l k(x_l, u_{c(l)}) times the Chinese-restaurant prior on the
    partition and uniform base draws for the cluster locations.  The
    empty-pattern posterior equals the prior: that case returns one draw
    with no clusters and takes nothing from the generator.

    Draw contract: the sweeps run in blocks of
    ``rows = max(1, _BLOCK_DRAWS // (N (3 + m)))`` (m = ``_AUX_COMPONENTS``),
    the last block cut to the sweeps left.  Each block makes two generator
    calls, ``random`` for (rows, N (2 + m)) uniforms and ``standard_normal``
    for (rows, N) normals scaled by ``_LOCATION_STEP``, which take the same
    draws as ``normal(0, _LOCATION_STEP, (rows, N))``.  Row j of each feeds one
    sweep: N reassignment uniforms, N m auxiliary locations (scaled to the
    window) and N refresh uniforms, and N random-walk steps; the refresh of
    the K <= N clusters reads the first K uniforms, and on the circle the
    first K steps.  So the generator's state after the chain depends on its
    stream, N and the config, not on the chain's path.

    Sweep: each observation leaves its cluster and picks among the occupied
    clusters and m auxiliary candidates (Neal 2000, Algorithm 8), whose
    weights for the whole block come from one ``eval_peak_ratio`` call; a
    singleton it empties is candidate 0 and keeps its record if picked.  A
    cluster record is [location, members, stat sum 0, stat sum 1, rank],
    plus A, B = kappa (cos u, sin u) on the circle, where an observation's
    member stats (a, b) weigh exp(a A + b B - kappa) with no trig call.  The
    stat sums are rebuilt from the assignment for each location refresh.
    """
    check_window(kernel, pattern.window, "pattern")
    n_obs = pattern.count
    if n_obs == 0:
        return McmcResult(np.zeros((1, 0), dtype=np.int64), np.zeros(0),
                          np.zeros(0, dtype=np.int64),
                          np.zeros(1, dtype=np.int64), 1.0)
    if rng is None:
        raise ModelError("run_mcmc needs an RngStream or Generator")
    gen = as_generator(rng)
    xs = pattern.points.tolist()
    window = kernel.window
    m_aux = _AUX_COMPONENTS
    aux_w = window.length / m_aux
    circular = window.is_circle

    # scalar fast paths: the clusters' weights are inlined in the sweep loop
    # below, scaled to the kernel's peak like ``eval_peak_ratio``'s, since
    # normalizing constants cancel in every categorical draw
    cos, sin, exp = math.cos, math.sin, math.exp
    if circular:
        kap = kernel.kappa
    else:
        inv2s2 = 0.5 / (kernel.sigma * kernel.sigma)
        draw = truncated_normal(kernel)

    # state: one record (see the docstring) per occupied cluster, in
    # ``active`` order; observation i sits in assign[i].  A record leaves
    # ``active`` when its last member does; list.remove can match no other
    # record, since only that one has 0 members.
    def record(u):  # a new singleton cluster at location u
        return [u, 1, 0.0, 0.0, 0] + ([kap * cos(u), kap * sin(u)]
                                      if circular else [])

    sx0, sx1 = member_stats(kernel, xs)
    # init: one singleton cluster per point
    assign = [record(x) for x in xs]
    active = list(assign)

    kept_assign = []
    kept_locs = []
    kept_counts = []
    count_trace = []
    accepts = 0
    proposals = 0
    total_sweeps = config.burn_in + config.samples * config.thin
    next_keep = config.burn_in + config.thin - 1

    # the draws come in blocks whose shape depends on N alone (see the
    # docstring).  In a row of ``uniforms``, columns [0, N) pick a cluster,
    # [N, N (1 + m)) become the auxiliary locations, m per observation, and
    # [N (1 + m), N (2 + m)) refresh a location.  Both buffers are made once
    # and refilled in place, and every auxiliary weight of a block is taken
    # in one pass; a row becomes a list only for its own sweep.
    x_aux = np.repeat(pattern.points, m_aux)
    aux_end = n_obs * (1 + m_aux)
    rows = max(1, _BLOCK_DRAWS // (n_obs * (3 + m_aux)))
    uniforms = np.empty((rows, n_obs * (2 + m_aux)))
    normals = np.empty((rows, n_obs))
    for start in range(0, total_sweeps, rows):
        n_rows = min(rows, total_sweeps - start)
        block = gen.random(out=uniforms[:n_rows])
        steps = gen.standard_normal(out=normals[:n_rows])
        steps *= _LOCATION_STEP
        aux = block[:, n_obs:aux_end]
        aux *= window.length
        aux += window.a
        aux_wts = (eval_peak_ratio(kernel, x_aux, aux) * aux_w).tolist()
        for sweep, row, z, wts in zip(range(start, start + n_rows), block,
                                      steps, aux_wts):
            row = row.tolist()
            z = z.tolist()
            for i in range(n_obs):
                rec = assign[i]
                rec[1] -= 1
                first = base = i * m_aux
                emptied = not rec[1]
                if emptied:
                    # the emptied singleton is auxiliary candidate 0: it
                    # moves behind the clusters at the auxiliary weight
                    active.remove(rec)
                    active.append(rec)
                    rec[1] = aux_w
                    first += 1
                total = 0.0
                cumulative = []
                edge_append = cumulative.append
                if circular:
                    a, b = sx0[i], sx1[i]
                    for c in active:
                        total += c[1] * exp(a * c[5] + b * c[6] - kap)
                        edge_append(total)
                else:
                    xi = xs[i]
                    for c in active:
                        d = xi - c[0]
                        total += c[1] * exp(-d * d * inv2s2)
                        edge_append(total)
                for w in wts[first:base + m_aux]:
                    total += w
                    edge_append(total)

                # the first edge above the draw; rounding can leave none,
                # and then the last auxiliary candidate is taken
                pick = bisect_right(cumulative, row[i] * total)
                n_active = len(active)
                if emptied:
                    if pick == n_active - 1:  # it keeps its record
                        rec[1] = 1
                        continue
                    active.pop()
                    n_active -= 1
                if pick < n_active:
                    rec = active[pick]
                    rec[1] += 1
                else:
                    rec = record(row[n_obs + base
                                     + min(pick - n_active, m_aux - 1)])
                    active.append(rec)
                assign[i] = rec

            # the stat sums, rebuilt from the assignment for the refresh
            for rec in active:
                rec[2] = rec[3] = 0.0
            for rec, s0, s1 in zip(assign, sx0, sx1):
                rec[2] += s0
                rec[3] += s1

            # refresh every occupied location; zip stops at the K records
            refresh_u = row[aux_end:]
            k_active = len(active)
            proposals += k_active
            if circular:
                for rec, step, v in zip(active, z, refresh_u):
                    up = (rec[0] + step) % TWO_PI
                    a, b = kap * cos(up), kap * sin(up)
                    delta = rec[2] * (a - rec[5]) + rec[3] * (b - rec[6])
                    if delta >= 0.0 or v < exp(delta):
                        rec[0], rec[5], rec[6] = up, a, b
                        accepts += 1
            else:
                for rec, v in zip(active, refresh_u):
                    rec[0], = draw(rec[2] / rec[1], rec[1], (v,))
                accepts += k_active

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


def posterior_lambda_bar(draws: McmcResult, kernel: KernelSpec,
                         grid: Optional[np.ndarray] = None) -> GridDensity:
    """Posterior-mean normalized intensity on a grid.

    Each draw contributes (base-measure predictive + sum_c n_c k(y, u_c))
    normalized by |alpha| + N; the result averages the draws.  The prior
    state, one draw with no clusters, gives the prior predictive (the N = 0
    posterior).  On the circle the cluster term comes from the kernel's
    Fourier series, whose error the positive base term keeps small relative
    to the result.
    """
    window = kernel.window
    if grid is None:
        grid = window.grid(1024)
    n_obs = draws.assignments.shape[1]
    mixture = mixture_series if window.is_circle else mixture_density
    values = mixture(kernel, draws.locations, draws.counts, grid)
    values = ((values / len(draws) + window_mass(kernel, grid))
              / (window.length + n_obs))
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
    check_window(kernel, prior.window, "prior")
    grid = prior.window.grid(grid_size)
    # the weight means check s and gamma, so bad input fails before the chain
    w_means = [posterior_weight_mean(prior.with_gamma(gamma), pattern.count, s)
               for gamma in gammas]
    result = run_mcmc(pattern, kernel, config, rng)
    lam_bar = posterior_lambda_bar(result, kernel, grid)
    return [PosteriorSummary(gamma, w_mean, lam_bar, lam_bar.scaled(w_mean),
                             dict(result.diagnostics))
            for gamma, w_mean in zip(gammas, w_means)]
