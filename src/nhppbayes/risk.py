"""Kullback-Leibler loss and risk machinery.

Three layers:

* exact computations: the divergence between intensities (quadrature),
  and the weight-risk difference between two shrinkage exponents (a
  truncated Poisson series, certified by a Chernoff tail bound);
* identity checks: the Poisson derivative identity (finite differences vs
  the Stein-type right-hand side) and the Poisson log-shift inequality that
  drives the domination result;
* Monte Carlo harnesses: estimation risk, predictive risk, the consistency
  check that the predictive risk equals the exposure-integral of estimation
  risks, and the domination table.

Risk differencing across shrinkage exponents uses shared randomness: both
priors see identical patterns and identical chain draws per replication, so
the shape noise cancels exactly and the difference reduces to the weight
term alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import IntensityModel, ModelError, PriorSpec, write_csv
from .kernels import KernelSpec
from .posterior import (McmcConfig, posterior_lambda_bar,
                        posterior_weight_mean, run_mcmc)
from .predict import (nb_log_pmf, predictive_count_params,
                      predictive_point_logdensity)
from .simulate import RngStream, derive_seed, log_pattern_density, sample_nhpp

POISSON_TAIL = 1e-12
# the identity checks' finer tail, and the finite-difference step in tau
_IDENTITY_TAIL = 1e-14
_TAU_STEP = 1e-4
# most terms a Poisson series may take: theta = 1e6 needs about 1.2e6
_POISSON_TERMS = 2_000_000


# ---------------------------------------------------------------------------
# Divergence between intensities
# ---------------------------------------------------------------------------

def _kl_from_values(true_vals, est_vals, quad_weights, t: float) -> float:
    if np.any(est_vals <= 0):
        raise ModelError("estimated intensity must be strictly positive "
                         "(divergence is infinite at zeros)")
    if np.any(true_vals <= 0):
        raise ModelError("true intensity must be strictly positive")
    integrand = est_vals - true_vals + true_vals * np.log(true_vals / est_vals)
    loss = t * float(np.dot(quad_weights, integrand))
    if not math.isfinite(loss):
        raise ModelError(f"the divergence at t = {t!r} is not finite: {loss}")
    return loss


def kl_intensity(true_model: IntensityModel, est_model: IntensityModel,
                 t: float) -> float:
    """Divergence t * integral(lambda' - lambda + lambda log(lambda/lambda'))."""
    if true_model.window != est_model.window:
        raise ModelError("models must share a window")
    nodes, weights = true_model.window.quad_nodes()
    return _kl_from_values(true_model(nodes), est_model(nodes), weights, t)


# ---------------------------------------------------------------------------
# Poisson series utilities
# ---------------------------------------------------------------------------

def poisson_pmf_series(theta: float, tail: float = POISSON_TAIL):
    """Support and pmf of Poisson(theta), truncated where the Chernoff
    upper-tail bound exp(-theta) (e theta / n)^n drops below ``tail``.

    A truncation point past ``_POISSON_TERMS`` raises ``ModelError`` before
    anything is allocated.
    """
    if not 0 <= theta < math.inf:
        raise ModelError(f"Poisson mean must be finite and nonnegative, "
                         f"got {theta}")
    if theta == 0.0:
        return np.zeros(1, dtype=np.int64), np.ones(1)
    n = int(theta) + 1
    while n <= _POISSON_TERMS and (-theta + n + n * math.log(theta / n)
                                   > math.log(tail)):
        n = int(n * 1.2) + 5
    if n > _POISSON_TERMS:
        raise ModelError(f"Poisson mean {theta:g} needs more than "
                         f"{_POISSON_TERMS} series terms")
    ns = np.arange(n + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    pmf = np.exp(ns * math.log(theta) - theta - log_fact)
    return ns, pmf


def weight_risk_difference_exact(abs_alpha: float, gamma: float,
                                 gamma_tilde: float, w: float,
                                 tau: float) -> float:
    """Exact estimation-risk difference between two shrinkage exponents.

    The shape estimates coincide, so the risk difference reduces to the
    weight terms:

        (gamma_tilde - gamma)/tau
          - w E[log(N + |alpha| - gamma)] + w E[log(N + |alpha| - gamma_tilde)]

    with N ~ Poisson(tau w), evaluated by truncated series.  Positive values
    mean the gamma_tilde prior wins at this (w, tau).  A value that
    overflows, as (gamma_tilde - gamma)/tau does at a subnormal tau, raises
    ``ModelError``.
    """
    if not (-math.inf < gamma < abs_alpha
            and -math.inf < gamma_tilde < abs_alpha):
        raise ModelError("shrinkage exponents must be finite and below the "
                         "base mass")
    if not (w > 0 and tau > 0):
        raise ModelError("w and tau must be positive")
    ns, pmf = poisson_pmf_series(tau * w)
    e_log = float(np.dot(pmf, np.log(ns + abs_alpha - gamma)))
    e_log_tilde = float(np.dot(pmf, np.log(ns + abs_alpha - gamma_tilde)))
    value = (gamma_tilde - gamma) / tau - w * e_log + w * e_log_tilde
    if not math.isfinite(value):
        raise ModelError(f"the weight-risk difference at w={w:g}, tau={tau:g} "
                         f"is not finite: {value}")
    return value


def poisson_log_shift_bound(theta: float, c: float):
    """Both sides of the Poisson log-shift inequality.

    lhs = theta E[log(X+1+c) - log(X+1)] with X ~ Poisson(theta);
    rhs = c - c exp(-theta).  The contract is lhs <= rhs, strictly for
    theta > 0.
    """
    if not c > 0:
        raise ModelError("c must be positive")
    if theta < 0:
        raise ModelError("theta must be nonnegative")
    ns, pmf = poisson_pmf_series(theta, _IDENTITY_TAIL)
    lhs = theta * float(np.dot(pmf, np.log(ns + 1.0 + c) - np.log(ns + 1.0)))
    rhs = c - c * math.exp(-theta)
    return lhs, rhs


def poisson_derivative_identity(w: float, tau: float, h: Callable):
    """Derivative of E[h(N_tau)] in tau, two ways.

    Returns (numeric, identity): a central finite difference of the series
    expectation with step ``_TAU_STEP``, and the identity value
    w E[h(N+1) - h(N)].  ``h`` maps an integer array to values and must have
    a summable Poisson expectation.
    """
    step = _TAU_STEP
    if not (w > 0 and tau > step):
        raise ModelError(f"need w > 0 and tau > {step}")

    def expectation(at):
        ns, pmf = poisson_pmf_series(at * w, _IDENTITY_TAIL)
        return float(np.dot(pmf, np.asarray(h(ns), dtype=float)))

    numeric = (expectation(tau + step) - expectation(tau - step)) / (2 * step)
    ns, pmf = poisson_pmf_series(tau * w, _IDENTITY_TAIL)
    identity = w * float(np.dot(
        pmf, np.asarray(h(ns + 1), dtype=float) - np.asarray(h(ns), dtype=float)))
    return numeric, identity


# ---------------------------------------------------------------------------
# Monte Carlo harnesses
# ---------------------------------------------------------------------------

@dataclass
class RiskEntry:
    label: str
    estimate: float
    std_error: float
    replications: int
    losses: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)


@dataclass
class RiskReport:
    entries: list
    notes: list = field(default_factory=list)

    def entry(self, label: str) -> RiskEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def to_json_obj(self) -> dict:
        return {
            "entries": [{
                "label": e.label,
                "estimate": e.estimate,
                "std_error": e.std_error,
                "replications": e.replications,
                **({"meta": e.meta} if e.meta else {}),
            } for e in self.entries],
            "notes": list(self.notes),
        }

    def to_csv(self, path) -> None:
        write_csv(path, ["label", "estimate", "std_error", "replications"],
                  ([e.label, repr(e.estimate), repr(e.std_error),
                    e.replications] for e in self.entries))


def _entry_from_losses(label: str, losses: np.ndarray, **meta) -> RiskEntry:
    n = losses.size
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        se = float(np.std(losses, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        mean = float(np.mean(losses))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise ModelError(f"{label}: the risk estimate {mean} +- {se} is not "
                         f"finite")
    return RiskEntry(label, mean, se, n, losses, meta)


def replication_stream(base: RngStream, rep: int) -> RngStream:
    """Stream for one replication: stream id = replication index."""
    return RngStream(base.seed, base.stream_id + rep)


def estimation_risk_mc(true_model: IntensityModel, prior: PriorSpec,
                       kernel: KernelSpec, s: float, replications: int,
                       config: McmcConfig, rng: RngStream,
                       gammas: Optional[Sequence[float]] = None,
                       t: float = 1.0, grid_size: int = 1024) -> RiskReport:
    """Monte Carlo risk of the posterior-mean intensity estimator.

    Per replication: sample a pattern with exposure s, estimate the
    intensity, and evaluate the divergence from the truth per unit
    prediction exposure.  When several gammas are given they share the
    pattern and the chain draws, and paired difference entries are added.
    """
    if replications < 1:
        raise ModelError("need at least one replication")
    if not 0 < t < math.inf:
        raise ModelError(f"t must be finite and positive, got {t}")
    gammas = list(gammas) if gammas is not None else [prior.gamma]
    window = true_model.window
    nodes, weights = window.quad_nodes(grid_size)
    true_vals = true_model(nodes)
    losses = np.empty((len(gammas), replications))
    for rep in range(replications):
        gen = replication_stream(rng, rep).generator()
        pattern = sample_nhpp(true_model, s, gen)
        draws = run_mcmc(pattern, prior, kernel, config, gen)
        lam_bar = posterior_lambda_bar(draws, prior, kernel, nodes)
        for gi, gamma in enumerate(gammas):
            w_hat = posterior_weight_mean(prior.with_gamma(gamma),
                                          pattern.count, s)
            losses[gi, rep] = _kl_from_values(true_vals, w_hat * lam_bar.values,
                                              weights, t)
    entries = [_entry_from_losses(f"gamma={g:g}", losses[gi], gamma=g, s=s, t=t)
               for gi, g in enumerate(gammas)]
    for gi in range(len(gammas)):
        for gj in range(gi + 1, len(gammas)):
            diff = losses[gi] - losses[gj]
            entries.append(_entry_from_losses(
                f"diff:gamma={gammas[gi]:g}-gamma={gammas[gj]:g}", diff))
    return RiskReport(entries)


def predictive_risk_mc(true_model: IntensityModel, prior: PriorSpec,
                       kernel: KernelSpec, s: float, t: float,
                       replications: int, config: McmcConfig, rng: RngStream,
                       aug_replicates: int = 8,
                       keep_losses: bool = True) -> RiskReport:
    """Monte Carlo Kullback-Leibler risk of the Bayesian predictive density.

    Per replication: observe a pattern with exposure s and a future pattern
    with exposure t, both from the true intensity, and accumulate
    log p_true(future) minus the predictive log score.  The losses are
    always kept; ``keep_losses`` has no effect and is accepted only because
    ``bench/workloads.py`` still passes it.
    """
    if replications < 1:
        raise ModelError("need at least one replication")
    losses = np.empty(replications)
    for rep in range(replications):
        gen = replication_stream(rng, rep).generator()
        observed = sample_nhpp(true_model, s, gen)
        future = sample_nhpp(true_model, t, gen)
        draws = run_mcmc(observed, prior, kernel, config, gen)
        log_true = log_pattern_density(true_model, future, t)
        r, p = predictive_count_params(prior, observed.count, s, t)
        score = nb_log_pmf(r, p, future.count) + predictive_point_logdensity(
            draws, prior, kernel, future.points, observed, gen, aug_replicates)
        losses[rep] = log_true - score
    entry = _entry_from_losses(f"predictive:gamma={prior.gamma:g}", losses,
                               s=s, t=t)
    return RiskReport([entry])


@dataclass
class IntegralRepresentationCheck:
    """Predictive risk vs the exposure-integral of estimation risks."""

    predictive: RiskEntry
    integral: float
    integral_se: float
    node_entries: list
    tau_grid: np.ndarray
    gap: float
    gate: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.gate


def integral_representation_check(true_model: IntensityModel, prior: PriorSpec,
                                  kernel: KernelSpec, s: float, t: float,
                                  replications: int, config: McmcConfig,
                                  rng: RngStream, nodes: int = 8,
                                  grid_size: int = 1024
                                  ) -> IntegralRepresentationCheck:
    """Check that predictive risk equals the integral of estimation risks.

    The estimation risk is evaluated at Gauss-Legendre nodes over the
    exposure range [s, s+t] (each node observes a pattern with exposure tau
    and estimates with that same exposure), and the quadrature combination
    is compared against the directly simulated predictive risk.  The gate is
    three times the sum of the two standard errors (0 with one replication).
    """
    if replications < 2 or nodes < 1:
        raise ModelError(f"need replications >= 2, nodes >= 1: {replications}, {nodes}")
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    taus = s + (xg + 1.0) * (t / 2.0)
    gl_weights = wg * (t / 2.0)
    node_entries = []
    for i, tau in enumerate(taus):
        node_rng = RngStream(derive_seed(rng.seed, rng.stream_id, 101, i), 0)
        report = estimation_risk_mc(true_model, prior, kernel, float(tau),
                                    replications, config, node_rng,
                                    t=1.0, grid_size=grid_size)
        entry = report.entries[0]
        entry.label = f"estimation:tau={tau:.6f}"
        node_entries.append(entry)
    integral = float(np.dot(gl_weights, [e.estimate for e in node_entries]))
    integral_se = float(math.sqrt(np.sum(
        (gl_weights * np.asarray([e.std_error for e in node_entries])) ** 2)))
    pred_rng = RngStream(derive_seed(rng.seed, rng.stream_id, 202), 0)
    pred_report = predictive_risk_mc(true_model, prior, kernel, s, t,
                                     replications, config, pred_rng)
    pred = pred_report.entries[0]
    gap = abs(pred.estimate - integral)
    gate = 3.0 * (pred.std_error + integral_se)
    return IntegralRepresentationCheck(pred, integral, integral_se,
                                       node_entries, taus, gap, gate)


def domination_study(abs_alpha: float, gamma: float,
                     w_grid: Sequence[float], tau: float) -> RiskReport:
    """Tabulate exact weight-risk differences over a grid of true weights.

    The gamma prior is set against gamma_tilde = |alpha| - 1, which needs
    |alpha| - gamma > 1; a violation is reported in the notes rather than
    raised.  A strictly positive table certifies domination of the gamma
    prior by the gamma_tilde prior at the tabulated weights, so an empty
    ``w_grid``, which would certify nothing, is an error.
    """
    if len(w_grid) == 0:
        raise ModelError("domination study needs at least one weight in w_grid")
    gamma_tilde = abs_alpha - 1.0
    entries = []
    notes = []
    if abs_alpha - gamma > 1:
        for w in w_grid:
            value = weight_risk_difference_exact(abs_alpha, gamma, gamma_tilde,
                                                 float(w), tau)
            entries.append(RiskEntry(
                f"gamma={gamma:g}|gamma_tilde={gamma_tilde:g}|w={w:g}",
                value, 0.0, 0,
                meta={"gamma": gamma, "gamma_tilde": gamma_tilde,
                      "w": float(w), "tau": tau}))
    else:
        notes.append(f"gamma={gamma:g} violates |alpha| - gamma > 1 "
                     f"(|alpha|={abs_alpha:g})")
    if abs_alpha <= 1:
        notes.append("|alpha| <= 1 is a boundary case: no gamma satisfies "
                     "|alpha| - gamma > 1, so the study is empty")
    return RiskReport(entries, notes)
