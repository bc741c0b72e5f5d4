"""Nonparametric Bayes for nonhomogeneous Poisson processes.

Kernel-mixture intensity models under a family of (possibly improper)
shrinkage priors: exact simulation, posterior inference via clustering MCMC,
predictive densities, and a risk-verification harness for the domination
and integral-representation properties of the estimators.
"""

from .core import (GridDensity, IntensityModel, ModelError, PointPattern,
                   PriorSpec, ValidationReport, Window, quadrature,
                   quadrature_checked, validate)
from .kernels import (KernelSpec, bessel_i0, eval_kernel, mixture_density,
                      mixture_intensity)
from .posterior import (McmcConfig, McmcResult, PosteriorSummary,
                        estimate_intensity_multi, posterior_lambda_bar,
                        posterior_weight_mean, run_mcmc)
from .predict import (PredictiveDensity, build_predictive, nb_log_pmf,
                      nb_total_mass, predictive_count_params,
                      predictive_point_logdensity)
from .risk import (IntegralRepresentationCheck, RiskEntry, RiskReport,
                   domination_study, estimation_risk_mc,
                   integral_representation_check, kl_intensity,
                   poisson_derivative_identity, poisson_log_shift_bound,
                   poisson_pmf_series, predictive_risk_mc,
                   weight_risk_difference_exact)
from .simulate import (RngStream, derive_seed, log_pattern_density, sample_base,
                       sample_crp, sample_nhpp)

__version__ = "0.1.0"

__all__ = [
    "GridDensity", "IntegralRepresentationCheck",
    "IntensityModel", "KernelSpec", "McmcConfig", "McmcResult", "ModelError",
    "PointPattern", "PosteriorSummary", "PredictiveDensity", "PriorSpec",
    "RiskEntry", "RiskReport", "RngStream", "ValidationReport", "Window",
    "bessel_i0", "build_predictive", "derive_seed", "domination_study",
    "estimate_intensity_multi", "estimation_risk_mc", "eval_kernel",
    "integral_representation_check", "kl_intensity", "log_pattern_density",
    "mixture_density", "mixture_intensity", "nb_log_pmf", "nb_total_mass",
    "poisson_derivative_identity", "poisson_log_shift_bound",
    "poisson_pmf_series", "posterior_lambda_bar", "posterior_weight_mean",
    "predictive_count_params", "predictive_point_logdensity",
    "predictive_risk_mc", "quadrature", "quadrature_checked", "run_mcmc",
    "sample_base", "sample_crp", "sample_nhpp", "validate",
    "weight_risk_difference_exact",
]
