"""Kernel functions with exact normalization.

Two kernels are provided: the von Mises kernel on the circle,

    k(y, u) = exp(kappa * cos(y - u)) / (2 * pi * I0(kappa)),

and the Gaussian kernel on the real line,

    k(y, u) = exp(-(y - u)^2 / (2 sigma^2)) / sqrt(2 pi sigma^2).

The von Mises normalizer is kept in log form, kappa + log(2 pi i0e(kappa)),
with scipy's exponentially scaled Bessel function, so it stays finite for
any concentration.

The Gaussian kernel is a density on all of R; on a bounded interval window
it is used without truncation renormalization, so a small amount of mass can
leak outside the window when atoms sit near the boundary.  Model validation
flags leakage beyond the integration tolerance, and the base-measure term of
the posterior (``posterior.base_predictive``) integrates the kernel over the
window only.

Kernel parameters are fixed known constants; there is no hyperprior layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .core import (TWO_PI, IntensityModel, ModelError, Window, cdf_table,
                   invert_cdf)

_SQRT_TWO_PI = math.sqrt(TWO_PI)


def bessel_i0(kappa: float) -> float:
    """Modified Bessel function of the first kind, order zero (scipy's i0)."""
    if kappa < 0:
        raise ModelError("bessel_i0 requires kappa >= 0")
    return float(special.i0(kappa))


@dataclass(frozen=True)
class KernelSpec:
    """A named kernel with its fixed parameter and domain.

    The von Mises kernel requires a circle window; the Gaussian kernel
    requires an interval window (it is a density on R, see module notes).
    """

    kind: str
    kappa: Optional[float] = None
    sigma: Optional[float] = None
    window: Window = Window.circle()

    def __post_init__(self):
        if self.kind == "von_mises":
            if not self.window.is_circle:
                raise ModelError("von Mises kernel requires a circle window")
            if self.kappa is None or self.kappa < 0:
                raise ModelError("von Mises kernel needs kappa >= 0")
            # log(2 pi I0(kappa)) through the scaled i0e, finite for any kappa
            object.__setattr__(self, "_log_norm", self.kappa + math.log(
                TWO_PI * float(special.i0e(self.kappa))))
        elif self.kind == "gaussian":
            if self.window.is_circle:
                raise ModelError("Gaussian kernel requires an interval window")
            if self.sigma is None or not self.sigma > 0:
                raise ModelError("Gaussian kernel needs sigma > 0")
            object.__setattr__(self, "_log_norm", math.log(_SQRT_TWO_PI * self.sigma))
        else:
            raise ModelError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def von_mises(cls, kappa: float, window: Optional[Window] = None) -> "KernelSpec":
        return cls("von_mises", kappa=float(kappa), window=window or Window.circle())

    @classmethod
    def gaussian(cls, sigma: float, window: Window) -> "KernelSpec":
        return cls("gaussian", sigma=float(sigma), window=window)

    @property
    def log_norm(self) -> float:
        """Log of the kernel normalizing constant."""
        return self._log_norm

    def to_json(self) -> dict:
        if self.kind == "von_mises":
            return {"kind": "von_mises", "kappa": self.kappa}
        return {"kind": "gaussian", "sigma": self.sigma,
                "window": self.window.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelSpec":
        if obj["kind"] == "von_mises":
            return cls.von_mises(obj["kappa"])
        return cls.gaussian(obj["sigma"], Window.from_json(obj["window"]))


def eval_kernel(spec: KernelSpec, y, u):
    """Kernel density k(y, u); symmetric in its arguments, broadcasting."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if spec.kind == "von_mises":
        return np.exp(spec.kappa * np.cos(y - u) - spec.log_norm)
    d = y - u
    return np.exp(-0.5 * (d / spec.sigma) ** 2 - spec.log_norm)


def mixture_density(spec: KernelSpec, locations, weights, y):
    """Evaluate sum_j m_j k(y, u_j) at the locations y.

    The atom axis is chunked so grids with many atoms stay within memory.
    """
    locs = np.atleast_1d(np.asarray(locations, dtype=float))
    wts = np.atleast_1d(np.asarray(weights, dtype=float))
    if locs.size == 0:
        raise ModelError("mixture needs at least one atom")
    if np.any(wts <= 0):
        raise ModelError("atom weights must be positive")
    y = np.asarray(y, dtype=float)
    flat = np.atleast_1d(y).ravel()
    out = np.zeros(flat.size)
    step = max(1, 4_000_000 // max(flat.size, 1))
    for lo in range(0, locs.size, step):
        hi = lo + step
        out += eval_kernel(spec, flat[:, None], locs[None, lo:hi]) @ wts[lo:hi]
    return out.reshape(y.shape) if y.shape else float(out[0])


def mixture_intensity(spec: KernelSpec, locations, weights) -> IntensityModel:
    """Kernel-mixture intensity; total mass is the sum of atom weights."""
    locs = np.atleast_1d(np.asarray(locations, dtype=float)).copy()
    wts = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
    if locs.shape != wts.shape:
        raise ModelError("atom locations and weights must align")
    if np.any(wts <= 0):
        raise ModelError("atom weights must be positive")
    locs.flags.writeable = False
    wts.flags.writeable = False
    return IntensityModel(
        spec.window, "kernel_mixture", float(np.sum(wts)),
        lambda y, _s=spec, _l=locs, _w=wts: mixture_density(_s, _l, _w, y),
        kernel=spec, atom_locations=locs, atom_weights=wts)


# ---------------------------------------------------------------------------
# Cluster sufficient statistics.
#
# Both kernels admit two-number sufficient statistics for the product of
# kernel values over a cluster's members, which keeps the samplers cheap:
#   von Mises: (sum cos x_i, sum sin x_i), since
#       sum_i cos(x_i - u) = C cos u + S sin u;
#   Gaussian:  (sum x_i, sum x_i^2).
# ---------------------------------------------------------------------------

def member_stats(spec: KernelSpec, x: float):
    if spec.kind == "von_mises":
        return math.cos(x), math.sin(x)
    return x, x * x


def sample_kernel_posterior(spec: KernelSpec, prior, x: float, gen,
                            table_nodes: int = 2048) -> float:
    """Draw a location u from the density proportional to k(x, u) alpha(u).

    With a uniform base this is the kernel centered at x, truncated to the
    window for the Gaussian (an exact inverse-normal-CDF draw between the
    window edges); otherwise a tabulated inverse-CDF draw on the window.
    Each path consumes one draw from the generator.
    """
    window = spec.window
    if not prior.uniform_base:
        table = cdf_table(window, lambda u: eval_kernel(spec, x, u)
                          * np.asarray(prior.base_density(u)), table_nodes)
        return float(invert_cdf(table, gen.random()))
    if spec.kind == "von_mises":
        return float(np.mod(gen.vonmises(x, spec.kappa), TWO_PI))
    lo, hi = special.ndtr((np.array([window.a, window.b]) - x) / spec.sigma)
    u = x + spec.sigma * float(special.ndtri(lo + gen.random() * (hi - lo)))
    return min(max(u, window.a), window.b)
