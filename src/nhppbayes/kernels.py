"""Kernel functions with exact normalization.

Two kernels are provided: the von Mises kernel on the circle,

    k(y, u) = exp(kappa * cos(y - u)) / (2 * pi * I0(kappa)),

and the Gaussian kernel on the real line,

    k(y, u) = exp(-(y - u)^2 / (2 sigma^2)) / sqrt(2 pi sigma^2).

The von Mises normalizer is kept in log form, kappa + log(2 pi i0e(kappa)),
with scipy's exponentially scaled Bessel function, so it stays finite for
any concentration.

A von Mises mixture also has a Fourier series (Abramowitz & Stegun 9.6.34),

    sum_j m_j k(y, u_j) = (W + 2 sum_n rho_n (C_n cos ny + S_n sin ny)) / 2 pi,

with W = sum_j m_j, rho_n = I_n(kappa) / I0(kappa) and the trig moments
C_n, S_n = sum_j m_j (cos n u_j, sin n u_j).  Each spec keeps the rho_n down
to 1e-17 (about 25 terms at kappa = 5, 250 at kappa = 800), and
``mixture_series`` evaluates the truncated series on any set of points in
(atoms + points) x terms work instead of atoms x points.  Its absolute error
is about 1e-16 W, so a bare series can dip below zero in the tails once
kappa is large; the posterior-mean shape uses it because its positive base
term bounds the relative error, while ``mixture_density`` (and so every
``mixture_intensity``, which the divergences need strictly positive) keeps
the direct sum.  Gaussian mixtures are always summed directly.

The Gaussian kernel is a density on all of R; on a bounded interval window
it is used without truncation renormalization, so a small amount of mass can
leak outside the window when atoms sit near the boundary.  Model validation
flags leakage beyond the integration tolerance, the simulator drops the points
that land outside, and the base-measure term of the posterior
(``posterior.base_predictive``) integrates the kernel over the window only.

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
_TABLE_NODES = 2048  # table cells of a non-uniform-base posterior draw
_SERIES_TOL = 1e-17  # smallest Bessel ratio I_n / I0 the series keeps
_CHUNK = 4_000_000  # elements of one (points x atoms) or (terms x atoms) block


def bessel_i0(kappa: float) -> float:
    """Modified Bessel function of the first kind, order zero (scipy's i0)."""
    if kappa < 0:
        raise ModelError("bessel_i0 requires kappa >= 0")
    return float(special.i0(kappa))


def _bessel_ratios(kappa: float, i0e: float) -> np.ndarray:
    """rho_n = I_n(kappa) / I0(kappa) for n = 1, 2, ... while >= 1e-17.

    The ratios fall with n, so the kept terms are a prefix.
    """
    n = 32
    while special.ive(n, kappa) >= _SERIES_TOL * i0e:
        n *= 2
    rho = special.ive(np.arange(1, n), kappa) / i0e
    rho = rho[rho >= _SERIES_TOL]
    rho.flags.writeable = False
    return rho


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
            i0e = float(special.i0e(self.kappa))
            object.__setattr__(self, "_log_norm",
                               self.kappa + math.log(TWO_PI * i0e))
            object.__setattr__(self, "_rho", _bessel_ratios(self.kappa, i0e))
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
    # in place: on the posterior-mean grids temporaries cost more than math
    out = np.asarray(np.subtract(y, u, dtype=float))
    if spec.kind == "von_mises":
        np.cos(out, out=out)
        out *= spec.kappa
    else:
        out /= spec.sigma
        out *= out
        out *= -0.5
    out -= spec.log_norm
    np.exp(out, out=out)
    return out if out.ndim else out[()]


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
    step = max(1, _CHUNK // max(flat.size, 1))
    for lo in range(0, locs.size, step):
        hi = lo + step
        out += eval_kernel(spec, flat[:, None], locs[None, lo:hi]) @ wts[lo:hi]
    return out.reshape(y.shape) if y.shape else float(out[0])


def mixture_series(spec: KernelSpec, locations, weights, y) -> np.ndarray:
    """sum_j m_j k(y, u_j) at the 1-D points y, for the von Mises kernel,
    from its truncated Fourier series.

    Accurate to about 1e-16 * sum(m) in absolute terms, so not positive
    everywhere (see the module notes).  The powers e^{inx} come from a
    running product, not from cos/sin of n x; both the atom and the point
    axis are chunked so no block exceeds the direct path's.
    """
    locs = np.asarray(locations, dtype=float)
    wts = np.asarray(weights, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = spec._rho
    step = max(1, _CHUNK // max(2 * rho.size, 1))  # complex: two floats each
    moments = np.zeros(rho.size, dtype=complex)
    for lo in range(0, locs.size, step):
        hi = lo + step
        moments += _trig_powers(locs[lo:hi], rho.size) @ wts[lo:hi]
    coef = 2.0 * rho * moments.conj()
    out = np.full(y.size, float(wts.sum()))
    for lo in range(0, y.size, step):
        hi = lo + step
        out[lo:hi] += (coef @ _trig_powers(y[lo:hi], rho.size)).real
    out /= TWO_PI
    return out


def _trig_powers(x: np.ndarray, terms: int) -> np.ndarray:
    """e^{inx} for n = 1 .. terms, one row per n."""
    return np.cumprod(np.broadcast_to(np.exp(1j * x), (terms, x.size)), axis=0)


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
                            size: int) -> np.ndarray:
    """``size`` draws of u from the density proportional to k(x, u) alpha(u).

    With a uniform base this is the kernel centered at x, truncated to the
    window for the Gaussian (an exact inverse-normal-CDF draw between the
    window edges); otherwise a tabulated inverse-CDF draw from one table on
    the window.  The Gaussian and tabulated paths take one uniform per draw.
    """
    window = spec.window
    if not prior.uniform_base:
        table = cdf_table(window, lambda u: eval_kernel(spec, x, u)
                          * np.asarray(prior.base_density(u)), _TABLE_NODES)
        return invert_cdf(table, gen.random(size))
    if spec.kind == "von_mises":
        return np.mod(gen.vonmises(x, spec.kappa, size), TWO_PI)
    lo, hi = special.ndtr((np.array([window.a, window.b]) - x) / spec.sigma)
    u = x + spec.sigma * special.ndtri(lo + gen.random(size) * (hi - lo))
    return np.clip(u, window.a, window.b)
