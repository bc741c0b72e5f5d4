"""Kernel functions with exact normalization.

Two kernels are provided: the von Mises kernel on the circle,

    k(y, u) = exp(kappa * cos(y - u)) / (2 * pi * I0(kappa)),

and the Gaussian kernel on the real line,

    k(y, u) = exp(-(y - u)^2 / (2 sigma^2)) / sqrt(2 pi sigma^2).

The von Mises normalizer is kept in log form, kappa + log(2 pi i0e(kappa)),
with the exponentially scaled i0e(kappa) = exp(-kappa) I0(kappa), so it stays
finite for any concentration.  The Bessel ratios rho_n = I_n(kappa) / I0(kappa)
come from the backward recurrence of Gautschi (1967, SIAM Rev. 9:24), and
i0e from them through the series below at y = u, so neither needs scipy.

A von Mises mixture also has a Fourier series (Abramowitz & Stegun 9.6.34),

    sum_j m_j k(y, u_j) = (W + 2 sum_n rho_n (C_n cos ny + S_n sin ny)) / 2 pi,

with W = sum_j m_j, rho_n = I_n(kappa) / I0(kappa) and the trig moments
C_n, S_n = sum_j m_j (cos n u_j, sin n u_j).  Each spec keeps the rho_n down
to 1e-17 (about 25 terms at kappa = 5, 250 at kappa = 800, and a kappa that
would keep more than ``_SERIES_TERMS`` is rejected from kappa alone), and
``mixture_series`` evaluates the truncated series on any set of points in
(atoms + points) x terms work and O(atoms + points) memory, one harmonic at
a time.  Its absolute error is about 1e-16 W, so a bare series can dip below
zero in the tails once kappa is large; the posterior-mean shape uses it as
its positive base term bounds the relative error, while ``mixture_density``
(and every ``mixture_intensity``, which divergences need strictly positive)
keeps the direct sum, in fixed-size blocks, as do all Gaussian mixtures.

Where fixed locations meet points one at a time, as in the predictive point
layer, ``kernel_table`` keeps A, B = kappa (cos u, sin u) and ``eval_table``
takes exp(A cos y + B sin y - log_norm), with no trig call per location.
Its rounding differs from ``eval_kernel``'s by about kappa * 4e-16 relative:
over 10^7 random (y, u) pairs the largest gaps were 6.7e-16, 3.8e-15,
4.3e-14 and 5.7e-13 at kappa = 0.5, 5, 50 and 800.

The Gaussian kernel is a density on all of R; on a bounded interval window
it is used without truncation renormalization, so a small amount of mass can
leak outside the window when atoms sit near the boundary.  Model validation
flags leakage beyond the integration tolerance, the simulator drops the points
that land outside, and the base-measure term of the posterior
(``posterior.base_predictive``) integrates the kernel over the window only, in
closed form.

Kernel parameters are fixed known constants; there is no hyperprior layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TWO_PI, IntensityModel, ModelError, Window

_SQRT_TWO_PI = math.sqrt(TWO_PI)
_SERIES_TOL = 1e-17  # smallest Bessel ratio I_n / I0 the series keeps
# most terms a von Mises spec may keep; about sqrt(2 kappa log(1 / tol)) =
# 8.85 sqrt(kappa) are kept, so kappa may reach about 1.3e8
_SERIES_TERMS = 100_000
# elements of one (points x atoms) block of the direct sum: its 512 KB stay in
# L2 (2 MB a core on the Xeon measured, where 2^15..2^17 ran fastest)
_BLOCK = 1 << 16


def bessel_i0(kappa: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Returns inf, without raising, where I0 overflows (kappa above 713.98).
    """
    if not kappa >= 0:
        raise ModelError("bessel_i0 requires kappa >= 0")
    if kappa > 1000.0:  # I0 is inf here; e^(kappa / 2) overflows past 1419
        return math.inf
    half = math.exp(0.5 * kappa)
    return _bessel_ratios(kappa)[1] * half * half


def _bessel_ratios(kappa: float) -> tuple:
    """(rho, i0e): rho_n = I_n(kappa) / I0(kappa) for n = 1, 2, ... while
    >= 1e-17, and i0e(kappa) = exp(-kappa) I0(kappa).

    I_n / I_{n-1} = kappa / (2n + kappa I_{n+1} / I_n) is run downwards from
    0 at n = top, doubling top until the kept prefix stops changing; rho is
    the running product of the ratios, which fall with n, so the kept terms
    are a prefix.  exp(kappa cos y) = I0 (1 + 2 sum_n rho_n cos ny) at y = 0
    gives i0e = 1 / (1 + 2 sum_n rho_n).
    """
    top, rho = 32, None
    while True:
        ratios, r = [], 0.0
        for n in range(top, 0, -1):
            r = kappa / (2 * n + kappa * r)
            ratios.append(r)
        kept = np.cumprod(ratios[::-1])
        kept = kept[kept >= _SERIES_TOL]
        if rho is not None and np.array_equal(kept, rho):
            break
        top, rho = 2 * top, kept
    rho.flags.writeable = False
    return rho, 1.0 / (1.0 + 2.0 * math.fsum(rho))


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
            if self.kappa is None or not 0 <= self.kappa < math.inf:
                raise ModelError("von Mises kernel needs finite kappa >= 0")
            if self.kappa == 0:  # -0.0 as +0.0, which gen.vonmises accepts
                object.__setattr__(self, "kappa", 0.0)
            if math.sqrt(2.0 * self.kappa * math.log(1.0 / _SERIES_TOL)) \
                    > _SERIES_TERMS:
                raise ModelError(f"von Mises kappa {self.kappa:g} needs more "
                                 f"than {_SERIES_TERMS} Bessel series terms")
            # log(2 pi I0(kappa)) through the scaled i0e, finite for any kappa
            rho, i0e = _bessel_ratios(self.kappa)
            object.__setattr__(self, "_log_norm",
                               self.kappa + math.log(TWO_PI * i0e))
            object.__setattr__(self, "_rho", rho)
        elif self.kind == "gaussian":
            if self.window.is_circle:
                raise ModelError("Gaussian kernel requires an interval window")
            if self.sigma is None or not 0 < self.sigma < math.inf:
                raise ModelError("Gaussian kernel needs finite sigma > 0")
            # the chain divides by sigma^2, and the kernel peaks at
            # 1 / (sqrt(2 pi) sigma); both must be normal floats
            peak = 1.0 / (_SQRT_TWO_PI * self.sigma)
            if not all(sys.float_info.min <= v < math.inf
                       for v in (self.sigma * self.sigma, peak)):
                raise ModelError(f"Gaussian sigma {self.sigma:g} is too small "
                                 f"or too large to evaluate")
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


def eval_kernel(spec: KernelSpec, y, u):
    """Kernel density k(y, u); symmetric in its arguments, broadcasting."""
    # in place: on the posterior-mean grids temporaries cost more than math
    out = np.asarray(np.subtract(y, u, dtype=float))
    if spec.kind == "von_mises":
        np.cos(out, out=out)
        out *= spec.kappa
    else:
        # past |d| = 1e3 sigma the kernel is exactly 0 for every accepted
        # sigma (|log_norm| < 710); the clamp keeps d / sigma and its square
        # finite
        np.clip(out, -1e3 * spec.sigma, 1e3 * spec.sigma, out=out)
        out /= spec.sigma
        out *= out
        out *= -0.5
    out -= spec.log_norm
    np.exp(out, out=out)
    return out if out.ndim else out[()]


def kernel_table(spec: KernelSpec, u) -> np.ndarray:
    """The fields ``eval_table`` reads for locations u, stacked on a new
    first axis: kappa cos u and kappa sin u, or u itself for the Gaussian."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "von_mises":
        return np.stack([np.cos(u), np.sin(u)]) * spec.kappa
    return u[None]


def eval_table(spec: KernelSpec, y: float, table) -> np.ndarray:
    """k(y, u) from the ``kernel_table`` of u (see the module notes)."""
    if spec.kind != "von_mises":
        return eval_kernel(spec, y, table[0])
    out = table[0] * math.cos(y)
    out += table[1] * math.sin(y)
    out -= spec.log_norm
    np.exp(out, out=out)
    return out


def mixture_density(spec: KernelSpec, locations, weights, y):
    """Evaluate sum_j m_j k(y, u_j) at the locations y.

    The sum runs over (points x atoms) blocks of at most ``_BLOCK`` elements;
    over no atoms it is 0.
    """
    locs = np.atleast_1d(np.asarray(locations, dtype=float))
    wts = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(wts <= 0):
        raise ModelError("atom weights must be positive")
    y = np.asarray(y, dtype=float)
    flat = np.atleast_1d(y).ravel()
    out = np.zeros(flat.size)
    rows = max(1, _BLOCK // max(locs.size, 1))  # all atoms up to _BLOCK of them
    cols = _BLOCK // rows
    for lo in range(0, flat.size, rows):
        for a in range(0, locs.size, cols):
            out[lo:lo + rows] += eval_kernel(spec, flat[lo:lo + rows, None],
                                             locs[None, a:a + cols]) @ wts[a:a + cols]
    return out.reshape(y.shape) if y.shape else float(out[0])


def mixture_series(spec: KernelSpec, locations, weights, y) -> np.ndarray:
    """sum_j m_j k(y, u_j) at the 1-D points y, for the von Mises kernel,
    from its truncated Fourier series.

    Accurate to about 1e-16 * sum(m) in absolute terms, so not positive
    everywhere (see the module notes).  Harmonic n advances e^{inu} and
    e^{iny} by one complex product each, takes C_n, S_n from the atoms and
    adds its term at the points, so no array outgrows the atoms or points.
    """
    wts = np.asarray(weights, dtype=float)
    turn_u = np.exp(1j * np.asarray(locations, dtype=float))
    turn_y = np.exp(1j * np.asarray(y, dtype=float))
    p, q = np.ones_like(turn_u), np.ones_like(turn_y)
    # (size, 2) real views of p and q: each row is (cos, sin) of n x
    p_cs, q_cs = p.view(float).reshape(-1, 2), q.view(float).reshape(-1, 2)
    out = np.zeros(turn_y.size)
    for rho_n in spec._rho:
        p *= turn_u
        q *= turn_y
        out += q_cs @ ((2.0 * rho_n) * (wts @ p_cs))
    out += wts.sum()
    out /= TWO_PI
    return out


def mixture_intensity(spec: KernelSpec, locations, weights) -> IntensityModel:
    """Kernel-mixture intensity; total mass is the sum of atom weights."""
    locs = np.atleast_1d(np.asarray(locations, dtype=float)).copy()
    wts = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
    if locs.shape != wts.shape:
        raise ModelError("atom locations and weights must align")
    if locs.size == 0:
        raise ModelError("mixture needs at least one atom")
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


def sample_kernel_posterior(spec: KernelSpec, x: float, gen,
                            size: int) -> np.ndarray:
    """``size`` draws of u from the density proportional to k(x, u) on the
    window (the uniform unit base).

    This is the kernel centered at x, truncated to the window for the
    Gaussian: an exact inverse-normal-CDF draw between the window edges, one
    uniform per draw.
    """
    window = spec.window
    if spec.kind == "von_mises":
        return np.mod(gen.vonmises(x, spec.kappa, size), TWO_PI)
    # imported here, the only scipy use in the package: importing
    # scipy.special costs about 0.3 s and 18 MB, which every command and
    # subprocess would otherwise pay at start-up
    from scipy.special import ndtr, ndtri
    lo, hi = ndtr((np.array([window.a, window.b]) - x) / spec.sigma)
    u = x + spec.sigma * ndtri(lo + gen.random(size) * (hi - lo))
    return np.clip(u, window.a, window.b)
