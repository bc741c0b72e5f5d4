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
flags leakage beyond the integration tolerance, ``sample_kernel_points``
drops the mixture points that land outside, and ``window_mass``, the base
term of the posterior, integrates the kernel over the window only.

A ``KernelSpec``'s window decides its kernel.  Outside this module only the
chain's sweep and the posterior shape's series-or-direct-sum choice branch
on the kernel.  The sweep takes a block's auxiliary weights from
``eval_peak_ratio``, the kernel scaled to its peak, but still inlines the
same weights of its occupied clusters (on the circle from each cluster's
trig table) and the von Mises refresh's acceptance ratio, where a call per
weight would cost more than the weight.

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
_SQRT_HALF = math.sqrt(0.5)
_SERIES_TOL = 1e-17  # smallest Bessel ratio I_n / I0 the series keeps
# most terms a von Mises spec may keep; about sqrt(2 kappa log(1 / tol)) =
# 8.85 sqrt(kappa) are kept, so kappa may reach about 1.3e8
_SERIES_TERMS = 100_000
# elements of one (points x atoms) block of the direct sum: its 512 KB stay in
# L2 (2 MB a core on the Xeon measured, where 2^15..2^17 ran fastest)
_BLOCK = 1 << 16


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
    """A kernel with its fixed parameter and domain; the window decides the
    kernel: von Mises (``kappa``) on the circle, Gaussian (``sigma``) on an
    interval (a density on R, see module notes).
    """

    kappa: Optional[float] = None
    sigma: Optional[float] = None
    window: Window = Window.circle()

    def __post_init__(self):
        if self.window.is_circle:
            if self.sigma is not None:
                raise ModelError("Gaussian kernel requires an interval window")
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
        else:
            if self.kappa is not None:
                raise ModelError("von Mises kernel requires a circle window")
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

    @classmethod
    def von_mises(cls, kappa: float, window: Optional[Window] = None) -> "KernelSpec":
        return cls(kappa=float(kappa), window=window or Window.circle())

    @classmethod
    def gaussian(cls, sigma: float, window: Window) -> "KernelSpec":
        return cls(sigma=float(sigma), window=window)

    @property
    def log_norm(self) -> float:
        """Log of the kernel normalizing constant."""
        return self._log_norm


def eval_kernel(spec: KernelSpec, y, u):
    """Kernel density k(y, u); symmetric in its arguments, broadcasting."""
    return _exp_kernel(spec, y, u, spec.log_norm)


def eval_peak_ratio(spec: KernelSpec, y, u):
    """k(y, u) / k(u, u): exp(kappa cos(y - u) - kappa) or exp(-(y - u)^2 /
    (2 sigma^2)), at most 1 and finite at any kappa; broadcasting."""
    return _exp_kernel(spec, y, u, spec.kappa if spec.window.is_circle else 0.0)


def _exp_kernel(spec: KernelSpec, y, u, shift: float):
    """exp(log k(y, u) + log_norm - shift)."""
    # in place: on the posterior-mean grids temporaries cost more than math
    out = np.asarray(np.subtract(y, u, dtype=float))
    if spec.window.is_circle:
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
    out -= shift
    np.exp(out, out=out)
    return out if out.ndim else out[()]


def window_mass(spec: KernelSpec, y: np.ndarray) -> np.ndarray:
    """integral of k(y, u) alpha(du) at the points y, in closed form.

    On the circle the von Mises kernel integrates to one, so this is 1.  On
    an interval [a, b] it is the Gaussian mass inside the window,
    Phi((b - y) / sigma) - Phi((a - y) / sigma).
    """
    window = spec.window
    if window.is_circle:
        return np.ones(y.size)
    return np.array([_normal_mass((window.a - v) / spec.sigma,
                                  (window.b - v) / spec.sigma)
                     for v in y.tolist()])


def _phi(z: float) -> float:
    """The standard normal CDF, with relative precision in its lower tail."""
    return 0.5 * math.erfc(-z * _SQRT_HALF)


def _normal_mass(lo: float, hi: float) -> float:
    """Phi(hi) - Phi(lo), taken in the tail where both terms are small."""
    return _phi(hi) - _phi(lo) if lo + hi < 0.0 else _phi(-lo) - _phi(-hi)


def check_window(spec: KernelSpec, window: Window, what: str) -> None:
    """``ModelError``, naming both, unless ``window`` is the kernel's."""
    if window != spec.window:
        on = [f"{w.kind} [{w.a:g}, {w.b:g}]" for w in (window, spec.window)]
        raise ModelError(f"the {what} lives on the {on[0]} but the kernel "
                         f"on the {on[1]}")


def kernel_table(spec: KernelSpec, u) -> np.ndarray:
    """The fields ``eval_table`` reads for locations u, stacked on a new
    first axis: kappa cos u and kappa sin u, or u itself for the Gaussian."""
    u = np.asarray(u, dtype=float)
    if spec.window.is_circle:
        return np.stack([np.cos(u), np.sin(u)]) * spec.kappa
    return u[None]


def eval_table(spec: KernelSpec, y: float, table) -> np.ndarray:
    """k(y, u) from the ``kernel_table`` of u (see the module notes)."""
    if not spec.window.is_circle:
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
        spec.window, float(np.sum(wts)),
        lambda y, _s=spec, _l=locs, _w=wts: mixture_density(_s, _l, _w, y),
        kernel=spec, atom_locations=locs, atom_weights=wts)


def member_stats(spec: KernelSpec, xs: list) -> tuple:
    """Two lists of the points' stats, summed over a cluster's n members:
    cos x and sin x on the circle (sum cos(x - u) = C cos u + S sin u), x and
    0 on an interval (the location's law is N(sum x / n, sigma^2 / n) cut to
    the window, drawn by ``truncated_normal``)."""
    if spec.window.is_circle:
        return [math.cos(x) for x in xs], [math.sin(x) for x in xs]
    return list(xs), [0.0] * len(xs)


def truncated_normal(spec: KernelSpec):
    """draw(mean, n, vs): the list of the vs-quantiles, each v in [0, 1), of
    N(mean, sigma^2 / n) truncated to the window, each read from the tail it
    lies in; the window's Phi values and mass are taken once per call."""
    from statistics import NormalDist  # 2-3 ms to import: intervals only
    inv_phi = NormalDist().inv_cdf
    a, b, sigma = spec.window.a, spec.window.b, spec.sigma

    def draw(mean: float, n: int, vs) -> list:
        s = sigma / math.sqrt(n)
        lo, hi = (a - mean) / s, (b - mean) / s
        mass = _normal_mass(lo, hi)
        if not mass > 0.0:  # the window lies past about 38 s: its near edge
            return [min(max(mean, a), b)] * len(vs)
        below, above = _phi(lo), _phi(-hi)
        out = []
        for v in vs:
            p = below + v * mass
            if p <= 0.5:
                z = inv_phi(p) if p > 0.0 else lo
            else:
                z = -inv_phi(above + (1.0 - v) * mass)
            out.append(min(max(mean + s * z, a), b))
        return out
    return draw


def sample_kernel_posterior(spec: KernelSpec, x: float, gen,
                            size: int) -> np.ndarray:
    """``size`` draws of u from the density proportional to k(x, u) on the
    window (the uniform unit base); on an interval, ``truncated_normal``
    draws from one uniform each."""
    if spec.window.is_circle:
        return np.mod(gen.vonmises(x, spec.kappa, size), TWO_PI)
    return np.array(truncated_normal(spec)(x, 1, gen.random(size).tolist()))


def sample_kernel_points(spec: KernelSpec, centers, gen) -> np.ndarray:
    """One draw from k(., u) per center u, keeping those in the window: the
    mixture process restricted to the window (see the module notes)."""
    if spec.window.is_circle:
        return np.mod(gen.vonmises(centers, spec.kappa), TWO_PI)
    pts = gen.normal(centers, spec.sigma)
    return pts[(pts >= spec.window.a) & (pts <= spec.window.b)]
