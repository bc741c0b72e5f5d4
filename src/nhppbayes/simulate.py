"""Exact sampling of point-process realizations, the base measure and the
Chinese-restaurant prior.

Reproducibility contract: every sampler takes an RngStream (a seed plus a
stream id) and derives a fresh counter-based generator from it, so identical
streams reproduce identical output and distinct stream ids are independent.
Monte Carlo harnesses assign stream id = replication index, which makes
parallel and serial execution agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (TWO_PI, IntensityModel, ModelError, PointPattern, PriorSpec,
                   invert_cdf)


@dataclass(frozen=True)
class RngStream:
    """Seedable random stream: (seed, stream_id) fully determines the output."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed & (2**64 - 1),
                                    spawn_key=(self.stream_id & (2**64 - 1),))
        return np.random.Generator(np.random.Philox(ss))


RngLike = Union[RngStream, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Accept either an RngStream or an already-derived generator.

    Harness code derives one generator per replication and threads it through
    the sampling and inference steps sequentially.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return rng.generator()


def derive_seed(*tags) -> int:
    """Stable 64-bit seed derived from integer tags (for sub-harnesses)."""
    state = np.random.SeedSequence(entropy=[int(t) & (2**64 - 1) for t in tags])
    a, b = state.generate_state(2, dtype=np.uint64)[:2]
    return int(a ^ (b << 1)) & (2**63 - 1)


def _sample_mixture_points(model: IntensityModel, size: int,
                           gen: np.random.Generator) -> np.ndarray:
    spec = model.kernel
    probs = model.atom_weights / model.total_mass
    which = gen.choice(model.atom_locations.size, size=size, p=probs)
    centers = model.atom_locations[which]
    if spec.kind == "von_mises":
        return np.mod(gen.vonmises(centers, spec.kappa), TWO_PI)
    pts = gen.normal(centers, spec.sigma)
    # Gaussian kernels leak outside interval windows; points that land
    # outside are dropped, so the pattern is the mixture process restricted
    # to the window.
    window = model.window
    return pts[(pts >= window.a) & (pts <= window.b)]


def sample_nhpp(model: IntensityModel, exposure: float,
                rng: RngLike) -> PointPattern:
    """Sample one realization with intensity exposure * lambda.

    The count is Poisson(exposure * w); given the count, locations are i.i.d.
    draws from the normalized shape.  A Gaussian mixture on an interval
    drops the points that fall outside the window, so its count is Poisson
    in the mass inside the window.  Closed-form intensities are sampled by
    tabulated inverse-CDF.  A count mean beyond numpy's Poisson range
    (about 9.2e18, or not finite) raises ``ModelError``.
    """
    if not exposure > 0:
        raise ModelError("exposure must be positive")
    gen = as_generator(rng)
    try:
        n = int(gen.poisson(exposure * model.total_mass))
    except ValueError as exc:
        raise ModelError(f"cannot draw the count: {exc}") from None
    if n == 0:
        return PointPattern.empty(model.window)
    if model.kind == "kernel_mixture":
        pts = _sample_mixture_points(model, n, gen)
    else:
        pts = invert_cdf(model.shape_cdf_table(), gen.random(n))
    return PointPattern(model.window, pts)


def log_pattern_density(model: IntensityModel, pattern: PointPattern,
                        exposure: float) -> float:
    """Log density of an observed pattern under exposure * lambda.

    This is the exchangeable form: the product of normalized-shape values
    times the Poisson count probability (with the factorial).
    """
    m = pattern.count
    w = model.total_mass
    total = m * math.log(exposure * w) - math.lgamma(m + 1) - exposure * w
    if m:
        total += float(np.sum(np.log(model.normalized(pattern.points))))
    return total


def sample_crp(prior: PriorSpec, n: int, rng: RngLike):
    """Sequential Chinese-restaurant draw of n latent locations.

    Returns (locations, labels): the first location is a base draw; each
    subsequent one repeats an earlier location with probability 1/(|alpha|+k)
    each, or is a fresh base draw with probability |alpha|/(|alpha|+k).
    """
    if n < 0:
        raise ModelError("n must be nonnegative")
    gen = as_generator(rng)
    theta = prior.total_mass_alpha
    locations = np.empty(n)
    labels = np.empty(n, dtype=int)
    table_locs = []
    if n == 0:
        return locations, labels
    base_u = gen.random(n)          # decision uniforms, one per customer
    fresh = sample_base(prior, n, gen)
    fresh_used = 0
    for k in range(n):
        if k == 0 or base_u[k] * (theta + k) < theta:
            table_locs.append(fresh[fresh_used])
            fresh_used += 1
            labels[k] = len(table_locs) - 1
        else:
            # repeat one of the k earlier draws uniformly (reusing the
            # residual of the decision uniform, which is uniform on [0, k))
            j = min(int(base_u[k] * (theta + k) - theta), k - 1)
            labels[k] = labels[j]
        locations[k] = table_locs[labels[k]]
    return locations, labels


def sample_base(prior: PriorSpec, size: int, gen: np.random.Generator) -> np.ndarray:
    """i.i.d. draws from the normalized base measure."""
    window = prior.window
    if prior.uniform_base:
        return gen.uniform(window.a, window.b, size)
    return invert_cdf(prior.base_cdf_table(), gen.random(size))

