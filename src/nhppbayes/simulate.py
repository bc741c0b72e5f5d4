"""Exact sampling of point-process realizations.

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

from .core import IntensityModel, ModelError, PointPattern, invert_cdf
from .kernels import sample_kernel_points


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


def sample_nhpp(model: IntensityModel, exposure: float,
                rng: RngLike) -> PointPattern:
    """Sample one realization with intensity exposure * lambda.

    The count is Poisson(exposure * w); given the count, locations are i.i.d.
    draws from the normalized shape: a mixture's by atom and then
    ``kernels.sample_kernel_points``.  A Gaussian mixture on an interval
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
    if model.atom_locations is not None:
        which = gen.choice(model.atom_locations.size, size=n,
                           p=model.atom_weights / model.total_mass)
        pts = sample_kernel_points(model.kernel, model.atom_locations[which],
                                   gen)
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
