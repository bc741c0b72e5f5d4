"""Property tests: identities that must hold for every input in a range.

Hypothesis draws the inputs; the runs are derandomized and keep no example
database, so a failure reproduces on every machine.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import draw_table, kl_decomposed
from nhppbayes import (KernelSpec, PriorSpec, Window, kl_intensity,
                       mixture_intensity, nb_total_mass, posterior_lambda_bar)

TWO_PI = 2.0 * math.pi
CIRCLE = Window.circle()
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

angles = st.floats(0.0, TWO_PI, exclude_max=True)


@st.composite
def cluster_draws(draw):
    """One to three chain draws of the same pattern, 1-50 clusters each."""
    n_obs = draw(st.integers(1, 60))
    draws = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, min(50, n_obs)))
        cuts = draw(st.lists(st.integers(1, n_obs - 1), min_size=k - 1,
                             max_size=k - 1, unique=True)) if k > 1 else []
        counts = np.diff([0, *sorted(cuts), n_obs])
        locs = draw(st.lists(angles, min_size=k, max_size=k))
        draws.append((locs, counts))
    return draw_table(draws)


@PROPERTY
@given(draws=cluster_draws(), kappa=st.floats(0.0, 800.0),
       grid_size=st.sampled_from([64, 256, 512]),
       shift=st.integers(0, 511))
def test_lambda_bar_is_rotation_equivariant(draws, kappa, grid_size, shift):
    # rotating every cluster location by j grid steps rotates the estimate
    # by j nodes, since the uniform base and the kernel are rotation
    # invariant
    kernel = KernelSpec.von_mises(kappa, CIRCLE)
    prior = PriorSpec.uniform_unit(CIRCLE)
    grid = CIRCLE.grid(grid_size)
    j = shift % grid_size
    step = TWO_PI / grid_size
    rotated = dataclasses.replace(
        draws, locations=np.mod(draws.locations + j * step, TWO_PI))
    values = posterior_lambda_bar(draws, prior, kernel, grid).values
    moved = posterior_lambda_bar(rotated, prior, kernel, grid).values
    np.testing.assert_allclose(moved, np.roll(values, j), rtol=1e-10, atol=0)


@st.composite
def mixtures(draw):
    """A von Mises mixture intensity with 1-6 atoms on the circle."""
    k = draw(st.integers(1, 6))
    locs = draw(st.lists(angles, min_size=k, max_size=k))
    wts = draw(st.lists(st.floats(0.1, 50.0), min_size=k, max_size=k))
    kernel = KernelSpec.von_mises(draw(st.floats(0.0, 20.0)), CIRCLE)
    return mixture_intensity(kernel, locs, wts)


@PROPERTY
@given(true=mixtures(), est=mixtures(), t=st.floats(0.01, 10.0))
def test_kl_decomposed_sums_to_divergence(true, est, t):
    weight, shape = kl_decomposed(true, est, t)
    total = kl_intensity(true, est, t)
    assert weight >= -1e-12 * t * true.total_mass
    assert shape >= -1e-12 * t * true.total_mass
    # both sides round sums of terms of size t * mass; when the divergence
    # itself is that small only the absolute agreement is meaningful
    assert math.isclose(weight + shape, total, rel_tol=1e-12,
                        abs_tol=1e-12 * t * (true.total_mass + est.total_mass))


@PROPERTY
@given(r=st.floats(0.0, 200.0, exclude_min=True),
       p=st.floats(0.0, 0.95, exclude_min=True))
@example(r=5e-324, p=0.95)  # lgamma(r) is 744.44; at m = 0 it must cancel
def test_nb_total_mass_and_tail_make_one(r, p):
    total, tail = nb_total_mass(r, p, tol=1e-10)
    assert 0.0 <= tail < 1e-10
    # the tail is certified: the mass left out is at most the bound
    assert -1e-13 <= 1.0 - total <= tail + 1e-13
