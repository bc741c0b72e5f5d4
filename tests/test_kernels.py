import math

import numpy as np
import pytest

from nhppbayes import (KernelSpec, ModelError, PriorSpec, Window, bessel_i0,
                       eval_kernel, mixture_density, mixture_intensity,
                       quadrature, validate)
from nhppbayes.kernels import sample_kernel_posterior

TWO_PI = 2.0 * math.pi


def i0_series(x, terms=40):
    """Independent power-series value of I0: sum (x/2)^(2m) / (m!)^2."""
    total = 0.0
    for m in range(terms):
        total += (x / 2.0) ** (2 * m) / math.factorial(m) ** 2
    return total


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 19.0])
    def test_matches_series_oracle(self, x):
        assert bessel_i0(x) == pytest.approx(i0_series(x, 60), rel=1e-12)

    def test_known_values(self):
        assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-12)
        assert bessel_i0(5.0) == pytest.approx(27.239871823604442, rel=1e-12)

    @pytest.mark.parametrize("x", [20.5, 25.0, 50.0, 120.0])
    def test_asymptotic_branch_matches_scipy(self, x):
        from scipy.special import i0
        assert bessel_i0(x) == pytest.approx(float(i0(x)), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            bessel_i0(-1.0)


class TestEvalKernel:
    def test_flat_limit(self, circle):
        spec = KernelSpec.von_mises(0.0, circle)
        assert eval_kernel(spec, 1.0, 4.0) == pytest.approx(1.0 / TWO_PI, rel=1e-14)

    def test_von_mises_mode(self, vm5):
        expected = math.exp(5.0) / (TWO_PI * i0_series(5.0, 60))
        assert eval_kernel(vm5, 1.3, 1.3) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_mode(self):
        spec = KernelSpec.gaussian(1.0, Window.interval(-10, 10))
        assert eval_kernel(spec, 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(TWO_PI), rel=1e-14)

    def test_symmetry_exact(self, vm5):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, TWO_PI, 200)
        u = rng.uniform(0, TWO_PI, 200)
        np.testing.assert_array_equal(eval_kernel(vm5, y, u),
                                      eval_kernel(vm5, u, y))
        spec = KernelSpec.gaussian(0.7, Window.interval(-5, 5))
        a = rng.uniform(-5, 5, 200)
        b = rng.uniform(-5, 5, 200)
        np.testing.assert_array_equal(eval_kernel(spec, a, b),
                                      eval_kernel(spec, b, a))

    def test_positive_everywhere(self, vm5, circle):
        grid = circle.grid(512)
        assert np.all(eval_kernel(vm5, grid, 3.0) > 0)

    def test_von_mises_needs_circle(self):
        with pytest.raises(ModelError):
            KernelSpec.von_mises(5.0, Window.interval(0, 1))

    def test_gaussian_needs_interval(self, circle):
        with pytest.raises(ModelError):
            KernelSpec.gaussian(1.0, circle)


class TestNormalization:
    @pytest.mark.parametrize("kappa", [0.3, 5.0, 800.0])
    def test_von_mises_integrates_to_one(self, kappa, circle):
        spec = KernelSpec.von_mises(kappa, circle)
        rng = np.random.default_rng(1)
        for u in rng.uniform(0, TWO_PI, 100):
            val = quadrature(lambda y: eval_kernel(spec, y, u), circle)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_integrates_to_one_on_wide_interval(self):
        window = Window.interval(-12.0, 12.0)
        spec = KernelSpec.gaussian(1.0, window)
        val = quadrature(lambda y: eval_kernel(spec, y, 0.5), window)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestSampleKernelPosterior:
    def test_non_uniform_base_draw_is_continuous(self, vm5, circle,
                                                 cosine_prior):
        # target density proportional to k(x, u) (1 + cos(u)/2); the draws
        # must not sit on the table nodes and must match its bin masses
        from scipy import stats
        x = 1.0
        gen = np.random.default_rng(3)
        draws = sample_kernel_posterior(vm5, cosine_prior, x, gen, 4000)
        nodes = circle.grid(2048)
        assert not np.any(np.isin(draws, nodes))
        fine = np.linspace(0.0, TWO_PI, 1 << 16, endpoint=False)
        dens = eval_kernel(vm5, x, fine) * (1.0 + 0.5 * np.cos(fine))
        edges = np.linspace(0.0, TWO_PI, 17)
        masses = np.histogram(fine, bins=edges, weights=dens)[0]
        masses /= masses.sum()
        observed = np.histogram(draws, bins=edges)[0]
        keep = masses * draws.size >= 5.0
        expected = masses[keep] * draws.size
        obs = observed[keep]
        assert stats.chisquare(obs, expected * obs.sum() / expected.sum()
                               ).pvalue > 0.001

    def test_gaussian_truncated_draw_is_exact_and_bounded(self):
        # uniform base on an interval: the kernel truncated to the window,
        # drawn with a single uniform however little mass the window holds
        from scipy import stats
        window = Window.interval(0.0, 4.0)
        spec = KernelSpec.gaussian(1.0, window)
        prior = PriorSpec.uniform_unit(window)
        gen = np.random.default_rng(5)
        draws = sample_kernel_posterior(spec, prior, 0.2, gen, 4000)
        assert np.all((draws >= 0.0) & (draws <= 4.0))
        target = stats.truncnorm(-0.2, 3.8, loc=0.2, scale=1.0)
        assert stats.kstest(draws, target.cdf).pvalue > 0.001
        narrow = Window.interval(0.0, 1e-3)
        spec = KernelSpec.gaussian(10.0, narrow)
        gen = np.random.default_rng(6)
        twin = np.random.default_rng(6)
        u = sample_kernel_posterior(spec, PriorSpec.uniform_unit(narrow), 0.0,
                                    gen, 1)
        twin.random()
        assert gen.bit_generator.state == twin.bit_generator.state
        assert u.shape == (1,) and 0.0 <= u[0] <= 1e-3


class TestMixture:
    def test_single_atom_equals_kernel(self, vm5, circle):
        grid = circle.grid(64)
        np.testing.assert_allclose(mixture_density(vm5, [2.0], [1.0], grid),
                                   eval_kernel(vm5, grid, 2.0), rtol=1e-14)

    def test_antipodal_symmetry(self, vm5):
        # equal atoms at 0 and pi: both midpoints pi/2 and 3pi/2 see the same
        # value by symmetry
        locs, wts = [0.0, math.pi], [1.0, 1.0]
        v1 = mixture_density(vm5, locs, wts, math.pi / 2)
        v2 = mixture_density(vm5, locs, wts, 3 * math.pi / 2)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_three_atoms_match_direct_sum(self, vm5, circle):
        locs = np.array([0.5, 2.0, 4.5])
        wts = np.array([1.0, 2.0, 3.0])
        y = circle.grid(128)
        direct = sum(w * eval_kernel(vm5, y, u) for u, w in zip(locs, wts))
        np.testing.assert_allclose(mixture_density(vm5, locs, wts, y), direct,
                                   rtol=1e-12)

    def test_mixture_intensity_mass(self, vm5):
        model = mixture_intensity(vm5, [0.5, 2.0, 4.5], [1.0, 2.0, 3.0])
        assert model.total_mass == 6.0
        report = validate(model)
        assert report.ok
        assert report.mass_residual < 1e-6

    def test_rejects_nonpositive_weights(self, vm5):
        with pytest.raises(ModelError):
            mixture_intensity(vm5, [1.0], [0.0])

    def test_empty_mixture_rejected(self, vm5):
        with pytest.raises(ModelError):
            mixture_density(vm5, [], [], 1.0)


class TestSerialization:
    def test_von_mises_json(self, vm5):
        obj = vm5.to_json()
        assert obj == {"kind": "von_mises", "kappa": 5.0}
        assert KernelSpec.from_json(obj) == vm5

    def test_gaussian_json(self):
        spec = KernelSpec.gaussian(0.3, Window.interval(0, 4))
        assert KernelSpec.from_json(spec.to_json()) == spec
