import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bessel_i0, peak_traced_mb
from nhppbayes import (KernelSpec, ModelError, Window, eval_kernel,
                       mixture_density, mixture_intensity, quadrature,
                       validate)
from nhppbayes.kernels import (_bessel_ratios, eval_peak_ratio, eval_table,
                               kernel_table, mixture_series,
                               sample_kernel_posterior, truncated_normal)

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parent.parent / "src"

# kappa: (kept ratios, i0e(kappa), {n: I_n(kappa) / I0(kappa)}) for n = 1, 2,
# the middle and the last kept term and the first dropped one; exact values
# from mpmath 1.3.0 at 40 digits, rounded to double
BESSEL_EXACT = {
    0.0: (0, 1.0, {1: 0.0}),
    0.5: (12, 0.6450352704491501, {
        1: 0.24249961258080194, 2: 0.03000154967679222,
        6: 3.2170093303835426e-07, 12: 1.1757095136744653e-16,
        13: 2.260203895942879e-18}),
    5.0: (25, 0.18354081260932836, {
        1: 0.8933831370440852, 2: 0.6426467451823659,
        12: 7.329821666689445e-06, 25: 2.6704699467777055e-17,
        26: 2.54528297802602e-18}),
    50.0: (65, 0.05656162664745419, {
        1: 0.9899489673784978, 2: 0.9604020413048601,
        32: 4.4757692803398396e-05, 65: 2.2271774186170467e-17,
        66: 7.492866793798875e-18}),
    800.0: (251, 0.014106945005869185, {
        1: 0.9993748044428813, 2: 0.9975015629888928,
        125: 5.818174219583834e-05, 251: 1.0604431411061384e-17,
        252: 7.780952272866131e-18}),
    1e4: (885, 0.003989472674604732, {
        1: 0.999949998749875, 2: 0.99980001000025,
        442: 5.730637854418739e-05, 885: 1.0062656941212098e-17,
        886: 9.210942329639444e-18}),
}


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

    @pytest.mark.parametrize("x", [714.0, 800.0, 1e4, math.inf])
    def test_overflow_is_inf_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_i0(x) == math.inf

    @pytest.mark.parametrize("kappa", sorted(BESSEL_EXACT))
    def test_scaled_i0_matches_exact(self, kappa):
        assert _bessel_ratios(kappa)[1] == pytest.approx(
            BESSEL_EXACT[kappa][1], rel=1e-15, abs=0)


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

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 800.0])
    def test_table_matches_direct_kernel(self, kappa):
        # the trig expansion is within about kappa * 4e-16 relative where
        # the kernel is a normal float; the Gaussian table is the location,
        # so its values are the same bits
        rng = np.random.default_rng(1)
        u = rng.uniform(0, TWO_PI, (40, 50))
        spec = KernelSpec.von_mises(kappa)
        for y in rng.uniform(0, TWO_PI, 20):
            direct = eval_kernel(spec, y, u)
            normal = direct > 1e-290
            np.testing.assert_allclose(
                eval_table(spec, y, kernel_table(spec, u))[normal],
                direct[normal], rtol=2e-15 * max(kappa, 1.0), atol=0)
        spec = KernelSpec.gaussian(0.7, Window.interval(-5, 5))
        u = rng.uniform(-5, 5, (40, 50))
        np.testing.assert_array_equal(
            eval_table(spec, 1.5, kernel_table(spec, u)),
            eval_kernel(spec, 1.5, u))

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 800.0, None])
    def test_peak_ratio_is_the_scaled_kernel(self, kappa):
        # k(y, u) / k(u, u) = k(y, u) exp(log_norm - peak exponent), with
        # peak exponent kappa, or 0 for the Gaussian (kappa None), within
        # the rounding of exponents of that size; it is 1 where y = u and
        # at most 1 everywhere
        rng = np.random.default_rng(2)
        if kappa is None:
            spec = KernelSpec.gaussian(0.7, Window.interval(-5, 5))
            y, u = rng.uniform(-5, 5, (2, 40, 50))
            peak = 0.0
        else:
            spec = KernelSpec.von_mises(kappa)
            y, u = rng.uniform(0, TWO_PI, (2, 40, 50))
            peak = kappa
        y[0] = u[0]
        ratio = eval_peak_ratio(spec, y, u)
        scaled = eval_kernel(spec, y, u) * math.exp(spec.log_norm - peak)
        normal = scaled > 1e-290
        size = (np.abs(np.log(scaled[normal]))
                + abs(spec.log_norm - peak) + 2.0)
        assert np.all(np.abs(ratio[normal] / scaled[normal] - 1.0)
                      <= 4.5e-16 * size)
        assert np.all(ratio[~normal] < 1e-289)
        np.testing.assert_array_equal(ratio[0], 1.0)
        assert np.all(ratio <= 1.0)

    def test_positive_everywhere(self, vm5, circle):
        grid = circle.grid(512)
        assert np.all(eval_kernel(vm5, grid, 3.0) > 0)

    def test_von_mises_needs_circle(self):
        with pytest.raises(ModelError):
            KernelSpec.von_mises(5.0, Window.interval(0, 1))

    @pytest.mark.parametrize("kappa", [-1.0, math.inf, math.nan])
    def test_von_mises_needs_finite_nonnegative_kappa(self, kappa):
        with pytest.raises(ModelError):
            KernelSpec.von_mises(kappa)

    def test_gaussian_needs_interval(self, circle):
        with pytest.raises(ModelError):
            KernelSpec.gaussian(1.0, circle)

    def test_negative_zero_kappa_is_stored_as_zero(self):
        # numpy's vonmises rejects kappa = -0.0 by its sign bit
        spec = KernelSpec.von_mises(-0.0)
        assert math.copysign(1.0, spec.kappa) == 1.0
        draws = sample_kernel_posterior(spec, 1.0, np.random.default_rng(0),
                                        4)
        assert np.all((draws >= 0) & (draws < TWO_PI))

    @pytest.mark.parametrize("sigma", [1e-320, 1e-160, 1e155, 1e308])
    def test_gaussian_sigma_must_evaluate(self, sigma):
        # sigma^2 underflows (to 0 or a subnormal) or overflows
        with pytest.raises(ModelError, match="sigma"):
            KernelSpec.gaussian(sigma, Window.interval(0.0, 7.0))

    @pytest.mark.parametrize("sigma", [1e-150, 1e150])
    def test_gaussian_sigma_near_the_limits(self, sigma):
        spec = KernelSpec.gaussian(sigma, Window.interval(0.0, 7.0))
        assert math.isfinite(spec.log_norm)

    @pytest.mark.parametrize("sigma", [1e-150, 1.0, 1e150])
    def test_gaussian_far_tail_is_zero_without_warning(self, sigma):
        # d / sigma, or its square, overflows far out; the kernel is 0
        # there, and already 0 where d is clamped, at 1e3 sigma
        spec = KernelSpec.gaussian(sigma, Window.interval(0.0, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = eval_kernel(spec, 0.0, np.array(
                [1e3 * sigma, 1e155 * sigma, 1e308, -1e308]))
        np.testing.assert_array_equal(values, 0.0)

    @pytest.mark.parametrize("kappa", [1.3e8, 1e12, 1e15, 1e308])
    def test_kappa_past_the_series_cap_fails_fast(self, kappa):
        # rejected from kappa alone: the recurrence took 10 s at 1e12 and
        # ran out of memory at 1e15, and at 1e308 kept no term
        start = time.perf_counter()
        with pytest.raises(ModelError, match="series terms"):
            KernelSpec.von_mises(kappa)
        assert time.perf_counter() - start < 1.0

    def test_kappa_below_the_series_cap(self):
        # about 8.85 sqrt(kappa) terms are kept
        assert len(KernelSpec.von_mises(1e6)._rho) == 8848


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
    def test_gaussian_truncated_draw_is_exact_and_bounded(self):
        # uniform base on an interval: the kernel truncated to the window,
        # drawn with a single uniform however little mass the window holds
        from scipy import stats
        window = Window.interval(0.0, 4.0)
        spec = KernelSpec.gaussian(1.0, window)
        gen = np.random.default_rng(5)
        draws = sample_kernel_posterior(spec, 0.2, gen, 4000)
        assert np.all((draws >= 0.0) & (draws <= 4.0))
        target = stats.truncnorm(-0.2, 3.8, loc=0.2, scale=1.0)
        assert stats.kstest(draws, target.cdf).pvalue > 0.001
        narrow = Window.interval(0.0, 1e-3)
        spec = KernelSpec.gaussian(10.0, narrow)
        gen = np.random.default_rng(6)
        twin = np.random.default_rng(6)
        u = sample_kernel_posterior(spec, 0.0, gen, 1)
        twin.random()
        assert gen.bit_generator.state == twin.bit_generator.state
        assert u.shape == (1,) and 0.0 <= u[0] <= 1e-3

    def test_gaussian_commands_run_without_scipy(self, tmp_path):
        # a fresh interpreter, since conftest has imported scipy in this one;
        # a scipy import would raise ImportError, and a circle command does
        # not load statistics, which only the truncated normal draw needs
        (tmp_path / "x.csv").write_text("location\n0.2\n1.1\n3.9\n")
        (tmp_path / "y.csv").write_text("location\n0.5\n3.5\n")
        code = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            from nhppbayes.cli import main
            chain = ["--burn-in", "20", "--samples", "20", "--thin", "1"]
            assert main(["estimate", "--pattern", "x.csv", *chain]) == 0
            assert "statistics" not in sys.modules
            interval = ["--window", "0,4", "--sigma", "0.5", "--pattern",
                        "x.csv", *chain]
            assert main(["estimate", *interval]) == 0
            assert main(["predict", *interval, "--future", "y.csv"]) == 0
            assert "statistics" in sys.modules
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestTruncatedNormal:
    @pytest.mark.parametrize("sigma, a, b, mean, n", [
        (1.0, 0.0, 4.0, 0.2, 1),
        (2.0, 0.0, 4.0, 4.0, 1),      # the mean on an edge
        (0.005, 0.0, 4.0, 0.0, 3),    # 1385 s of window above it
        (0.1, 3.0, 4.0, 0.0, 1),      # the window 30 to 40 s above the mean
        (0.1, 0.0, 1.0, 4.0, 1),      # and 30 to 40 s below it
        (100.0, 0.0, 4.0, 1.0, 1),    # sigma far wider than the window
    ])
    def test_matches_truncnorm_quantiles(self, sigma, a, b, mean, n):
        # both tails of the truncated law, at the smallest and largest
        # uniforms the generator returns
        from scipy import stats
        draw = truncated_normal(KernelSpec.gaussian(sigma,
                                                    Window.interval(a, b)))
        s = sigma / math.sqrt(n)
        target = stats.truncnorm((a - mean) / s, (b - mean) / s, loc=mean,
                                 scale=s)
        vs = [0.0, 1e-12, 1e-6, 0.3, 0.5, 0.7, 1 - 1e-6, 1 - 2 ** -53]
        assert draw(mean, n, vs) == pytest.approx(target.ppf(vs), abs=1e-12)


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
        # a density over no atoms is the empty sum; an intensity needs mass
        assert mixture_density(vm5, [], [], 1.0) == 0.0
        with pytest.raises(ModelError):
            mixture_intensity(vm5, [], [])

    @pytest.mark.parametrize("kappa, atoms, points", [
        (0.0, 200, 99), (0.5, 200, 99), (5.0, 200, 99), (50.0, 200, 99),
        (800.0, 200, 99), (800.0, 20_000, 1024)],
        ids=["0.0", "0.5", "5.0", "50.0", "800.0", "800.0-20000x1024"])
    def test_series_matches_direct_sum(self, circle, kappa, atoms, points):
        # the truncated series is exact up to rounding of order 1e-16 * W;
        # the points are off the grid and outside [0, 2 pi).  The series
        # holds one harmonic at a time, so its memory stays small at 251
        # harmonics on 20,000 atoms.
        spec = KernelSpec.von_mises(kappa, circle)
        rng = np.random.default_rng(3)
        locs = rng.uniform(0.0, TWO_PI, atoms)
        wts = rng.uniform(0.5, 3.0, atoms)
        y = rng.uniform(-10.0, 10.0, points)
        series = mixture_series(spec, locs, wts, y)
        np.testing.assert_allclose(series, mixture_density(spec, locs, wts, y),
                                   rtol=0, atol=1e-13 * wts.sum())
        if kappa == 0.0:  # no harmonics: the uniform density times W
            np.testing.assert_array_equal(series, wts.sum() / TWO_PI)
        assert peak_traced_mb(mixture_series, spec, locs, wts, y) < 2.0

    @pytest.mark.parametrize("atoms, points", [(14_000, 1024), (70_000, 3)])
    def test_direct_sum_in_bounded_blocks(self, atoms, points):
        # a Gaussian posterior-mean shape's size, then more atoms than one
        # block holds; the reference takes one point at a time
        window = Window.interval(0.0, 7.0)
        spec = KernelSpec.gaussian(0.5, window)
        rng = np.random.default_rng(5)
        locs = rng.uniform(0.0, 7.0, atoms)
        wts = rng.uniform(0.5, 3.0, atoms)
        y = window.grid(points)
        reference = [eval_kernel(spec, v, locs) @ wts for v in y]
        np.testing.assert_allclose(mixture_density(spec, locs, wts, y),
                                   reference, rtol=1e-12)
        assert peak_traced_mb(mixture_density, spec, locs, wts, y) < 2.0

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 800.0, 1e4])
    def test_series_keeps_ratios_down_to_tolerance(self, kappa):
        rho = KernelSpec.von_mises(kappa)._rho
        kept, _, exact = BESSEL_EXACT[kappa]
        assert rho.size == kept
        assert np.all(rho >= 1e-17) and np.all(np.diff(rho) <= 0)
        assert exact[kept + 1] < 1e-17
        ns = [n for n in exact if n <= kept]
        np.testing.assert_allclose(rho[np.array(ns, dtype=int) - 1],
                                   [exact[n] for n in ns], rtol=1e-14)



def _mismatch(case):
    """The call of each case, where a pattern, prior or truth on one window
    meets a kernel on another, and the message it must raise."""
    from nhppbayes import (IntensityModel, McmcConfig, PointPattern, PriorSpec,
                           RngStream, build_predictive,
                           estimate_intensity_multi, estimation_risk_mc,
                           predictive_risk_mc, run_mcmc)
    cfg = McmcConfig(burn_in=10, samples=10, thin=1)
    box, wide = Window.interval(0.0, 4.0), Window.interval(0.0, 100.0)
    on_box = PointPattern(box, [0.5, 1.0, 3.0])
    circle_kernel = KernelSpec.von_mises(5.0)
    box_kernel = KernelSpec.gaussian(0.5, box)
    truth = IntensityModel.constant(box, 2.0)
    calls = {
        "run_mcmc": (
            lambda: run_mcmc(on_box, circle_kernel, cfg, RngStream(1)),
            r"pattern lives on the interval \[0, 4\] but the kernel on the "
            r"circle \[0, 6.28319\]"),
        # the parent drew locations on [0, 4] for a point at 5.0
        "run_mcmc-circle-pattern": (
            lambda: run_mcmc(PointPattern(Window.circle(), [1.0, 5.0]),
                             box_kernel, cfg, RngStream(1)),
            r"pattern lives on the circle \[0, 6.28319\] but the kernel on "
            r"the interval \[0, 4\]"),
        "build_predictive": (
            lambda: build_predictive(on_box, PriorSpec.uniform_unit(box),
                                     circle_kernel, 1.0, 1.0, cfg,
                                     RngStream(1)),
            r"prior lives on the interval \[0, 4\] but the kernel on the "
            r"circle"),
        # the parent's lambda-bar integrated to 0.988 here
        "estimate_intensity_multi": (
            lambda: estimate_intensity_multi(
                on_box, PriorSpec.uniform_unit(wide), box_kernel, 1.0, [0.0],
                cfg, RngStream(1)),
            r"prior lives on the interval \[0, 100\] but the kernel on the "
            r"interval \[0, 4\]"),
        "estimation_risk_mc-truth": (
            lambda: estimation_risk_mc(
                IntensityModel.constant(Window.circle(), 1.0),
                PriorSpec.uniform_unit(box), box_kernel, 1.0, 1, cfg,
                RngStream(1)),
            r"truth lives on the circle"),
        "estimation_risk_mc-prior": (
            lambda: estimation_risk_mc(
                truth, PriorSpec.uniform_unit(wide), box_kernel, 1.0, 1, cfg,
                RngStream(1)),
            r"prior lives on the interval \[0, 100\]"),
        "predictive_risk_mc-truth": (
            lambda: predictive_risk_mc(
                IntensityModel.constant(wide, 1.0), PriorSpec.uniform_unit(box),
                box_kernel, 1.0, 1.0, 1, cfg, RngStream(1)),
            r"truth lives on the interval \[0, 100\]"),
        "predictive_risk_mc-prior": (
            lambda: predictive_risk_mc(
                truth, PriorSpec.uniform_unit(Window.circle()), box_kernel,
                1.0, 1.0, 1, cfg, RngStream(1)),
            r"prior lives on the circle"),
    }
    return calls[case]


@pytest.mark.parametrize("case", [
    "run_mcmc", "run_mcmc-circle-pattern", "build_predictive",
    "estimate_intensity_multi", "estimation_risk_mc-truth",
    "estimation_risk_mc-prior", "predictive_risk_mc-truth",
    "predictive_risk_mc-prior"])
def test_mismatched_windows_raise(case):
    # a pattern, prior or truth on another window than the kernel fails
    # with ModelError, which names both windows, before any chain runs
    call, message = _mismatch(case)
    with pytest.raises(ModelError, match=message):
        call()
