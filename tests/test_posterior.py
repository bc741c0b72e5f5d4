import math

import numpy as np
import pytest

from conftest import batch_se, draw_table
from nhppbayes import (McmcConfig, ModelError, PointPattern, PriorSpec,
                       RngStream, Window, estimate_intensity_multi,
                       posterior_lambda_bar, posterior_weight_mean, run_mcmc)
from nhppbayes import posterior
from nhppbayes.kernels import KernelSpec, eval_kernel, mixture_density
from nhppbayes.posterior import base_predictive

TWO_PI = 2.0 * math.pi


class TestPosteriorWeightMean:
    def test_improper_non_shrinkage(self, uniform_prior):
        # |alpha| = 2*pi, gamma = 0, N = 10, s = 1
        assert posterior_weight_mean(uniform_prior, 10, 1.0) == \
            pytest.approx(10.0 + TWO_PI, abs=1e-12)

    def test_improper_shrinkage(self, circle):
        prior = PriorSpec.uniform_unit(circle, gamma=TWO_PI - 1.0)
        assert posterior_weight_mean(prior, 10, 1.0) == pytest.approx(11.0)

    def test_finite_beta(self, circle):
        prior = PriorSpec.uniform_unit(circle, beta=1.0, gamma=TWO_PI - 1.0)
        assert posterior_weight_mean(prior, 0, 1.0) == pytest.approx(0.5)

    def test_requires_positive_exposure(self, uniform_prior):
        with pytest.raises(ModelError):
            posterior_weight_mean(uniform_prior, 3, 0.0)


class TestRunMcmc:
    def test_determinism(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.3, 1.1, 1.2, 4.0])
        cfg = McmcConfig(burn_in=50, samples=40, thin=2)
        a = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(5))
        b = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(5))
        assert a.acceptance_rate == b.acceptance_rate
        for field in ("assignments", "locations", "counts",
                      "cluster_count_trace"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_empty_pattern_returns_prior_state(self, circle, vm5,
                                               uniform_prior):
        # the empty-pattern posterior is the prior: one draw with no
        # clusters, and the generator is untouched so replication streams
        # stay aligned
        gen = RngStream(0).generator()
        res = run_mcmc(PointPattern.empty(circle), uniform_prior, vm5,
                       McmcConfig(), gen)
        assert len(res) == 1
        assert res.assignments.shape == (1, 0)
        assert res.locations.size == res.counts.size == 0
        assert isinstance(res.acceptance_rate, float)
        assert res.diagnostics == {"acceptance_rate": None,
                                   "mean_clusters": 0.0,
                                   "cluster_count_trace": [0], "draws": 1}
        np.testing.assert_array_equal(gen.random(4),
                                      RngStream(0).generator().random(4))

    def test_large_kappa_chain_finishes(self, circle, uniform_prior):
        # kappa = 800 overflows an unscaled exp(kappa cos d)
        sharp = KernelSpec.von_mises(800.0, circle)
        pattern = PointPattern(circle, [0.3, 0.31, 2.0, 4.0, 4.02])
        cfg = McmcConfig(burn_in=50, samples=50, thin=1)
        res = run_mcmc(pattern, uniform_prior, sharp, cfg, RngStream(7))
        assert len(res) == 50
        starts = np.cumsum(res.cluster_count_trace) - res.cluster_count_trace
        np.testing.assert_array_equal(np.add.reduceat(res.counts, starts), 5)
        assert np.all(np.isfinite(res.locations))
        assert 0.0 < res.acceptance_rate <= 1.0

    @pytest.mark.parametrize("kind", ["von_mises", "gaussian"])
    def test_counts_sum_to_n(self, kind, circle, vm5, uniform_prior):
        # the draw table is consistent: each draw's counts are the sizes of
        # its rank classes, no cluster is empty, and the per-draw cluster
        # counts add up to the atoms
        if kind == "gaussian":
            window = Window.interval(0.0, 4.0)
            kernel = KernelSpec.gaussian(0.5, window)
            prior = PriorSpec.uniform_unit(window)
            xs = [0.3, 1.1, 1.2, 3.0, 3.1]
        else:
            window, kernel, prior = circle, vm5, uniform_prior
            xs = [0.3, 1.1, 1.2, 4.0, 4.1]
        cfg = McmcConfig(burn_in=100, samples=50, thin=2)
        res = run_mcmc(PointPattern(window, xs), prior, kernel, cfg,
                       RngStream(6))
        trace = res.cluster_count_trace
        assert res.assignments.shape == (50, 5)
        assert trace.sum() == res.locations.size == res.counts.size
        assert np.all(res.counts >= 1)
        ends = np.cumsum(trace)
        for row, k, end in zip(res.assignments, trace, ends):
            np.testing.assert_array_equal(np.bincount(row, minlength=k),
                                          res.counts[end - k:end])

    def test_single_point_posterior_location(self, circle, vm5, uniform_prior):
        # with one observation and a uniform base the cluster location has
        # stationary law proportional to the kernel centered at the point
        x1 = 1.3
        pattern = PointPattern(circle, [x1])
        cfg = McmcConfig(burn_in=500, samples=4000, thin=5)
        res = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(11))
        locs = res.locations  # one cluster per draw
        z = np.exp(1j * locs)
        cos_trace = np.cos(locs - x1)
        from scipy.special import i0, i1
        target = float(i1(5.0) / i0(5.0))
        se = batch_se(cos_trace)
        assert abs(cos_trace.mean() - target) < 3 * se
        # mean direction centered at the observation
        mean_dir = math.atan2(np.sin(locs - x1).mean(), cos_trace.mean())
        assert abs(mean_dir) < 3 * batch_se(np.sin(locs - x1))

    def test_identical_points_prefer_one_cluster(self, circle, uniform_prior):
        from nhppbayes import KernelSpec
        sharp = KernelSpec.von_mises(50.0, circle)
        pattern = PointPattern(circle, [2.0] * 6)
        cfg = McmcConfig(burn_in=300, samples=1000, thin=2)
        res = run_mcmc(pattern, uniform_prior, sharp, cfg, RngStream(12))
        from collections import Counter
        occupancy = Counter(res.cluster_count_trace.tolist())
        # ranking assertion: the single-cluster state is the modal partition
        assert occupancy[1] == max(occupancy.values())

    def test_two_point_coclustering_matches_quadrature(self, circle, vm5,
                                                       uniform_prior):
        x = [1.0, 1.8]
        pattern = PointPattern(circle, x)
        theta = uniform_prior.total_mass_alpha
        nodes, wts = circle.quad_nodes(4096)
        k1 = eval_kernel(vm5, x[0], nodes)
        k2 = eval_kernel(vm5, x[1], nodes)
        overlap = float(np.dot(wts, k1 * k2)) / TWO_PI
        p_together = overlap / (overlap + theta / TWO_PI ** 2)
        cfg = McmcConfig(burn_in=1000, samples=12000, thin=2)
        res = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(13))
        indicator = (res.assignments[:, 0]
                     == res.assignments[:, 1]).astype(float)
        se = batch_se(indicator)
        assert abs(indicator.mean() - p_together) < 3 * se


class TestBasePredictive:
    def test_gaussian_uniform_base_on_interval(self):
        # the uniform-base shortcut (base term 1) holds only on the circle:
        # on [0, 4] the base term is Phi((4 - y)/sigma) - Phi(-y/sigma)
        from scipy.stats import norm
        window = Window.interval(0.0, 4.0)
        prior = PriorSpec.uniform_unit(window)
        kernel = KernelSpec.gaussian(1.0, window)
        ys = np.linspace(0.0, 4.0, 41)
        exact = norm.cdf(4.0 - ys) - norm.cdf(-ys)
        values = base_predictive(prior, kernel, ys)
        np.testing.assert_allclose(values, exact, rtol=1e-14)
        assert values[0] == pytest.approx(norm.cdf(4.0) - 0.5, rel=1e-14)

    def test_narrow_gaussian_on_a_long_interval(self):
        # sigma = 0.1 on [0, 10000]: half the kernel's mass at an edge, all
        # of it inside, where a trapezoid rule with cells far wider than
        # sigma gave 4.87 at y = 0 and 0.0 at y = 3123.4
        from scipy.stats import norm
        window = Window.interval(0.0, 10000.0)
        prior = PriorSpec.uniform_unit(window)
        kernel = KernelSpec.gaussian(0.1, window)
        ys = np.array([0.0, 3000.0, 3123.4, 5000.0, 9999.95, 10000.0])
        exact = norm.cdf((10000.0 - ys) / 0.1) - norm.cdf(-ys / 0.1)
        values = base_predictive(prior, kernel, ys)
        np.testing.assert_allclose(values, exact, rtol=1e-14)
        np.testing.assert_allclose(values[[0, 1, 2, 3, 5]],
                                   [0.5, 1.0, 1.0, 1.0, 0.5], rtol=1e-14)


class TestPosteriorLambdaBar:
    def test_prior_predictive_is_uniform(self, circle, vm5, uniform_prior):
        density = posterior_lambda_bar(draw_table([([], [])]), uniform_prior,
                                       vm5)
        np.testing.assert_allclose(density.values, 1.0 / TWO_PI, rtol=1e-12)

    def test_integrates_to_one(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.3, 1.1, 4.0])
        cfg = McmcConfig(burn_in=200, samples=200, thin=2)
        res = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(21))
        density = posterior_lambda_bar(res, uniform_prior, vm5)
        assert density.integral() == pytest.approx(1.0, abs=1e-3)

    def test_single_point_matches_quadrature_oracle(self, circle, vm5,
                                                    uniform_prior):
        # closed form for one observation: the posterior expectation of the
        # kernel is integral k(y,u) k(x,u) du (uniform unit base), so
        # lambda_bar(y) = (1 + that integral) / (|alpha| + 1).  The standard
        # error comes from independent chains, which stays honest at nodes
        # far from the observation where within-chain traces are heavy-tailed.
        x1 = 2.2
        pattern = PointPattern(circle, [x1])
        theta = uniform_prior.total_mass_alpha
        grid = circle.grid(256)
        nodes, wts = circle.quad_nodes(4096)
        kx = eval_kernel(vm5, x1, nodes)
        oracle = np.array([
            (1.0 + float(np.dot(wts, eval_kernel(vm5, y, nodes) * kx)))
            / (theta + 1.0) for y in grid])
        cfg = McmcConfig(burn_in=1000, samples=8000, thin=5)
        chains = np.stack([
            posterior_lambda_bar(
                run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(51, c)),
                uniform_prior, vm5, grid).values
            for c in range(16)])
        grand = chains.mean(axis=0)
        se = chains.std(axis=0, ddof=1) / math.sqrt(chains.shape[0])
        assert np.all(np.abs(grand - oracle) < 3 * se)


def fixed_draws(locations_per_draw, n_obs):
    """Draws with the given cluster locations and near-equal cluster sizes."""
    return draw_table(
        (locs, np.diff(np.linspace(0, n_obs, len(locs) + 1).round()))
        for locs in locations_per_draw)


class TestLambdaBarSeries:
    """The circle's series path against the direct kernel sum it replaces."""

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0, 800.0])
    @pytest.mark.parametrize("base", ["uniform", "cosine"])
    @pytest.mark.parametrize("atoms", ["spread", "one_location"])
    @pytest.mark.parametrize("grid_size", [64, 512, 1024])
    def test_matches_direct_sum(self, circle, uniform_prior, kappa, base,
                                atoms, grid_size, monkeypatch):
        # the base term comes from the prior, or, for "cosine", is
        # patched to 1 + cos(y)/2, which leaves the series less positive
        # headroom where it dips to 1/2
        kernel = KernelSpec.von_mises(kappa, circle)
        prior = uniform_prior
        grid = circle.grid(grid_size)
        base_pred = base_predictive(prior, kernel, grid)
        if base == "cosine":
            base_pred = 1.0 + 0.5 * np.cos(grid)
            monkeypatch.setattr(posterior, "base_predictive",
                                lambda prior, kernel, grid: base_pred)
        rng = np.random.default_rng(17)
        if atoms == "spread":
            locs = [rng.uniform(0.0, TWO_PI, k) for k in (1, 7, 30)]
        else:
            locs = [np.full(k, 2.5) for k in (1, 7, 30)]
        draws = fixed_draws(locs, 30)
        series = posterior_lambda_bar(draws, prior, kernel, grid).values
        mixture = mixture_density(kernel, np.concatenate(locs), draws.counts,
                                  grid)
        direct = ((mixture / len(draws) + base_pred)
                  / (prior.total_mass_alpha + 30))
        assert np.all(series > 0)
        np.testing.assert_allclose(series, direct, rtol=1e-10, atol=0)


class TestEstimateIntensity:
    def test_empty_pattern_prior_mean(self, circle, vm5, uniform_prior):
        summary, = estimate_intensity_multi(
            PointPattern.empty(circle), uniform_prior, vm5, 1.0, [0.0],
            McmcConfig(), RngStream(0))
        assert summary.weight_mean == pytest.approx(TWO_PI)
        np.testing.assert_allclose(summary.lambda_hat.values, 1.0, rtol=1e-12)

    def test_lambda_hat_integrates_to_weight(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.3, 1.1, 4.0])
        cfg = McmcConfig(burn_in=200, samples=200, thin=2)
        summary, = estimate_intensity_multi(pattern, uniform_prior, vm5, 1.0,
                                            [0.0], cfg, RngStream(31))
        assert summary.lambda_hat.integral() == \
            pytest.approx(summary.weight_mean, abs=1e-3 * summary.weight_mean)

    def test_shape_invariant_across_gamma_and_beta(self, circle, vm5):
        pattern = PointPattern(circle, [0.3, 1.1, 4.0])
        cfg = McmcConfig(burn_in=100, samples=100, thin=1)
        priors = [PriorSpec.uniform_unit(circle, gamma=0.0),
                  PriorSpec.uniform_unit(circle, gamma=TWO_PI - 1.0),
                  PriorSpec.uniform_unit(circle, beta=2.0, gamma=1.0)]
        values = []
        for prior in priors:
            summary, = estimate_intensity_multi(pattern, prior, vm5, 1.0,
                                                [prior.gamma], cfg,
                                                RngStream(32))
            values.append(summary.lambda_bar.values)
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[0], values[2])

    def test_time_scale_change(self, circle, vm5, uniform_prior):
        # doubling s leaves the shape bit-identical and exactly halves the
        # weight (halving is exact in binary floating point)
        pattern = PointPattern(circle, [0.3, 1.1, 4.0])
        cfg = McmcConfig(burn_in=100, samples=100, thin=1)
        one, = estimate_intensity_multi(pattern, uniform_prior, vm5, 1.0,
                                        [0.0], cfg, RngStream(33))
        two, = estimate_intensity_multi(pattern, uniform_prior, vm5, 2.0,
                                        [0.0], cfg, RngStream(33))
        np.testing.assert_array_equal(one.lambda_bar.values,
                                      two.lambda_bar.values)
        assert two.weight_mean == one.weight_mean / 2.0

    def test_multi_gamma_shares_shape_object(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.3, 1.1])
        cfg = McmcConfig(burn_in=100, samples=80, thin=1)
        a, b = estimate_intensity_multi(pattern, uniform_prior, vm5, 1.0,
                                        [0.0, TWO_PI - 1.0], cfg, RngStream(34))
        assert a.lambda_bar is b.lambda_bar
        np.testing.assert_array_equal(a.lambda_hat.values,
                                      a.weight_mean * a.lambda_bar.values)
        np.testing.assert_array_equal(b.lambda_hat.values,
                                      b.weight_mean * b.lambda_bar.values)

    def test_json_summary(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.5])
        cfg = McmcConfig(burn_in=50, samples=20, thin=1)
        summary, = estimate_intensity_multi(pattern, uniform_prior, vm5, 1.0,
                                            [0.0], cfg, RngStream(35),
                                            grid_size=64)
        obj = summary.to_json()
        assert len(obj["grid"]) == 64
        assert obj["weight_mean"] == summary.weight_mean
        assert "acceptance_rate" in obj["diagnostics"]
