import math

import numpy as np
import pytest

from nhppbayes import (McmcConfig, ModelError, PointPattern, PriorSpec,
                       RngStream, build_predictive, nb_log_pmf, nb_total_mass,
                       posterior_lambda_bar, predictive_count_params,
                       predictive_log_score, predictive_point_logdensity,
                       run_mcmc)
from nhppbayes.kernels import eval_kernel
from nhppbayes.posterior import ClusterState

TWO_PI = 2.0 * math.pi


class TestNbLogPmf:
    def test_zero_count(self):
        r, p = 4.7, 0.3
        assert nb_log_pmf(r, p, 0) == pytest.approx(r * math.log1p(-p),
                                                    rel=1e-14)

    def test_geometric_special_case(self):
        # r = 1 makes the pmf geometric: p^m (1-p)
        assert nb_log_pmf(1.0, 0.5, 3) == pytest.approx(-4 * math.log(2),
                                                        rel=1e-14)

    @pytest.mark.parametrize("r,p", [(11.0, 0.5), (TWO_PI, 0.5), (1.0, 0.9)])
    def test_normalization(self, r, p):
        total, tail = nb_total_mass(r, p, tol=1e-10)
        assert tail < 1e-10
        assert abs(total - 1.0) < 1e-10

    def test_domain_checks(self):
        with pytest.raises(ModelError):
            nb_log_pmf(0.0, 0.5, 1)
        with pytest.raises(ModelError):
            nb_log_pmf(1.0, 1.0, 1)
        with pytest.raises(ModelError):
            nb_log_pmf(1.0, 0.5, -1)


class TestPredictiveCountParams:
    def test_improper_shrinkage_case(self, circle):
        prior = PriorSpec.uniform_unit(circle, gamma=TWO_PI - 1.0)
        r, p = predictive_count_params(prior, 10, 1.0, 1.0)
        assert r == pytest.approx(11.0)
        assert p == pytest.approx(0.5)

    def test_small_beta_kills_success_probability(self, circle):
        prior = PriorSpec.uniform_unit(circle, beta=1e-8)
        _, p = predictive_count_params(prior, 0, 1.0, 1.0)
        assert p < 1e-7

    def test_equal_exposures_non_shrinkage(self, uniform_prior):
        r, p = predictive_count_params(uniform_prior, 0, 2.0, 2.0)
        assert r == pytest.approx(TWO_PI)
        assert p == pytest.approx(0.5)

    def test_success_probability_depends_on_beta(self, circle):
        finite = PriorSpec.uniform_unit(circle, beta=1.0)
        _, p = predictive_count_params(finite, 0, 1.0, 1.0)
        assert p == pytest.approx(1.0 / 3.0)


class TestPointLayer:
    def test_empty_future_is_zero(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.5])
        assert predictive_point_logdensity((), uniform_prior, vm5, [],
                                           PointPattern.empty(circle),
                                           RngStream(0)) == 0.0
        assert predictive_point_logdensity((), uniform_prior, vm5, [],
                                           pattern, RngStream(0)) == 0.0

    def test_single_future_point_equals_shape_estimate(self, circle, vm5,
                                                       uniform_prior):
        # with one future point no augmentation happens before scoring, so
        # the estimate is the posterior-mean shape at that point exactly
        pattern = PointPattern(circle, [0.4, 1.2, 1.3])
        cfg = McmcConfig(burn_in=200, samples=300, thin=2)
        draws = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(61)).draws
        grid = circle.grid(512)
        density = posterior_lambda_bar(draws, uniform_prior, vm5, grid)
        y = float(grid[100])
        log_val = predictive_point_logdensity(draws, uniform_prior, vm5, [y],
                                              pattern, RngStream(62),
                                              aug_replicates=2)
        assert math.exp(log_val) == pytest.approx(density.values[100],
                                                  rel=1e-10)

    def test_one_observation_one_future_quadrature_oracle(self, circle, vm5,
                                                          uniform_prior):
        # N = M = 1 exact value: (1 + integral k(y,u) k(x,u) du)/(|alpha|+1)
        x1, y1 = 2.2, 3.0
        pattern = PointPattern(circle, [x1])
        theta = uniform_prior.total_mass_alpha
        nodes, wts = circle.quad_nodes(4096)
        oracle = (1.0 + float(np.dot(
            wts, eval_kernel(vm5, y1, nodes) * eval_kernel(vm5, x1, nodes)))) \
            / (theta + 1.0)
        cfg = McmcConfig(burn_in=500, samples=6000, thin=5)
        values = []
        for chain in range(12):
            draws = run_mcmc(pattern, uniform_prior, vm5, cfg,
                             RngStream(63, chain)).draws
            log_val = predictive_point_logdensity(
                draws, uniform_prior, vm5, [y1], pattern,
                RngStream(64, chain), aug_replicates=1)
            values.append(math.exp(log_val))
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - oracle) < 3 * se

    def test_one_draw_one_point_closed_form_non_uniform_base(
            self, circle, vm5, cosine_prior):
        # (base term + sum_c n_c k(y, u_c)) / (|alpha| + N), with the base
        # term from its closed form 1 + I1(k)/I0(k) cos(y) / 2
        from scipy.special import i0, i1
        pattern = PointPattern(circle, [0.9, 1.1, 4.2])
        state = ClusterState([0, 0, 1], [1.0, 4.0], [2, 1])
        y = 2.5
        base = 1.0 + 0.5 * float(i1(5.0) / i0(5.0)) * math.cos(y)
        clusters = 2.0 * eval_kernel(vm5, y, 1.0) + eval_kernel(vm5, y, 4.0)
        closed = (base + float(clusters)) / (TWO_PI + 3.0)
        log_val = predictive_point_logdensity((state,), cosine_prior, vm5,
                                              [y], pattern, RngStream(75),
                                              aug_replicates=1)
        assert math.exp(log_val) == pytest.approx(closed, rel=1e-12)

    def test_point_layer_free_of_gamma_and_beta(self, circle, vm5):
        # the point layer reads only the base measure, so members of the
        # family with different gamma or beta score a future identically
        pattern = PointPattern(circle, [0.4, 1.2])
        cfg = McmcConfig(burn_in=150, samples=150, thin=1)
        ys = [2.0, 2.5, 5.0]
        results = []
        for prior in (PriorSpec.uniform_unit(circle, gamma=0.0),
                      PriorSpec.uniform_unit(circle, gamma=TWO_PI - 1.0),
                      PriorSpec.uniform_unit(circle, beta=3.0)):
            draws = run_mcmc(pattern, prior, vm5, cfg, RngStream(65)).draws
            results.append(predictive_point_logdensity(
                draws, prior, vm5, ys, pattern, RngStream(66)))
        assert results[0] == results[1] == results[2]


class TestLogScore:
    def test_empty_future(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.5, 2.0])
        cfg = McmcConfig(burn_in=100, samples=50, thin=1)
        predictive = build_predictive(pattern, uniform_prior, vm5, 1.0, 1.0,
                                      cfg, RngStream(67))
        score = predictive.log_score(PointPattern.empty(circle), RngStream(68))
        assert score == pytest.approx(
            predictive.r * math.log1p(-predictive.p), rel=1e-12)

    def test_additivity(self, circle, vm5, uniform_prior):
        pattern = PointPattern(circle, [0.5, 2.0])
        future = PointPattern(circle, [1.0])
        cfg = McmcConfig(burn_in=100, samples=80, thin=1)
        predictive = build_predictive(pattern, uniform_prior, vm5, 1.0, 1.0,
                                      cfg, RngStream(69))
        count_term = predictive.count_log_pmf(1)
        point_term = predictive.point_log_density(future.points, RngStream(70))
        total = predictive_log_score(predictive, future, RngStream(70))
        assert total == count_term + point_term

    def test_window_mismatch_rejected(self, circle, vm5, uniform_prior):
        from nhppbayes import Window
        pattern = PointPattern(circle, [0.5])
        cfg = McmcConfig(burn_in=50, samples=20, thin=1)
        predictive = build_predictive(pattern, uniform_prior, vm5, 1.0, 1.0,
                                      cfg, RngStream(71))
        other = PointPattern(Window.interval(0, 1), [0.5])
        with pytest.raises(ModelError):
            predictive.log_score(other, RngStream(72))

    def test_empty_pattern_uses_prior_state(self, circle, vm5, uniform_prior):
        # no observations: the count layer has r = |alpha| - gamma and the
        # point layer scores against the prior predictive (uniform here)
        predictive = build_predictive(PointPattern.empty(circle),
                                      uniform_prior, vm5, 1.0, 1.0,
                                      rng=RngStream(73))
        assert predictive.r == pytest.approx(TWO_PI)
        future = PointPattern(circle, [1.0, 4.0])
        point = predictive.point_log_density(future.points, RngStream(74))
        # first point scores the flat prior predictive 1/(2 pi); the second
        # sees one absorbed cluster
        assert point < 2 * math.log(1.0 / TWO_PI) + 1.0
        assert math.isfinite(point)
