import math
import time
import warnings

import numpy as np
import pytest
from conftest import draw_table, peak_traced_mb

from nhppbayes import (KernelSpec, McmcConfig, ModelError, PointPattern,
                       PriorSpec, RngStream, Window, build_predictive,
                       nb_log_pmf, nb_total_mass, posterior_lambda_bar,
                       predictive_count_params, predictive_point_logdensity,
                       run_mcmc, sample_nhpp)
from nhppbayes.kernels import eval_kernel, sample_kernel_posterior
from nhppbayes.posterior import base_predictive

TWO_PI = 2.0 * math.pi


def _alpha_integral(prior, kernel, ys):
    """integral of prod_i k(y_i, u) du over the window (the uniform unit
    base), by quadrature."""
    nodes, wts = prior.window.quad_nodes(4096)
    integrand = np.ones(nodes.size)
    for y in ys:
        integrand = integrand * eval_kernel(kernel, y, nodes)
    return float(wts @ integrand)


def _loop_point_logdensity(draws, prior, kernel, ys, pattern, gen, aug):
    """The point layer as scalar loops over rows and clusters.

    It draws the stream in the array version's order: per future point, one
    uniform per row, then the locations of the clusters that point opens.
    """
    trace = draws.cluster_count_trace
    states = [([*draws.locations[end - k:end]], [*draws.counts[end - k:end]])
              for k, end in zip(trace, np.cumsum(trace)) for _ in range(aug)]
    base = base_predictive(prior, kernel, np.asarray(ys))
    denom = prior.total_mass_alpha + pattern.count
    log_prod = np.zeros(len(states))
    for j, y in enumerate(ys):
        picks = gen.random(len(states))
        opened = []
        for r, (locs, counts) in enumerate(states):
            w = [n * float(eval_kernel(kernel, y, u))
                 for u, n in zip(locs, counts)]
            numer = base[j] + sum(w)
            log_prod[r] += math.log(numer / denom)
            pick = picks[r] * numer - base[j]
            if pick < 0:
                opened.append(r)
                continue
            acc, c = 0.0, 0
            for c, wc in enumerate(w):
                acc += wc
                if pick < acc:
                    break
            counts[c] += 1
        new = sample_kernel_posterior(kernel, y, gen, len(opened))
        for r, u in zip(opened, new):
            states[r][0].append(u)
            states[r][1].append(1)
        denom += 1.0
    peak = log_prod.max()
    return peak + math.log(np.mean(np.exp(log_prod - peak)))


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

    @pytest.mark.parametrize("r", [math.inf, math.nan, 1e306])
    def test_rejects_r_beyond_lgamma(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError):
                nb_log_pmf(r, 0.5, 3)

    def test_total_mass_fails_fast_near_p_one(self):
        # the sum would need about 2.3e8 terms, past its 1e7 cap
        t0 = time.perf_counter()
        with pytest.raises(ModelError, match="did not certify"):
            nb_total_mass(1.0, 1.0 - 1e-7)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("r", [400.0, 3000.0])
    def test_total_mass_rejects_underflowing_first_term(self, r):
        # (1 - p)^r underflows to 0 here, which would sum to a "certified" 0
        assert nb_log_pmf(r, 0.9, 0) < math.log(5e-324)
        with pytest.raises(ModelError):
            nb_total_mass(r, 0.9)


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
        prior_state = draw_table([([], [])])
        assert predictive_point_logdensity(prior_state, uniform_prior, vm5, [],
                                           PointPattern.empty(circle),
                                           RngStream(0)) == 0.0
        assert predictive_point_logdensity(prior_state, uniform_prior, vm5, [],
                                           pattern, RngStream(0)) == 0.0

    def test_single_future_point_equals_shape_estimate(self, circle, vm5,
                                                       uniform_prior):
        # with one future point no augmentation happens before scoring, so
        # the estimate is the posterior-mean shape at that point exactly
        pattern = PointPattern(circle, [0.4, 1.2, 1.3])
        cfg = McmcConfig(burn_in=200, samples=300, thin=2)
        draws = run_mcmc(pattern, uniform_prior, vm5, cfg, RngStream(61))
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
                             RngStream(63, chain))
            log_val = predictive_point_logdensity(
                draws, uniform_prior, vm5, [y1], pattern,
                RngStream(64, chain), aug_replicates=1)
            values.append(math.exp(log_val))
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - oracle) < 3 * se

    @pytest.mark.parametrize("path", ["uniform", "gaussian"])
    def test_two_points_one_draw_closed_form(self, path, circle, vm5,
                                             uniform_prior):
        # M = 2 given one fixed clustering: the first point scores
        # (b1 + S1)/(|alpha| + N), then joins cluster c with weight
        # n_c k(y1, u_c) or opens one at u ~ k(y1, u) alpha(du), so the
        # expected product is [(b1 + S1)(b2 + S2) + sum_c n_c k1c k2c
        # + integral k(y1, u) k(y2, u) alpha(du)] / ((|alpha|+N)(|alpha|+N+1))
        if path == "gaussian":
            window = Window.interval(0.0, 4.0)
            kernel = KernelSpec.gaussian(1.0, window)
            prior = PriorSpec.uniform_unit(window)
            locs, ys = [0.8, 3.1], [0.3, 1.9]
        else:
            window, kernel, prior = circle, vm5, uniform_prior
            locs, ys = [1.0, 4.0], [1.4, 2.5]
        pattern = PointPattern(window, [locs[0], locs[0], locs[1]])
        draws = draw_table([(locs, [2, 1])])
        n_c = np.array([2.0, 1.0])
        k1 = eval_kernel(kernel, ys[0], np.asarray(locs))
        k2 = eval_kernel(kernel, ys[1], np.asarray(locs))
        b1, b2 = base_predictive(prior, kernel, np.asarray(ys))
        theta = prior.total_mass_alpha
        exact = ((b1 + n_c @ k1) * (b2 + n_c @ k2) + n_c @ (k1 * k2)
                 + _alpha_integral(prior, kernel, ys)) \
            / ((theta + 3.0) * (theta + 4.0))
        values = np.array([math.exp(predictive_point_logdensity(
            draws, prior, kernel, ys, pattern, RngStream(76, i),
            aug_replicates=8)) for i in range(2000)])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) < 4 * se

    def test_three_points_empty_pattern_partition_sum(self, circle, vm5,
                                                      uniform_prior):
        # empty pattern, M = 3: the joint density is the sum over the five
        # partitions of the CRP probability times, per block B, the prior
        # mixture integral of prod_{i in B} k(y_i, u) du / 2 pi
        ys = [1.0, 1.3, 4.0]
        theta = uniform_prior.total_mass_alpha

        def block(*idx):
            return _alpha_integral(uniform_prior, vm5,
                                   [ys[i] for i in idx]) / theta

        singles = block(0) * block(1) * block(2)
        pairs = (block(0, 1) * block(2) + block(0, 2) * block(1)
                 + block(1, 2) * block(0))
        exact = (theta ** 2 * singles + theta * pairs
                 + 2.0 * block(0, 1, 2)) / ((theta + 1.0) * (theta + 2.0))
        values = np.array([math.exp(predictive_point_logdensity(
            draw_table([([], [])]), uniform_prior, vm5, ys,
            PointPattern.empty(circle), RngStream(77, i), aug_replicates=8))
            for i in range(6000)])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - exact) < 4 * se

    @pytest.mark.parametrize("path", ["uniform", "gaussian", "empty",
                                      "kappa0.5", "kappa50", "kappa800",
                                      "long"])
    def test_matches_scalar_loop_reference(self, path, circle, vm5,
                                           uniform_prior):
        # same stream, same sums up to the von Mises trig expansion: the
        # slot-major bookkeeping (rows, used slots, joins, new clusters)
        # equals plain loops and leaves the generator where they leave it
        aug, ys = 3, [0.35, 2.0, 3.9, 0.5, 2.05, 1.0]
        if path == "gaussian":
            window = Window.interval(0.0, 4.0)
            kernel = KernelSpec.gaussian(0.5, window)
            prior = PriorSpec.uniform_unit(window)
        else:
            window, kernel, prior = circle, vm5, uniform_prior
        if path.startswith("kappa"):
            kernel = KernelSpec.von_mises(float(path[5:]), circle)
        if path == "long":
            aug, ys = 8, np.mod(2.4 * np.arange(40), TWO_PI)
        xs = [] if path == "empty" else [0.3, 0.4, 1.9, 2.1, 2.2, 3.5]
        pattern = PointPattern(window, xs)
        cfg = McmcConfig(burn_in=20, samples=6, thin=3)
        draws = run_mcmc(pattern, prior, kernel, cfg, RngStream(78))
        fast_gen, slow_gen = (RngStream(79).generator() for _ in range(2))
        fast = predictive_point_logdensity(draws, prior, kernel, ys, pattern,
                                           fast_gen, aug_replicates=aug)
        slow = _loop_point_logdensity(draws, prior, kernel, ys, pattern,
                                      slow_gen, aug)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)
        assert fast_gen.random() == slow_gen.random()

    def test_peak_memory_at_dense_size(self, sine2, vm5, uniform_prior):
        # the predictive_dense shape: 800 rows, K_max = 22, M = 52; the slots
        # grow as clusters open rather than padding every row to K_max + M
        gen = RngStream(5, 0).generator()
        observed = sample_nhpp(sine2, 4.0, gen)
        future = sample_nhpp(sine2, 4.0, gen)
        draws = run_mcmc(observed, uniform_prior, vm5,
                         McmcConfig(burn_in=100, samples=100, thin=1), gen)
        assert (observed.count, future.count) == (56, 52)
        assert draws.cluster_count_trace.max() == 22
        assert peak_traced_mb(predictive_point_logdensity, draws,
                              uniform_prior, vm5, future.points, observed,
                              gen, 8) < 1.6

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
            draws = run_mcmc(pattern, prior, vm5, cfg, RngStream(65))
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
        count_term = nb_log_pmf(predictive.r, predictive.p, 1)
        point_term = predictive_point_logdensity(
            predictive.draws, uniform_prior, vm5, future.points, pattern,
            RngStream(70), predictive.aug_replicates)
        total = predictive.log_score(future, RngStream(70))
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
        point = predictive_point_logdensity(
            predictive.draws, uniform_prior, vm5, future.points,
            predictive.pattern, RngStream(74), predictive.aug_replicates)
        # first point scores the flat prior predictive 1/(2 pi); the second
        # sees one absorbed cluster
        assert point < 2 * math.log(1.0 / TWO_PI) + 1.0
        assert math.isfinite(point)
