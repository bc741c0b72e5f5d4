import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import kl_decomposed, report_entry
from nhppbayes import (IntensityModel, McmcConfig, ModelError, PriorSpec,
                       RngStream, domination_study, estimation_risk_mc,
                       integral_representation_check, kl_intensity,
                       mixture_intensity, poisson_derivative_identity,
                       poisson_log_shift_bound, poisson_pmf_series,
                       predictive_risk_mc, weight_risk_difference_exact)

TWO_PI = 2.0 * math.pi


class TestKlIntensity:
    def test_identical_models(self, sine2):
        assert kl_intensity(sine2, sine2, 1.0) <= 1e-12

    def test_constant_closed_form(self, circle):
        # t * integral(3 - 2 + 2 log(2/3)) over the circle
        two = IntensityModel.constant(circle, 2.0)
        three = IntensityModel.constant(circle, 3.0)
        expected = TWO_PI * (1.0 + 2.0 * math.log(2.0 / 3.0))
        assert kl_intensity(two, three, 1.0) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_against_independent_quadrature(self, sine2, circle):
        # oracle: trapezoid of the integrand at doubled resolution with the
        # endpoint-inclusive rule
        two = IntensityModel.constant(circle, 2.0)
        xs = np.linspace(0.0, TWO_PI, 8193)
        lam = np.sin(xs) + 2.0
        integrand = 2.0 - lam + lam * np.log(lam / 2.0)
        oracle = np.trapezoid(integrand, xs)
        assert kl_intensity(sine2, two, 1.0) == pytest.approx(oracle, abs=1e-8)
        assert oracle > 0

    def test_scales_with_exposure(self, sine2, circle):
        two = IntensityModel.constant(circle, 2.0)
        assert kl_intensity(sine2, two, 3.0) == \
            pytest.approx(3.0 * kl_intensity(sine2, two, 1.0), rel=1e-12)

    def test_rejects_zero_estimate(self, sine2, circle):
        zeroed = IntensityModel(circle, 1.0,
                                lambda u: np.maximum(np.sin(u), 0.0))
        with pytest.raises(ModelError):
            kl_intensity(sine2, zeroed, 1.0)

    def test_window_mismatch(self, sine2):
        other = IntensityModel.constant(
            __import__("nhppbayes").Window.interval(0, 1), 2.0)
        with pytest.raises(ModelError):
            kl_intensity(sine2, other, 1.0)


class TestKlDecomposed:
    def test_equal_shapes_double_weight(self, circle):
        two = IntensityModel.constant(circle, 2.0)
        four = IntensityModel.constant(circle, 4.0)
        weight, shape = kl_decomposed(two, four, 1.0)
        tw = 1.0 * 4.0 * math.pi
        assert shape == pytest.approx(0.0, abs=1e-12)
        assert weight == pytest.approx(tw * (1.0 - math.log(2.0)), rel=1e-12)

    def test_equal_weights_only_shape(self, sine2, circle):
        two = IntensityModel.constant(circle, 2.0)
        weight, shape = kl_decomposed(sine2, two, 1.0)
        assert weight == pytest.approx(0.0, abs=1e-12)
        assert shape > 0

    def test_sum_matches_direct_divergence(self, sine2, vm5):
        est = mixture_intensity(vm5, [0.5, 3.0, 4.2], [4.0, 5.0, 2.0])
        weight, shape = kl_decomposed(sine2, est, 1.7)
        direct = kl_intensity(sine2, est, 1.7)
        assert weight + shape == pytest.approx(direct, abs=1e-10)
        assert weight >= 0 and shape >= 0


class TestPoissonSeries:
    def test_pmf_sums_to_one(self):
        for theta in (0.0, 0.3, 4 * math.pi, 100.0):
            _, pmf = poisson_pmf_series(theta)
            assert abs(pmf.sum() - 1.0) < 1e-11

    def test_truncation_contains_mass(self):
        ns, _ = poisson_pmf_series(50.0, tail=1e-12)
        assert float(stats.poisson.sf(ns[-1], 50.0)) < 1e-12

    @pytest.mark.parametrize("theta", [1e11, 1e308])
    def test_past_the_term_cap_fails_fast(self, theta):
        # rejected before any array is built: 1e11's window would take about
        # 4.7e6 terms, and at 1e308 floor(theta) + j rounds back to theta
        start = time.perf_counter()
        with pytest.raises(ModelError, match="series terms"):
            poisson_pmf_series(theta)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("theta", [1.7e6, 1e9])
    def test_window_fits_under_the_cap(self, theta):
        # the window grows as sqrt(theta): about 19,000 and 470,000 terms
        start = time.perf_counter()
        ns, pmf = poisson_pmf_series(theta)
        assert time.perf_counter() - start < 1.0
        assert ns.size == pmf.size < 500_000
        assert float(stats.poisson.cdf(ns[0] - 1, theta)) < 1e-12
        assert float(stats.poisson.sf(ns[-1], theta)) < 1e-12
        assert abs(pmf.sum() - 1.0) < 1e-14

    def test_accepts_a_million(self):
        # each omitted tail is at most the tail, and every term matches a
        # 40-digit oracle to within the omitted mass (at most twice the
        # tail), far below the 1e-9 that exp(n log theta - theta
        # - lgamma(n + 1)) loses at this size
        mpmath = pytest.importorskip("mpmath")
        theta, tail = 1e6, 1e-12
        ns, pmf = poisson_pmf_series(theta, tail)
        lo, hi = int(ns[0]), int(ns[-1])
        assert float(stats.poisson.cdf(lo - 1, theta)) <= tail
        assert float(stats.poisson.sf(hi, theta)) <= tail
        assert ns.size == hi - lo + 1 < 16_000
        assert abs(pmf.sum() - 1.0) < 1e-14
        picks = np.linspace(0, ns.size - 1, 60).astype(int)
        with mpmath.workdps(40):
            exact = [mpmath.exp(int(n) * mpmath.log(theta) - theta
                                - mpmath.loggamma(int(n) + 1))
                     for n in ns[picks]]
            worst = max(abs(mpmath.mpf(float(p)) / e - 1)
                        for p, e in zip(pmf[picks], exact))
        assert worst < 2 * tail


class TestWeightRiskDifference:
    def test_identical_exponents_vanish(self):
        assert weight_risk_difference_exact(1.0, 0.0, 0.0, 2.0, 1.0) == 0.0

    def test_small_weight_limit(self):
        # as w -> 0 the count is 0 a.s. and the value tends to (|alpha|-1)/tau
        abs_alpha, tau = TWO_PI, 2.0
        val = weight_risk_difference_exact(abs_alpha, 0.0, abs_alpha - 1.0,
                                           1e-12, tau)
        assert val == pytest.approx((abs_alpha - 1.0) / tau, rel=1e-9)

    @pytest.mark.parametrize("w", [1e6, 1e8, 1e9])
    def test_large_weight_keeps_its_digits(self, w):
        # at gamma = 0 and gamma_tilde = |alpha| - 1, w times the difference
        # tends to (|alpha| - 1)^2 / 2; subtracting two expectations of size
        # w log w loses that by w = 1e6
        abs_alpha = TWO_PI
        val = weight_risk_difference_exact(abs_alpha, 0.0, abs_alpha - 1.0,
                                           w, 1.0)
        assert w * val == pytest.approx((abs_alpha - 1.0) ** 2 / 2, rel=1e-5)

    def test_against_monte_carlo(self):
        abs_alpha, w, tau = TWO_PI, 4.0 * math.pi, 1.0
        exact = weight_risk_difference_exact(abs_alpha, 0.0, abs_alpha - 1.0,
                                             w, tau)
        gen = np.random.default_rng(7)
        n = gen.poisson(tau * w, 1_000_000)
        samples = ((abs_alpha - 1.0) / tau
                   - w * np.log(n + abs_alpha) + w * np.log(n + 1.0))
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) < 3 * se

    def test_generic_pair_positive(self):
        assert weight_risk_difference_exact(3.0, 0.0, 2.0, 1.0, 2.0) > 0

    def test_domain_checks(self):
        with pytest.raises(ModelError):
            weight_risk_difference_exact(2.0, 2.5, 1.0, 1.0, 1.0)
        with pytest.raises(ModelError):
            weight_risk_difference_exact(2.0, 0.0, 1.0, -1.0, 1.0)


class TestPoissonLogShiftBound:
    def test_degenerate(self):
        lhs, rhs = poisson_log_shift_bound(0.0, 1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_unit_case_series_oracle(self):
        lhs, rhs = poisson_log_shift_bound(1.0, 1.0)
        oracle = sum(math.exp(-1.0) / math.factorial(n)
                     * (math.log(n + 2.0) - math.log(n + 1.0))
                     for n in range(60))
        assert lhs == pytest.approx(oracle, rel=1e-12)
        assert rhs == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert lhs < rhs

    def test_domination_use_case(self):
        c, theta = TWO_PI - 1.0, 4.0 * math.pi
        lhs, rhs = poisson_log_shift_bound(theta, c)
        assert rhs == pytest.approx(c * (1.0 - math.exp(-theta)), rel=1e-14)
        assert lhs < rhs

    def test_grid(self):
        for theta in np.geomspace(0.01, 50, 20):
            for c in np.geomspace(0.1, 10, 10):
                lhs, rhs = poisson_log_shift_bound(float(theta), float(c))
                assert lhs < rhs


class TestPoissonDerivativeIdentity:
    def test_linear(self):
        numeric, identity = poisson_derivative_identity(
            2.0, 1.5, lambda n: n.astype(float))
        assert identity == pytest.approx(2.0, rel=1e-12)
        assert numeric == pytest.approx(2.0, rel=1e-7)

    def test_quadratic_moment_algebra(self):
        w, tau = 2.0, 1.5
        numeric, identity = poisson_derivative_identity(
            w, tau, lambda n: n.astype(float) ** 2)
        # E[(N+1)^2 - N^2] = E[2N + 1] = 2 tau w + 1
        assert identity == pytest.approx(w * (2 * tau * w + 1.0), rel=1e-12)
        assert numeric == pytest.approx(identity, rel=1e-7)

    def test_log_h(self):
        numeric, identity = poisson_derivative_identity(
            3.0, 0.8, lambda n: np.log(n + 1.0))
        assert abs(numeric - identity) / abs(identity) < 1e-6


class TestDominationStudy:
    def test_positive_table(self):
        report = domination_study(TWO_PI, 0.0,
                                  [0.1, 1.0, 4 * math.pi, 50.0], 1.0)
        assert len(report.entries) == 4
        assert all(e.estimate > 0 for e in report.entries)

    def test_boundary_base_mass(self):
        with pytest.raises(ModelError, match="violates"):
            domination_study(1.0, 0.0, [1.0], 1.0)

    def test_reports_precondition_violation(self):
        with pytest.raises(ModelError, match="violates"):
            domination_study(2.0, 1.5, [1.0], 1.0)

    def test_csv_roundtrip(self, tmp_path):
        report = domination_study(TWO_PI, 0.0, [1.0], 1.0)
        path = tmp_path / "study.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,estimate,std_error,replications"
        assert len(lines) == 2


class TestEstimationRiskMc:
    def test_risk_finite_and_nonnegative(self, sine2, vm5, uniform_prior):
        cfg = McmcConfig(burn_in=80, samples=60, thin=1)
        report = estimation_risk_mc(sine2, uniform_prior, vm5, 1.0, 30, cfg,
                                    RngStream(81), grid_size=512)
        entry = report.entries[0]
        assert np.all(entry.losses >= 0)
        assert math.isfinite(entry.estimate)

    def test_difference_reduces_to_weight_term(self, sine2, vm5, circle,
                                               uniform_prior):
        # shared shape draws make the paired loss difference a function of
        # the observed count alone
        cfg = McmcConfig(burn_in=80, samples=60, thin=1)
        gammas = [0.0, TWO_PI - 1.0]
        report = estimation_risk_mc(sine2, uniform_prior, vm5, 1.0, 25, cfg,
                                    RngStream(82), gammas=gammas,
                                    grid_size=512)
        diff = report_entry(report, "diff:gamma=0-gamma=5.28319")
        losses_a = report_entry(report, "gamma=0").losses
        losses_b = report_entry(report, "gamma=5.28319").losses
        np.testing.assert_allclose(diff.losses, losses_a - losses_b,
                                   rtol=0, atol=1e-14)
        # the paired difference depends on the replication only through its
        # observed count: loss_a - loss_b =
        #   t [(w_a - w_b) * I(shape) + W_true log(w_b / w_a)]
        # with I(shape) = 1 up to grid rounding
        from nhppbayes import sample_nhpp
        from nhppbayes.risk import replication_stream
        nodes, wts = circle.quad_nodes(512)
        w_true = float(np.dot(wts, sine2(nodes)))
        for rep in range(25):
            gen = replication_stream(RngStream(82), rep).generator()
            n = sample_nhpp(sine2, 1.0, gen).count
            w_a = (TWO_PI - gammas[0] + n) / 1.0
            w_b = (TWO_PI - gammas[1] + n) / 1.0
            expected = (w_a - w_b) + w_true * math.log(w_b / w_a)
            assert diff.losses[rep] == pytest.approx(expected, abs=1e-6)

    def test_empty_pattern_replication_allowed(self, circle, vm5,
                                               uniform_prior):
        tiny = IntensityModel.constant(circle, 0.01)
        cfg = McmcConfig(burn_in=30, samples=20, thin=1)
        report = estimation_risk_mc(tiny, uniform_prior, vm5, 1.0, 8, cfg,
                                    RngStream(83), grid_size=256)
        assert math.isfinite(report.entries[0].estimate)


class TestPredictiveRiskMc:
    def test_nonnegative_in_expectation(self, sine2, vm5, circle):
        prior = PriorSpec.uniform_unit(circle, gamma=TWO_PI - 1.0)
        cfg = McmcConfig(burn_in=80, samples=60, thin=1)
        report = predictive_risk_mc(sine2, prior, vm5, 1.0, 1.0, 60, cfg,
                                    RngStream(84), aug_replicates=4)
        entry = report.entries[0]
        # one-sided gate: the divergence risk cannot be negative
        assert entry.estimate > -3 * entry.std_error


class TestReplicationStreams:
    """Replication r reads only stream ``rng.stream_id + r``, so any block
    of replications can run on its own (in another process, say) and give
    the same losses bit for bit as the serial run."""

    def test_estimation_block_matches_serial_run(self, sine2, vm5,
                                                 uniform_prior):
        cfg = McmcConfig(burn_in=30, samples=20, thin=1)
        serial = estimation_risk_mc(sine2, uniform_prior, vm5, 1.0, 4, cfg,
                                    RngStream(85, 0), grid_size=256)
        block = estimation_risk_mc(sine2, uniform_prior, vm5, 1.0, 2, cfg,
                                   RngStream(85, 2), grid_size=256)
        np.testing.assert_array_equal(serial.entries[0].losses[2:],
                                      block.entries[0].losses)

    def test_predictive_block_matches_serial_run(self, sine2, vm5,
                                                 uniform_prior):
        cfg = McmcConfig(burn_in=30, samples=20, thin=1)
        serial = predictive_risk_mc(sine2, uniform_prior, vm5, 1.0, 1.0, 4,
                                    cfg, RngStream(86, 0), aug_replicates=2)
        block = predictive_risk_mc(sine2, uniform_prior, vm5, 1.0, 1.0, 2,
                                   cfg, RngStream(86, 2), aug_replicates=2)
        np.testing.assert_array_equal(serial.entries[0].losses[2:],
                                      block.entries[0].losses)


class TestIntegralRepresentation:
    def test_smoke_consistency(self, sine2, vm5, circle):
        prior = PriorSpec.uniform_unit(circle, gamma=TWO_PI - 1.0)
        cfg = McmcConfig(burn_in=80, samples=80, thin=1)
        check = integral_representation_check(sine2, prior, vm5, 1.0, 1.0,
                                              150, cfg, RngStream(85),
                                              nodes=4, grid_size=512)
        assert check.passed
        assert check.tau_grid.size == 4
        assert check.integral > 0
