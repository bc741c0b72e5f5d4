import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from conftest import poisson_gof_pvalue
from nhppbayes import (IntensityModel, ModelError, PriorSpec, RngStream,
                       mixture_intensity, sample_base, sample_crp,
                       sample_nhpp)

TWO_PI = 2.0 * math.pi


def crp_partition_probs(theta):
    """Brute-force sequential-rule probabilities of all 5 partitions of 3.

    Walks the arrival tree: customer 1 opens a table; each later customer
    joins an existing table with probability (table size)/(theta+k) or opens
    a new one with probability theta/(theta+k).
    """
    probs = Counter()

    def walk(labels, prob):
        k = len(labels)
        if k == 3:
            probs[tuple(labels)] += prob
            return
        tables = Counter(labels)
        for table, size in tables.items():
            walk(labels + [table], prob * size / (theta + k))
        walk(labels + [max(labels) + 1], prob * theta / (theta + k))

    walk([0], 1.0)
    return dict(probs)


class TestRngStream:
    def test_reproducible(self, sine2):
        a = sample_nhpp(sine2, 1.0, RngStream(7, 3))
        b = sample_nhpp(sine2, 1.0, RngStream(7, 3))
        np.testing.assert_array_equal(a.points, b.points)

    def test_distinct_streams_differ(self, sine2):
        a = sample_nhpp(sine2, 5.0, RngStream(7, 0))
        b = sample_nhpp(sine2, 5.0, RngStream(7, 1))
        assert a.count != b.count or not np.array_equal(a.points, b.points)


class TestSampleNhpp:
    def test_requires_positive_exposure(self, sine2):
        with pytest.raises(ModelError):
            sample_nhpp(sine2, 0.0, RngStream(0))

    def test_homogeneous_count_moments(self, circle):
        model = IntensityModel.constant(circle, 2.0)
        gen = RngStream(11).generator()
        reps = 20_000
        counts = np.array([sample_nhpp(model, 1.0, gen).count
                           for _ in range(reps)])
        mean_target = 4.0 * math.pi
        se_mean = math.sqrt(mean_target / reps)
        assert abs(counts.mean() - mean_target) < 3 * se_mean
        # variance of a Poisson equals its mean; SE of the sample variance
        # from the fourth-moment plug-in
        m = counts.mean()
        se_var = math.sqrt((np.mean((counts - m) ** 4)
                            - np.var(counts) ** 2) / reps)
        assert abs(counts.var(ddof=1) - mean_target) < 3 * se_var

    def test_bin_counts_poisson_and_independent(self, sine2, circle):
        edges = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI])
        # quadrature oracle for the bin masses
        masses = []
        for a, b in zip(edges[:-1], edges[1:]):
            xs = np.linspace(a, b, 4097)
            masses.append(np.trapezoid(np.sin(xs) + 2.0, xs))
        masses = np.array(masses)
        reps = 20_000
        gen = RngStream(14).generator()
        bin_counts = np.zeros((reps, 4), dtype=int)
        for r in range(reps):
            pts = sample_nhpp(sine2, 1.0, gen).points
            bin_counts[r] = np.histogram(pts, bins=edges)[0]
        for b in range(4):
            se = math.sqrt(masses[b] / reps)
            assert abs(bin_counts[:, b].mean() - masses[b]) < 3 * se
            assert poisson_gof_pvalue(bin_counts[:, b], masses[b]) > 0.001
        for i in range(4):
            for j in range(i + 1, 4):
                cov = np.cov(bin_counts[:, i], bin_counts[:, j])[0, 1]
                se = math.sqrt(masses[i] * masses[j] / reps)
                assert abs(cov) < 3 * se

    def test_mixture_sampling_matches_kernel(self, vm5):
        model = mixture_intensity(vm5, [2.0], [6.0])
        gen = RngStream(17).generator()
        pts = np.concatenate([sample_nhpp(model, 1.0, gen).points
                              for _ in range(3000)])
        # resultant length of a von Mises sample is I1(k)/I0(k)
        from scipy.special import i0, i1
        z = np.exp(1j * (pts - 2.0))
        resultant = abs(z.mean())
        target = float(i1(5.0) / i0(5.0))
        assert resultant == pytest.approx(target, abs=3.0 / math.sqrt(pts.size))
        mean_dir = np.angle(z.mean())
        assert abs(mean_dir) < 3.0 / math.sqrt(pts.size)

    def test_interval_window_gaussian_mixture(self):
        from nhppbayes import KernelSpec, Window
        w = Window.interval(-8.0, 8.0)
        spec = KernelSpec.gaussian(0.5, w)
        model = mixture_intensity(spec, [0.0, 2.0], [3.0, 1.0])
        pattern = sample_nhpp(model, 2.0, RngStream(23))
        assert np.all((pattern.points >= -8.0) & (pattern.points <= 8.0))

    def test_interval_count_is_window_mass(self):
        # an atom at the edge of [0, 4] leaks half its mass: the pattern is
        # the mixture process restricted to the window, so strays are dropped
        # and the mean count is the window mass, not the atom weight
        from nhppbayes import KernelSpec, Window, quadrature
        window = Window.interval(0.0, 4.0)
        model = mixture_intensity(KernelSpec.gaussian(1.0, window), [0.0],
                                  [10.0])
        gen = RngStream(24).generator()
        counts = np.array([sample_nhpp(model, 1.0, gen).count
                           for _ in range(2000)])
        mass = quadrature(model, window)
        assert mass == pytest.approx(5.0, abs=1e-3)
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - mass) < 4 * se


class TestSampleBase:
    def test_non_uniform_base_bin_masses(self, cosine_prior):
        # chi-square against the exact bin masses of (1 + cos(u)/2) / (2 pi)
        edges = np.linspace(0.0, TWO_PI, 17)
        masses = (np.diff(edges) + 0.5 * np.diff(np.sin(edges))) / TWO_PI
        draws = sample_base(cosine_prior, 40_000, RngStream(59).generator())
        assert np.all((draws >= 0.0) & (draws <= TWO_PI))
        observed = np.histogram(draws, bins=edges)[0]
        assert stats.chisquare(observed, masses * draws.size).pvalue > 0.001


class TestSampleCrp:
    def test_single_customer(self, uniform_prior):
        locs, labels = sample_crp(uniform_prior, 1, RngStream(0))
        assert labels.tolist() == [0]
        assert 0.0 <= locs[0] < TWO_PI

    def test_two_customer_cocluster_probability(self, uniform_prior):
        theta = uniform_prior.total_mass_alpha
        gen = RngStream(29).generator()
        reps = 40_000
        together = 0
        for _ in range(reps):
            _, labels = sample_crp(uniform_prior, 2, gen)
            together += labels[0] == labels[1]
        target = 1.0 / (theta + 1.0)
        se = math.sqrt(target * (1 - target) / reps)
        assert abs(together / reps - target) < 3 * se

    def test_three_customer_partition_frequencies(self, uniform_prior):
        theta = uniform_prior.total_mass_alpha
        expected = crp_partition_probs(theta)
        # closed-form check of the enumeration oracle itself
        denom = theta * (theta + 1) * (theta + 2)
        assert expected[(0, 0, 0)] == pytest.approx(2 * theta / denom)
        assert expected[(0, 1, 2)] == pytest.approx(theta ** 3 / denom)
        assert sum(expected.values()) == pytest.approx(1.0)
        gen = RngStream(31).generator()
        reps = 100_000
        observed = Counter(tuple(sample_crp(uniform_prior, 3, gen)[1])
                           for _ in range(reps))
        keys = sorted(expected)
        obs = np.array([observed.get(k, 0) for k in keys], dtype=float)
        exp = np.array([expected[k] * reps for k in keys])
        p = stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue
        assert p > 0.001

    def test_exchangeability_under_arrival_reversal(self, uniform_prior):
        def canonical(labels):
            relabel, out = {}, []
            for v in labels:
                relabel.setdefault(v, len(relabel))
                out.append(relabel[v])
            return tuple(out)

        gen = RngStream(37).generator()
        reps = 50_000
        forward = Counter(canonical(sample_crp(uniform_prior, 3, gen)[1])
                          for _ in range(reps))
        reverse = Counter(canonical(sample_crp(uniform_prior, 3, gen)[1][::-1])
                          for _ in range(reps))
        keys = sorted(set(forward) | set(reverse))
        table = np.array([[forward.get(k, 0) for k in keys],
                          [reverse.get(k, 0) for k in keys]])
        p = stats.chi2_contingency(table).pvalue
        assert p > 0.001

    def test_location_marginal_is_base(self, uniform_prior):
        gen = RngStream(41).generator()
        locs = np.concatenate([sample_crp(uniform_prior, 4, gen)[0]
                               for _ in range(2000)])
        p = stats.kstest(locs / TWO_PI, "uniform").pvalue
        assert p > 0.001

