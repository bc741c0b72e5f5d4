import dataclasses
import math
import re
import types

import numpy as np
import pytest

import nhppbayes
from conftest import grid_integral
from nhppbayes import (GridDensity, IntensityModel, ModelError, PointPattern,
                       PriorSpec, Window, mixture_intensity, quadrature,
                       quadrature_checked, validate)
from nhppbayes.posterior import posterior_weight_mean

TWO_PI = 2.0 * math.pi


class TestWindow:
    def test_circle_fixed_bounds(self):
        w = Window.circle()
        assert w.a == 0.0 and w.b == TWO_PI

    def test_interval_needs_positive_length(self):
        with pytest.raises(ModelError):
            Window.interval(1.0, 1.0)
        with pytest.raises(ModelError):
            Window.interval(2.0, -1.0)

    def test_interval_needs_finite_length(self):
        # |alpha| is the window length, so an overflowing b - a is rejected
        # here, naming the window, rather than deep inside a command
        with pytest.raises(ModelError, match=re.escape("[-1e+308, 1e+308]")):
            Window.interval(-1e308, 1e308)
        assert Window.interval(0.0, 1e308).length == 1e308

    def test_circle_wraps(self):
        w = Window.circle()
        assert w.wrap(TWO_PI + 0.5) == pytest.approx(0.5)
        assert np.allclose(w.wrap(np.array([-0.5])), TWO_PI - 0.5)


class TestQuadrature:
    def test_constant_on_circle(self):
        val = quadrature(lambda u: np.full_like(u, 2.0), Window.circle())
        assert val == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_sine_plus_two(self):
        # independent check: the analytic integral of sin(u) + 2 over a full
        # period is 4*pi
        val, residual = quadrature_checked(lambda u: np.sin(u) + 2.0,
                                           Window.circle())
        assert val == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert residual < 1e-12

    def test_interval_polynomial(self):
        w = Window.interval(0.0, 2.0)
        val = quadrature(lambda u: 3.0 * u * u, w, n=8192)
        assert val == pytest.approx(8.0, rel=1e-6)


class TestPointPattern:
    def test_count_matches_points(self, circle):
        p = PointPattern(circle, [0.1, 1.0, 2.0])
        assert p.count == 3

    def test_rejects_points_outside_interval(self):
        w = Window.interval(0.0, 1.0)
        with pytest.raises(ModelError):
            PointPattern(w, [0.5, 1.5])

    def test_csv_roundtrip(self, circle, tmp_path):
        p = PointPattern(circle, [0.29, 1.55, 2.06])
        path = tmp_path / "pattern.csv"
        p.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "location"
        q = PointPattern.from_csv(path, circle)
        np.testing.assert_array_equal(p.points, q.points)

    def test_empty(self, circle):
        assert PointPattern.empty(circle).count == 0


class TestIntensityModel:
    def test_constant_mass(self, circle):
        m = IntensityModel.constant(circle, 2.0)
        assert m.total_mass == pytest.approx(4.0 * math.pi)

    def test_from_function_integrates_mass(self, circle):
        m = IntensityModel.from_function(circle, lambda u: np.sin(u) + 2.0)
        assert m.total_mass == pytest.approx(4.0 * math.pi, rel=1e-10)

    def test_normalized_integrates_to_one(self, sine2, circle):
        assert quadrature(sine2.normalized, circle) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_mass(self, circle):
        with pytest.raises(ModelError):
            IntensityModel.constant(circle, -1.0)


class TestValidate:
    def test_constant_two(self, circle):
        report = validate(IntensityModel.constant(circle, 2.0))
        assert report.ok
        assert report.mass_quadrature == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert report.mass_residual < 1e-12

    def test_single_atom_mixture(self, vm5):
        model = mixture_intensity(vm5, [1.0], [3.0])
        report = validate(model)
        assert report.ok
        assert model.total_mass == 3.0
        assert report.mass_quadrature == pytest.approx(3.0, rel=1e-10)

    def test_sine_plus_two(self, sine2):
        report = validate(sine2)
        assert report.ok
        assert report.mass_quadrature == pytest.approx(4.0 * math.pi, rel=1e-10)

    def test_flags_nonpositive_values(self, circle):
        bad = IntensityModel(circle, 1.0, lambda u: np.sin(u))
        report = validate(bad)
        assert not report.ok
        assert report.nonpositive_nodes > 0

    def test_flags_wrong_declared_mass(self, circle):
        bad = IntensityModel(circle, 5.0,
                             lambda u: np.full_like(u, 2.0))
        report = validate(bad)
        assert any("mass" in f for f in report.failures)


class TestGridDensity:
    def test_integral_constant(self, circle):
        grid = circle.grid(64)
        g = GridDensity(circle, grid, np.full(64, 1.0 / TWO_PI))
        assert grid_integral(g) == pytest.approx(1.0, rel=1e-14)

    def test_scaled(self, circle):
        grid = circle.grid(16)
        g = GridDensity(circle, grid, np.ones(16))
        np.testing.assert_array_equal(g.scaled(3.0).values, 3.0 * g.values)


class TestPriorSpec:
    def test_gamma_must_stay_below_mass(self, circle):
        with pytest.raises(ModelError):
            PriorSpec.uniform_unit(circle, gamma=TWO_PI)

    def test_uniform_unit_mass(self, circle):
        prior = PriorSpec.uniform_unit(circle)
        assert prior.total_mass_alpha == pytest.approx(TWO_PI)
        assert prior.is_improper

    def test_improper_is_a_distinct_state(self, circle):
        # the improper weight mean divides by s alone, bit for bit; a finite
        # beta always adds a 1/beta term
        improper = PriorSpec.uniform_unit(circle)
        n, s = 10, 3.0
        assert posterior_weight_mean(improper, n, s) == \
            (improper.total_mass_alpha + n) / s
        finite = PriorSpec.uniform_unit(circle, beta=2.0)
        assert posterior_weight_mean(finite, n, s) == \
            (finite.total_mass_alpha + n) / (s + 0.5)

    def test_with_gamma_preserves_base(self, circle):
        prior = PriorSpec.uniform_unit(circle)
        shrunk = prior.with_gamma(TWO_PI - 1.0)
        assert shrunk.gamma == TWO_PI - 1.0
        assert shrunk.total_mass_alpha == prior.total_mass_alpha
        assert (shrunk.window, shrunk.beta) == (prior.window, prior.beta)

    def test_base_is_the_uniform_unit_density(self):
        # the window and the weight law's beta and gamma are the whole spec;
        # |alpha| follows from the window
        assert [f.name for f in dataclasses.fields(PriorSpec)] == \
            ["window", "beta", "gamma"]
        prior = PriorSpec.uniform_unit(Window.interval(-1.0, 2.5), 4.0, 0.5)
        assert prior.total_mass_alpha == 3.5
        assert prior.weight_shape == 3.0


def test_all_lists_every_public_name_once():
    exported = nhppbayes.__all__
    assert exported == sorted(set(exported))
    bound = {name for name, value in vars(nhppbayes).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(exported) == bound
