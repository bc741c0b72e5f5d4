"""Domain types shared across the package.

The objects here describe the statistical setting: an observation window,
observed point patterns, intensity functions with their total mass and
normalized shape, and the prior family over intensities.  Everything is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi

# Quadrature defaults: composite trapezoid at QUAD_NODES with a refinement
# check at twice the resolution.  Smooth periodic integrands converge much
# faster than the check tolerance, so a large residual flags a bad model.
QUAD_NODES = 4096
MASS_RTOL = 1e-6


class ModelError(ValueError):
    """Raised when a model object violates its construction contract."""


@dataclass(frozen=True)
class Window:
    """Observation region: either the unit circle [0, 2*pi) or an interval.

    Circle arithmetic wraps modulo 2*pi.  Interval bounds must be finite
    and satisfy a < b.
    """

    kind: str
    a: float = 0.0
    b: float = TWO_PI

    def __post_init__(self):
        if self.kind not in ("circle", "interval"):
            raise ModelError(f"unknown window kind {self.kind!r}")
        if self.kind == "circle":
            object.__setattr__(self, "a", 0.0)
            object.__setattr__(self, "b", TWO_PI)
        elif not (math.isfinite(self.a) and math.isfinite(self.b)
                  and self.b > self.a):
            raise ModelError(
                f"interval needs finite a < b, got [{self.a}, {self.b}]")

    @classmethod
    def circle(cls) -> "Window":
        return cls("circle")

    @classmethod
    def interval(cls, a: float, b: float) -> "Window":
        return cls("interval", float(a), float(b))

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def is_circle(self) -> bool:
        return self.kind == "circle"

    def wrap(self, x):
        """Map locations into the window (mod 2*pi on the circle)."""
        if self.is_circle:
            return np.mod(x, TWO_PI)
        return x

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if self.is_circle:
            return bool(np.all(np.isfinite(x)))
        return bool(np.all((x >= self.a) & (x <= self.b)))

    def quad_nodes(self, n: int = QUAD_NODES):
        """Quadrature nodes and weights for the composite trapezoid rule.

        On the circle the rule uses n equispaced nodes without the duplicate
        endpoint (the periodic trapezoid rule, spectrally accurate for smooth
        integrands).  On an interval it uses n+1 nodes including endpoints.
        """
        if n < 1:
            raise ModelError(f"need at least one quadrature cell, got {n}")
        if self.is_circle:
            h = TWO_PI / n
            nodes = np.arange(n) * h
            weights = np.full(n, h)
            return nodes, weights
        nodes = np.linspace(self.a, self.b, n + 1)
        h = self.length / n
        weights = np.full(n + 1, h)
        weights[0] = weights[-1] = 0.5 * h
        return nodes, weights

    def grid(self, n: int):
        """Representation grid (same node layout as quad_nodes)."""
        return self.quad_nodes(n)[0]


def quadrature(f: Callable, window: Window, n: int = QUAD_NODES) -> float:
    """Integrate f over the window with the composite trapezoid rule."""
    nodes, weights = window.quad_nodes(n)
    return float(np.dot(weights, np.asarray(f(nodes), dtype=float)))


def quadrature_checked(f: Callable, window: Window, n: int = QUAD_NODES):
    """Integrate with a doubled-resolution refinement check.

    Returns (value_at_2n, residual) where the residual is the relative
    difference between the n-node and 2n-node values.  A residual above the
    integration tolerance indicates an under-resolved integrand.
    """
    coarse = quadrature(f, window, n)
    fine = quadrature(f, window, 2 * n)
    scale = max(abs(fine), 1.0)
    return fine, abs(fine - coarse) / scale


def cdf_table(window: Window, density: Callable, n: int = QUAD_NODES):
    """Nodes and normalized CDF of a nonnegative density on n trapezoid cells.

    On the circle the last node is 2*pi, where the density takes its value
    at 0, so the table covers the whole circle.
    """
    if window.is_circle:
        nodes = np.arange(n + 1) * (TWO_PI / n)
        dens = density(np.mod(nodes, TWO_PI))
    else:
        nodes = np.linspace(window.a, window.b, n + 1)
        dens = density(nodes)
    dens = np.asarray(dens, dtype=float)
    if np.any(dens < 0):
        raise ModelError("density must be nonnegative for sampling")
    seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(nodes)
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    cdf /= cdf[-1]
    return nodes, cdf


def invert_cdf(table, u):
    """Map uniforms u through a cdf_table by linear interpolation."""
    nodes, cdf = table
    idx = np.searchsorted(cdf, u, side="right") - 1
    idx = np.clip(idx, 0, nodes.size - 2)
    width = cdf[idx + 1] - cdf[idx]
    frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.0)
    return nodes[idx] + frac * (nodes[idx + 1] - nodes[idx])


def _cached_cdf_table(owner, density: Callable):
    """cdf_table on the owner's window, cached on the (frozen) owner."""
    cached = owner.__dict__.get("_cdf_table")
    if cached is None:
        cached = cdf_table(owner.window, density)
        object.__setattr__(owner, "_cdf_table", cached)
    return cached


@dataclass(frozen=True)
class PointPattern:
    """An observed realization: the count plus point locations in the window."""

    window: Window
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        if pts.ndim != 1:
            raise ModelError("points must be a flat sequence of locations")
        if not self.window.contains(pts):
            raise ModelError("every point must lie inside the window")
        pts = self.window.wrap(pts) if self.window.is_circle else pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.size)

    @classmethod
    def empty(cls, window: Window) -> "PointPattern":
        return cls(window, np.empty(0))

    def to_csv(self, path) -> None:
        write_csv(path, ["location"], ([repr(float(x))] for x in self.points))

    @classmethod
    def from_csv(cls, path, window: Optional[Window] = None) -> "PointPattern":
        locations = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0].strip() != "location":
                raise ModelError(f"{path}: expected CSV header 'location'")
            for row in reader:
                if row:
                    try:
                        locations.append(float(row[0]))
                    except ValueError:
                        raise ModelError(f"{path}, line {reader.line_num}: "
                                         f"location {row[0]!r} is not a number")
        return cls(window or Window.circle(), np.asarray(locations))


@dataclass(frozen=True)
class GridDensity:
    """Function values on a window grid.

    Circle grids are periodic (node j at j*2*pi/n); interval grids include
    both endpoints.
    """

    window: Window
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape:
            raise ModelError("grid and values must have matching shapes")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        if self.window.is_circle:
            return float(np.sum(self.values) * TWO_PI / self.grid.size)
        return float(np.trapezoid(self.values, self.grid))

    def scaled(self, c: float) -> "GridDensity":
        return GridDensity(self.window, self.grid, c * self.values)


@dataclass(frozen=True)
class IntensityModel:
    """Evaluable intensity with total mass w and normalized shape lambda-bar.

    Either a closed-form function of location or a kernel mixture over
    weighted atoms (built by ``kernels.mixture_intensity``).  The intensity
    must be strictly positive wherever it is evaluated for divergence
    computations; zero values are an error there, never clamped.
    """

    window: Window
    kind: str
    total_mass: float
    evaluator: Callable = field(repr=False)
    kernel: object = None
    atom_locations: Optional[np.ndarray] = None
    atom_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("closed_form", "kernel_mixture"):
            raise ModelError(f"unknown intensity kind {self.kind!r}")
        if not 0 < self.total_mass < math.inf:
            raise ModelError(f"total mass must be finite and positive, "
                             f"got {self.total_mass}")

    @classmethod
    def from_function(cls, window: Window, fn: Callable,
                      total_mass: Optional[float] = None) -> "IntensityModel":
        """Closed-form intensity; the mass is integrated if not supplied."""
        if total_mass is None:
            total_mass, residual = quadrature_checked(fn, window)
            if residual > MASS_RTOL:
                raise ModelError(
                    f"intensity mass quadrature did not settle (residual {residual:.2e})")
        return cls(window, "closed_form", float(total_mass), fn)

    @classmethod
    def constant(cls, window: Window, value: float) -> "IntensityModel":
        if not value > 0:
            raise ModelError("constant intensity must be positive")
        return cls(window, "closed_form", value * window.length,
                   lambda u, _v=value: np.full_like(np.asarray(u, dtype=float), _v))

    def __call__(self, u):
        return np.asarray(self.evaluator(np.asarray(u, dtype=float)), dtype=float)

    def normalized(self, u):
        """The shape lambda-bar = lambda / w."""
        return self(u) / self.total_mass

    def shape_cdf_table(self):
        """Tabulated CDF of the normalized shape (cached)."""
        return _cached_cdf_table(self, self)


@dataclass(frozen=True)
class PriorSpec:
    """The shrinkage prior family over intensity measures.

    Parameters are the base measure (a strictly positive density with total
    mass ``total_mass_alpha``), the gamma-weight scale ``beta`` (a finite
    positive float, or ``None`` for the improper infinite-scale limit), and
    the shrinkage exponent ``gamma``.  ``gamma = 0`` is the non-shrinkage
    member; ``gamma = total_mass_alpha - 1`` is the dominating choice.
    """

    window: Window
    base_density: Callable = field(repr=False)
    total_mass_alpha: float = TWO_PI
    beta: Optional[float] = None
    gamma: float = 0.0
    uniform_base: bool = False

    def __post_init__(self):
        if not self.total_mass_alpha > 0:
            raise ModelError("base measure must have positive total mass")
        if self.beta is not None and not self.beta > 0:
            raise ModelError("beta must be positive or None (improper)")
        if not -math.inf < self.gamma < self.total_mass_alpha:
            raise ModelError("gamma must be finite and below the base total "
                             "mass")

    @classmethod
    def uniform_unit(cls, window: Window, beta: Optional[float] = None,
                     gamma: float = 0.0) -> "PriorSpec":
        """Base density identically 1 on the window (mass = window length)."""
        return cls(window, lambda u: np.ones_like(np.asarray(u, dtype=float)),
                   window.length, beta, gamma, uniform_base=True)

    @property
    def is_improper(self) -> bool:
        return self.beta is None

    @property
    def weight_shape(self) -> float:
        """Shape parameter of the prior weight law, |alpha| - gamma."""
        return self.total_mass_alpha - self.gamma

    def with_gamma(self, gamma: float) -> "PriorSpec":
        return PriorSpec(self.window, self.base_density, self.total_mass_alpha,
                         self.beta, gamma, self.uniform_base)

    def base_cdf_table(self):
        """Tabulated CDF of the base shape (cached)."""
        def density(u):
            dens = np.asarray(self.base_density(u), dtype=float)
            if np.any(dens <= 0):
                raise ModelError("base density must be strictly positive")
            return dens
        return _cached_cdf_table(self, density)


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics from validating an IntensityModel."""

    mass_analytic: float
    mass_quadrature: float
    mass_residual: float
    normalization_residual: float
    nonpositive_nodes: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(model: IntensityModel) -> ValidationReport:
    """Check a model's mass and normalization by quadrature.

    Returns a report with a failure list rather than raising, so callers can
    surface every problem at once.
    """
    failures = []
    nodes, weights = model.window.quad_nodes()
    vals = model(nodes)
    nonpositive = int(np.count_nonzero(vals <= 0))
    if nonpositive:
        failures.append(f"{nonpositive} nonpositive intensity values on the grid")
    mass_q2, settle = quadrature_checked(model, model.window)
    if settle > MASS_RTOL:
        failures.append(f"mass quadrature unsettled (refinement residual {settle:.2e})")
    mass_residual = abs(mass_q2 - model.total_mass) / max(abs(model.total_mass), 1.0)
    if mass_residual > MASS_RTOL:
        failures.append(
            f"declared mass {model.total_mass:.8g} vs quadrature {mass_q2:.8g}")
    norm_residual = abs(float(np.dot(weights, vals / model.total_mass)) - 1.0)
    if norm_residual > MASS_RTOL:
        failures.append(f"normalized shape integrates to 1{norm_residual:+.2e}")
    return ValidationReport(model.total_mass, mass_q2, mass_residual,
                            norm_residual, nonpositive, tuple(failures))


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows``, each a sequence of values that
    are already formatted (floats as ``repr``)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
