"""Acceptance gates for the package.

Each test exercises one quantitative contract end to end and prints a
single PASS/FAIL line (run with ``pytest -s`` to see them).  Tolerances are
fixed here; Monte Carlo gates are stated in standard-error units so budget
and tightness trade off through the replication counts, which are also
fixed here.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from conftest import (grid_integral, nb_total_mass, poisson_gof_pvalue,
                      sample_crp)
from nhppbayes import (IntensityModel, KernelSpec, McmcConfig, PointPattern,
                       PriorSpec, RngStream, Window,
                       estimate_intensity_multi, integral_representation_check,
                       poisson_derivative_identity, poisson_log_shift_bound,
                       posterior_lambda_bar, predictive_point_logdensity,
                       run_mcmc, sample_nhpp, weight_risk_difference_exact)
from nhppbayes.kernels import eval_kernel

TWO_PI = 2.0 * math.pi
FIGURE_POINTS = [0.29, 1.55, 2.06, 2.85, 2.87, 3.60, 5.55, 5.61, 5.65, 6.01]


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def figure_setup():
    window = Window.circle()
    pattern = PointPattern(window, FIGURE_POINTS)
    kernel = KernelSpec.von_mises(5.0, window)
    prior = PriorSpec.uniform_unit(window)
    started = time.time()
    summaries = estimate_intensity_multi(
        pattern, prior, kernel, 1.0, [0.0, prior.total_mass_alpha - 1.0],
        McmcConfig(burn_in=2000, samples=2000, thin=5), RngStream(1001))
    elapsed = time.time() - started
    return pattern, summaries, elapsed


def test_01_weight_reproduction(figure_setup):
    pattern, (plain, shrunk), elapsed = figure_setup
    n = pattern.count
    mass_plain = grid_integral(plain.lambda_hat)
    mass_shrunk = grid_integral(shrunk.lambda_hat)
    ok = (abs(mass_plain - (n + TWO_PI)) < 1e-3
          and abs(mass_shrunk - (n + 1.0)) < 1e-3
          and elapsed < 60.0)
    report(1, "estimate masses N+2pi and N+1", ok,
           f"masses {mass_plain:.6f}/{mass_shrunk:.6f}, chain {elapsed:.1f}s")


def test_02_estimator_ratio_invariance(figure_setup):
    pattern, (plain, shrunk), _ = figure_setup
    n = pattern.count
    shared = plain.lambda_bar is shrunk.lambda_bar
    exact_scale = (
        np.array_equal(plain.lambda_hat.values,
                       plain.weight_mean * plain.lambda_bar.values)
        and np.array_equal(shrunk.lambda_hat.values,
                           shrunk.weight_mean * shrunk.lambda_bar.values))
    ratio = shrunk.lambda_hat.values / plain.lambda_hat.values
    target = (n + 1.0) / (n + TWO_PI)
    pointwise = float(np.max(np.abs(ratio / target - 1.0)))
    ok = shared and exact_scale and pointwise < 1e-14
    report(2, "shrinkage ratio (N+1)/(N+2pi) at every node", ok,
           f"shared shape={shared}, max ratio error {pointwise:.2e}")


def test_03_weight_risk_difference_positivity():
    started = time.time()
    abs_alpha = TWO_PI
    w_grid = np.geomspace(0.01, 100.0, 20)
    values = [weight_risk_difference_exact(abs_alpha, 0.0, abs_alpha - 1.0,
                                           float(w), 1.0) for w in w_grid]
    all_positive = all(v > 0 for v in values)
    w_star = 4.0 * math.pi
    exact = weight_risk_difference_exact(abs_alpha, 0.0, abs_alpha - 1.0,
                                         w_star, 1.0)
    gen = RngStream(1003).generator()
    n = gen.poisson(w_star, 10_000_000)
    samples = ((abs_alpha - 1.0) - w_star * np.log(n + abs_alpha)
               + w_star * np.log(n + 1.0))
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    gap = abs(float(samples.mean()) - exact)
    elapsed = time.time() - started
    ok = all_positive and gap < 3 * se and elapsed < 120.0
    report(3, "risk difference positive and matches Monte Carlo", ok,
           f"min {min(values):.3e}, MC gap {gap:.2e} vs 3SE {3 * se:.2e}, "
           f"{elapsed:.0f}s")


def test_04_integral_representation():
    started = time.time()
    window = Window.circle()
    true_model = IntensityModel.from_function(
        window, lambda u: np.sin(u) + 2.0, total_mass=4.0 * math.pi)
    kernel = KernelSpec.von_mises(5.0, window)
    prior = PriorSpec.uniform_unit(window, gamma=TWO_PI - 1.0)
    config = McmcConfig(burn_in=100, samples=100, thin=1)
    check = integral_representation_check(
        true_model, prior, kernel, 1.0, 1.0, 2000, config, RngStream(1004),
        nodes=8, grid_size=512)
    elapsed = time.time() - started
    ok = check.passed and elapsed < 1800.0
    report(4, "predictive risk equals integral of estimation risks", ok,
           f"pred {check.predictive.estimate:.4f}+-{check.predictive.std_error:.4f} "
           f"vs integral {check.integral:.4f}+-{check.integral_se:.4f}, "
           f"gap {check.gap:.4f} gate {check.gate:.4f}, {elapsed:.0f}s")


def test_05_derivative_identity():
    functions = [lambda n: n.astype(float), lambda n: n.astype(float) ** 2,
                 lambda n: np.log(n + 1.0)]
    worst = 0.0
    for w in (0.5, 2.0, 10.0):
        for tau in (0.5, 2.0, 10.0):
            for h in functions:
                numeric, identity = poisson_derivative_identity(w, tau, h)
                worst = max(worst, abs(numeric - identity)
                            / max(abs(identity), 1e-12))
    report(5, "derivative identity to 1e-6 relative", worst <= 1e-6,
           f"worst relative gap {worst:.2e}")


def test_06_log_shift_inequality():
    violations = 0
    checked = 0
    for theta in np.geomspace(0.01, 50.0, 20):
        for c in np.geomspace(0.1, 10.0, 10):
            lhs, rhs = poisson_log_shift_bound(float(theta), float(c))
            checked += 1
            if not lhs < rhs:
                violations += 1
    report(6, "log-shift bound strict on 200-point grid", violations == 0,
           f"{checked} points, {violations} violations")


def test_07_mcmc_small_sample_oracles():
    started = time.time()
    window = Window.circle()
    kernel = KernelSpec.von_mises(5.0, window)
    prior = PriorSpec.uniform_unit(window)
    theta = prior.total_mass_alpha
    nodes, wts = window.quad_nodes(4096)

    # one observation: node-wise shape estimate vs quadrature oracle, with
    # the standard error taken across independent chains
    x1 = 2.2
    pattern1 = PointPattern(window, [x1])
    grid = window.grid(256)
    kx = eval_kernel(kernel, x1, nodes)
    oracle1 = np.array([
        (1.0 + float(np.dot(wts, eval_kernel(kernel, y, nodes) * kx)))
        / (theta + 1.0) for y in grid])
    cfg1 = McmcConfig(burn_in=1000, samples=8000, thin=5)
    chains = np.stack([
        posterior_lambda_bar(
            run_mcmc(pattern1, kernel, cfg1, RngStream(1007, c)),
            kernel, grid).values
        for c in range(16)])
    grand = chains.mean(axis=0)
    se1 = chains.std(axis=0, ddof=1) / math.sqrt(chains.shape[0])
    worst_z1 = float(np.max(np.abs(grand - oracle1) / se1))

    # two observations: co-clustering probability vs the two-partition
    # quadrature oracle
    x = [1.0, 1.8]
    pattern2 = PointPattern(window, x)
    k1 = eval_kernel(kernel, x[0], nodes)
    k2 = eval_kernel(kernel, x[1], nodes)
    overlap = float(np.dot(wts, k1 * k2)) / TWO_PI
    oracle2 = overlap / (overlap + theta / TWO_PI ** 2)
    cfg2 = McmcConfig(burn_in=500, samples=4000, thin=2)
    fractions = []
    for c in range(16):
        assign = run_mcmc(pattern2, kernel, cfg2,
                          RngStream(1008, c)).assignments
        fractions.append(np.mean(assign[:, 0] == assign[:, 1]))
    fractions = np.asarray(fractions)
    se2 = float(fractions.std(ddof=1) / math.sqrt(fractions.size))
    z2 = abs(float(fractions.mean()) - oracle2) / se2
    elapsed = time.time() - started
    ok = worst_z1 < 3.0 and z2 < 3.0 and elapsed < 300.0
    report(7, "small-sample chains match quadrature oracles", ok,
           f"worst node z {worst_z1:.2f}, co-cluster z {z2:.2f}, {elapsed:.0f}s")


def test_08_crp_partition_frequencies():
    started = time.time()
    window = Window.circle()
    prior = PriorSpec.uniform_unit(window)
    theta = prior.total_mass_alpha
    denom = theta * (theta + 1.0) * (theta + 2.0)
    expected = {(0, 1, 2): theta ** 3 / denom,
                (0, 0, 1): theta ** 2 / denom,
                (0, 1, 0): theta ** 2 / denom,
                (0, 1, 1): theta ** 2 / denom,
                (0, 0, 0): 2.0 * theta / denom}
    gen = RngStream(1009).generator()
    reps = 1_000_000
    observed = Counter(tuple(sample_crp(prior, 3, gen)[1])
                       for _ in range(reps))
    keys = sorted(expected)
    obs = np.array([observed.get(k, 0) for k in keys], dtype=float)
    exp = np.array([expected[k] * reps for k in keys])
    exp *= obs.sum() / exp.sum()
    p = float(stats.chisquare(obs, exp).pvalue)
    elapsed = time.time() - started
    ok = p > 0.001 and elapsed < 60.0
    report(8, "sequential clustering matches partition law", ok,
           f"chi-square p {p:.4f} over 1e6 draws, {elapsed:.0f}s")


def test_09_simulator_bin_counts():
    started = time.time()
    window = Window.circle()
    model = IntensityModel.from_function(window, lambda u: np.sin(u) + 2.0,
                                         total_mass=4.0 * math.pi)
    edges = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI])
    masses = np.array([1 + math.pi, 1 + math.pi, math.pi - 1, math.pi - 1])
    reps = 100_000
    gen = RngStream(1010).generator()
    counts = np.zeros((reps, 4), dtype=int)
    for r in range(reps):
        counts[r] = np.histogram(sample_nhpp(model, 1.0, gen).points,
                                 bins=edges)[0]
    mean_z = [abs(counts[:, b].mean() - masses[b])
              / math.sqrt(masses[b] / reps) for b in range(4)]
    gof_p = [poisson_gof_pvalue(counts[:, b], masses[b]) for b in range(4)]
    cov_z = []
    for i in range(4):
        for j in range(i + 1, 4):
            cov = float(np.cov(counts[:, i], counts[:, j])[0, 1])
            cov_z.append(abs(cov) / math.sqrt(masses[i] * masses[j] / reps))
    elapsed = time.time() - started
    ok = (max(mean_z) < 3.0 and min(gof_p) > 0.001 and max(cov_z) < 3.0
          and elapsed < 120.0)
    report(9, "bin counts independent Poisson with quadrature means", ok,
           f"max mean z {max(mean_z):.2f}, min GOF p {min(gof_p):.4f}, "
           f"max cov z {max(cov_z):.2f}, {elapsed:.0f}s")


def test_10_count_layer_and_point_layer():
    window = Window.circle()
    kernel = KernelSpec.von_mises(5.0, window)
    sums_ok = True
    details = []
    for r, p in ((11.0, 0.5), (TWO_PI, 0.5), (1.0, 0.9)):
        total, tail = nb_total_mass(r, p, tol=1e-10)
        err = abs(total - 1.0)
        details.append(f"({r:g},{p}) err {err:.1e}")
        sums_ok = sums_ok and err < 1e-10 and tail < 1e-10

    # the one-point predictive equals the shape estimate built from the same
    # draws, and fresh chains agree within chain-to-chain noise
    pattern = PointPattern(window, [0.4, 1.2, 1.3])
    grid = window.grid(512)
    y = float(grid[100])
    cfg = McmcConfig(burn_in=300, samples=400, thin=2)
    same_draw_gap = None
    values = []
    shape_values = []
    for c in range(12):
        draws = run_mcmc(pattern, kernel, cfg, RngStream(1011, c))
        point_val = math.exp(predictive_point_logdensity(
            draws, kernel, [y], RngStream(1012, c),
            aug_replicates=2))
        shape_val = float(posterior_lambda_bar(draws, kernel,
                                               grid).values[100])
        if same_draw_gap is None:
            same_draw_gap = abs(point_val - shape_val) / shape_val
        values.append(point_val)
        shape_values.append(shape_val)
    values = np.asarray(values)
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    z = abs(values.mean() - np.mean(shape_values)) / se
    ok = sums_ok and same_draw_gap < 1e-10 and z < 3.0
    report(10, "count layer sums to one; one-point layer matches shape", ok,
           ", ".join(details) + f", same-draw gap {same_draw_gap:.1e}, z {z:.2f}")
