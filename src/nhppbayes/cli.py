"""Command-line front end.

Subcommands: ``simulate`` (draw a pattern), ``estimate`` (posterior-mean
intensity for one or more shrinkage exponents), ``predict`` (log scores of
future patterns), ``risk`` (Monte Carlo studies and named verification
gates), and ``figure1`` (a one-shot shrinkage-vs-non-shrinkage estimate
comparison on a fixed ten-point pattern).

Exit codes: 0 success / gate passed, 1 gate failed, 2 configuration error,
3 chain diagnostic failure.  Every command echoes its fully resolved
configuration so a run can be reproduced byte for byte; the seed falls back
to the NHPP_SEED environment variable when no flag is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (IntensityModel, ModelError, PointPattern, PriorSpec, Window,
                   write_json)
from .kernels import KernelSpec
from .posterior import McmcConfig, estimate_intensity_multi
from .predict import build_predictive
from .risk import (domination_study, estimation_risk_mc,
                   integral_representation_check, poisson_derivative_identity,
                   poisson_log_shift_bound, predictive_risk_mc)
from .simulate import RngStream, sample_nhpp
from .svg import line_chart

EXIT_OK = 0
EXIT_GATE = 1
EXIT_CONFIG = 2
EXIT_DIAGNOSTIC = 3

FIGURE1_POINTS = (0.29, 1.55, 2.06, 2.85, 2.87, 3.60, 5.55, 5.61, 5.65, 6.01)
MIN_ACCEPTANCE = 0.05


class CliError(Exception):
    def __init__(self, message, code=EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def named_intensity(name: str, window: Window) -> IntensityModel:
    if name == "sine2":
        if not window.is_circle:
            raise CliError("intensity 'sine2' lives on the circle")
        return IntensityModel.from_function(
            window, lambda u: np.sin(u) + 2.0, total_mass=4.0 * math.pi)
    if name.startswith("const:"):
        try:
            value = float(name.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad constant intensity {name!r}")
        if value <= 0:
            raise CliError("constant intensity must be positive")
        return IntensityModel.constant(window, value)
    raise CliError(f"unknown intensity {name!r} (use sine2 or const:VALUE)")


def parse_window(text: str) -> Window:
    if text == "circle":
        return Window.circle()
    try:
        a, b = (float(v) for v in text.split(","))
        return Window.interval(a, b)
    except (ValueError, ModelError) as exc:
        raise CliError(f"bad window {text!r}: {exc}")


def resolve_seed(args, file_cfg) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in file_cfg:
        return int(file_cfg["seed"])
    env = os.environ.get("NHPP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"NHPP_SEED is not an integer: {env!r}")
    return 0


def load_config_file(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {args.config}: {exc}")
    if not isinstance(obj, dict):
        raise CliError("config file must hold a JSON object")
    return obj


def resolve(args) -> dict:
    """Merge defaults, config file, and flags (flags win); echo the result.

    The keys are the subcommand's own option names.  Feeding the echoed JSON
    back through --config reproduces the run.
    """
    file_cfg = load_config_file(args)
    out = {}
    for key, flag_val in vars(args).items():
        if key in ("seed", "config", "command", "func"):
            continue
        if flag_val is not None:
            out[key] = flag_val
        elif key in file_cfg:
            out[key] = file_cfg[key]
    out["seed"] = resolve_seed(args, file_cfg)
    print("resolved-config:", json.dumps(out, sort_keys=True, default=str))
    return out


def build_mcmc_config(cfg: dict) -> McmcConfig:
    return McmcConfig(
        burn_in=int(cfg.get("burn_in", 2000)),
        samples=int(cfg.get("samples", 2000)),
        thin=int(cfg.get("thin", 5)),
    )


def cmd_simulate(args) -> int:
    cfg = resolve(args)
    window = parse_window(cfg.get("window", "circle"))
    model = named_intensity(cfg.get("intensity", "sine2"), window)
    exposure = float(cfg.get("exposure", 1.0))
    if exposure <= 0:
        raise CliError("exposure must be positive")
    pattern = sample_nhpp(model, exposure, RngStream(cfg["seed"]),
                          method=cfg.get("method", "auto"))
    out = cfg.get("out", "pattern.csv")
    pattern.to_csv(out)
    print(f"N={pattern.count} seed={cfg['seed']} out={out}")
    return EXIT_OK


def _load_pattern(path, window: Window) -> PointPattern:
    try:
        return PointPattern.from_csv(path, window)
    except (OSError, ModelError) as exc:
        raise CliError(f"cannot load pattern {path}: {exc}")


def _build_kernel(cfg: dict, window: Window) -> KernelSpec:
    kind = cfg.get("kernel", "von_mises")
    try:
        if kind == "von_mises":
            return KernelSpec.von_mises(float(cfg.get("kappa", 5.0)), window)
        if kind == "gaussian":
            return KernelSpec.gaussian(float(cfg.get("sigma", 1.0)), window)
    except ModelError as exc:
        raise CliError(str(exc))
    raise CliError(f"unknown kernel {kind!r}")


def _gammas(cfg: dict, prior_mass: float):
    gammas = [float(g) for g in cfg.get("gamma", [])] or [0.0]
    if cfg.get("shrink"):
        gammas.append(prior_mass - 1.0)
    seen = []
    for g in gammas:
        if g not in seen:
            seen.append(g)
    return seen


def cmd_estimate(args) -> int:
    cfg = resolve(args)
    window = parse_window(cfg.get("window", "circle"))
    pattern = _load_pattern(cfg["pattern"], window)
    kernel = _build_kernel(cfg, window)
    prior = PriorSpec.uniform_unit(window)
    gammas = _gammas(cfg, prior.total_mass_alpha)
    s = float(cfg.get("s", 1.0))
    mcmc = build_mcmc_config(cfg)
    summaries = estimate_intensity_multi(pattern, prior, kernel, s, gammas,
                                         mcmc, RngStream(cfg["seed"]))
    rate = summaries[0].diagnostics.get("acceptance_rate")
    for summary in summaries:
        print(f"gamma={summary.gamma:g} weight_mean={summary.weight_mean:.6f}")
    if cfg.get("json"):
        write_json(cfg["json"], [s.to_json() for s in summaries])
    if cfg.get("csv"):
        _write_estimates_csv(cfg["csv"], summaries)
    if cfg.get("svg"):
        grid = summaries[0].lambda_bar.grid
        series = []
        if cfg.get("true_intensity"):
            truth = named_intensity(cfg["true_intensity"], window)
            series.append(("true", truth(grid)))
        for summary in summaries:
            series.append((f"gamma={summary.gamma:g}",
                           summary.lambda_hat.values))
        line_chart(cfg["svg"], grid, series, ticks=pattern.points,
                   title="intensity estimates", x_label="location",
                   y_label="intensity")
    if rate is not None and rate < MIN_ACCEPTANCE:
        print(f"diagnostic failure: acceptance rate {rate:.3f} below "
              f"{MIN_ACCEPTANCE}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _write_estimates_csv(path, summaries) -> None:
    import csv as csvmod
    grid = summaries[0].lambda_bar.grid
    with open(path, "w", newline="") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["location", "lambda_bar"]
                        + [f"lambda_hat_gamma={s.gamma:g}" for s in summaries])
        for i, x in enumerate(grid):
            writer.writerow([repr(float(x)),
                             repr(float(summaries[0].lambda_bar.values[i]))]
                            + [repr(float(s.lambda_hat.values[i]))
                               for s in summaries])


def cmd_predict(args) -> int:
    cfg = resolve(args)
    window = parse_window(cfg.get("window", "circle"))
    pattern = _load_pattern(cfg["pattern"], window)
    futures = cfg.get("future") or []
    if not futures:
        raise CliError("predict needs at least one --future pattern")
    kernel = _build_kernel(cfg, window)
    prior = PriorSpec.uniform_unit(window, gamma=float(cfg.get("gamma_value", 0.0)))
    s = float(cfg.get("s", 1.0))
    t = float(cfg.get("t", 1.0))
    mcmc = build_mcmc_config(cfg)
    seed = cfg["seed"]
    predictive = build_predictive(pattern, prior, kernel, s, t, mcmc,
                                  RngStream(seed),
                                  aug_replicates=int(cfg.get("aug_replicates", 8)))
    rows = []
    for k, path in enumerate(futures):
        future = _load_pattern(path, window)
        score = predictive.log_score(future, RngStream(seed, 1000 + k))
        rows.append((path, future.count, score))
        print(f"{path} M={future.count} log_score={score:.6f}")
    out = cfg.get("out")
    if out:
        import csv as csvmod
        with open(out, "w", newline="") as fh:
            writer = csvmod.writer(fh)
            writer.writerow(["pattern", "count", "log_score"])
            for row in rows:
                writer.writerow([row[0], row[1], repr(row[2])])
    return EXIT_OK


def _check_lemma1() -> bool:
    grids = [0.5, 2.0, 10.0]
    functions = [("n", lambda n: n.astype(float)),
                 ("n^2", lambda n: n.astype(float) ** 2),
                 ("log(n+1)", lambda n: np.log(n + 1.0))]
    worst = 0.0
    for w in grids:
        for tau in grids:
            for label, h in functions:
                numeric, identity = poisson_derivative_identity(w, tau, h)
                rel = abs(numeric - identity) / max(abs(identity), 1e-12)
                worst = max(worst, rel)
                print(f"w={w} tau={tau} h={label}: numeric={numeric:.8g} "
                      f"identity={identity:.8g} rel={rel:.2e}")
    print(f"worst relative gap {worst:.2e} (gate 1e-6)")
    return worst <= 1e-6


def _check_lemma3() -> bool:
    thetas = np.geomspace(0.01, 50.0, 20)
    cs = np.geomspace(0.1, 10.0, 10)
    ok = True
    for theta in thetas:
        for c in cs:
            lhs, rhs = poisson_log_shift_bound(float(theta), float(c))
            if not lhs < rhs:
                ok = False
                print(f"violation at theta={theta:.4g} c={c:.4g}: "
                      f"lhs={lhs:.10g} rhs={rhs:.10g}")
    print(f"checked {thetas.size * cs.size} grid points; "
          + ("all satisfy lhs < rhs" if ok else "violations found"))
    return ok


def _check_theorem4(cfg: dict) -> bool:
    abs_alpha = float(cfg.get("abs_alpha", 2.0 * math.pi))
    tau = float(cfg.get("tau", 1.0))
    w_grid = np.geomspace(0.01, 100.0, int(cfg.get("w_points", 20)))
    report = domination_study(abs_alpha, [(0.0, abs_alpha - 1.0)], w_grid, tau)
    for note in report.notes:
        print("note:", note)
    if not report.entries:
        print("empty study")
        return False
    for entry in report.entries:
        print(f"{entry.label}: {entry.estimate:.8g}")
    positive = all(e.estimate > 0 for e in report.entries)
    print("all positive" if positive else "nonpositive value found")
    if cfg.get("out"):
        report.to_csv(cfg["out"])
    return positive


def _check_theorem3(cfg: dict, seed: int) -> bool:
    window = Window.circle()
    true_model = named_intensity("sine2", window)
    kernel = KernelSpec.von_mises(float(cfg.get("kappa", 5.0)), window)
    prior = PriorSpec.uniform_unit(window, gamma=window.length - 1.0)
    mcmc = McmcConfig(burn_in=int(cfg.get("burn_in", 100)),
                      samples=int(cfg.get("samples", 100)), thin=1)
    check = integral_representation_check(
        true_model, prior, kernel, float(cfg.get("s", 1.0)),
        float(cfg.get("t", 1.0)), int(cfg.get("replications", 200)), mcmc,
        RngStream(seed), nodes=int(cfg.get("nodes", 8)),
        grid_size=int(cfg.get("grid_size", 512)))
    print(f"predictive risk: {check.predictive.estimate:.5f} "
          f"+- {check.predictive.std_error:.5f}")
    print(f"integral of estimation risks: {check.integral:.5f} "
          f"+- {check.integral_se:.5f}")
    print(f"gap {check.gap:.5f} vs gate {check.gate:.5f} "
          f"({'pass' if check.passed else 'fail'})")
    return check.passed


def cmd_risk(args) -> int:
    cfg = resolve(args)
    if cfg.get("study"):
        return _run_study(cfg)
    check = cfg.get("check")
    if check == "lemma1":
        passed = _check_lemma1()
    elif check == "lemma3":
        passed = _check_lemma3()
    elif check == "theorem4":
        passed = _check_theorem4(cfg)
    elif check == "theorem3":
        passed = _check_theorem3(cfg, cfg["seed"])
    else:
        raise CliError("risk needs --check lemma1|lemma3|theorem3|theorem4 "
                       "or --study FILE")
    return EXIT_OK if passed else EXIT_GATE


def _run_study(cfg: dict) -> int:
    try:
        with open(cfg["study"]) as fh:
            study = json.load(fh)
        kind = study["kind"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(f"malformed study spec: {exc}")
    window = Window.circle()
    seed = cfg["seed"]
    if kind == "domination":
        report = domination_study(
            float(study.get("abs_alpha", 2.0 * math.pi)),
            [tuple(p) for p in study.get(
                "gamma_pairs", [[0.0, 2.0 * math.pi - 1.0]])],
            study.get("w_grid", [0.1, 1.0, 4.0 * math.pi, 50.0]),
            float(study.get("tau", 1.0)))
    elif kind in ("estimation", "predictive"):
        true_model = named_intensity(study.get("intensity", "sine2"), window)
        kernel = KernelSpec.von_mises(float(study.get("kappa", 5.0)), window)
        prior = PriorSpec.uniform_unit(window)
        mcmc = McmcConfig(burn_in=int(study.get("burn_in", 100)),
                          samples=int(study.get("samples", 100)), thin=1)
        reps = int(study.get("replications", 200))
        if kind == "estimation":
            report = estimation_risk_mc(
                true_model, prior, kernel, float(study.get("s", 1.0)), reps,
                mcmc, RngStream(seed),
                gammas=study.get("gammas", [0.0, window.length - 1.0]),
                grid_size=int(study.get("grid_size", 512)),
                keep_losses=False)
        else:
            report = predictive_risk_mc(
                true_model,
                prior.with_gamma(float(study.get("gamma", 0.0))), kernel,
                float(study.get("s", 1.0)), float(study.get("t", 1.0)), reps,
                mcmc, RngStream(seed), keep_losses=False)
    else:
        raise CliError(f"unknown study kind {kind!r}")
    out = cfg.get("out", "risk_report.csv")
    report.to_csv(out)
    write_json(os.path.splitext(out)[0] + ".json", report.to_json_obj())
    for entry in report.entries:
        print(f"{entry.label}: {entry.estimate:.6g} +- {entry.std_error:.3g}")
    for note in report.notes:
        print("note:", note)
    return EXIT_OK


def cmd_figure1(args) -> int:
    cfg = resolve(args)
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    window = Window.circle()
    pattern = PointPattern(window, np.asarray(FIGURE1_POINTS))
    pattern.to_csv(os.path.join(out_dir, "figure1_pattern.csv"))
    kernel = KernelSpec.von_mises(float(cfg.get("kappa", 5.0)), window)
    prior = PriorSpec.uniform_unit(window)
    gammas = [0.0, prior.total_mass_alpha - 1.0]
    mcmc = build_mcmc_config(cfg)
    summaries = estimate_intensity_multi(pattern, prior, kernel,
                                         float(cfg.get("s", 1.0)), gammas,
                                         mcmc, RngStream(cfg["seed"]))
    for summary in summaries:
        print(f"gamma={summary.gamma:g} weight_mean={summary.weight_mean:.6f}")
    _write_estimates_csv(os.path.join(out_dir, "figure1_estimates.csv"),
                         summaries)
    write_json(os.path.join(out_dir, "figure1_estimates.json"),
               [s.to_json() for s in summaries])
    grid = summaries[0].lambda_bar.grid
    truth = named_intensity("sine2", window)
    series = [("true", truth(grid))]
    series += [(f"gamma={s.gamma:g}", s.lambda_hat.values) for s in summaries]
    line_chart(os.path.join(out_dir, "figure1.svg"), grid, series,
               ticks=pattern.points, title="shrinkage vs non-shrinkage",
               x_label="location", y_label="intensity")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhppbayes",
        description="Bayesian inference and risk studies for nonhomogeneous "
                    "Poisson processes with kernel-mixture intensities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (falls back to NHPP_SEED, then 0)")
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("simulate", help="sample a point pattern")
    common(p)
    p.add_argument("--intensity", help="sine2 or const:VALUE")
    p.add_argument("--exposure", type=float)
    p.add_argument("--window", help="'circle' or 'a,b'")
    p.add_argument("--method", choices=["auto", "inversion", "thinning"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="posterior-mean intensity estimates")
    common(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--window")
    p.add_argument("--kernel", choices=["von_mises", "gaussian"])
    p.add_argument("--kappa", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--gamma", type=float, action="append")
    p.add_argument("--shrink", action="store_true", default=None,
                   help="also estimate with gamma = |alpha| - 1")
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.add_argument("--true-intensity", dest="true_intensity")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("predict", help="log scores of future patterns")
    common(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--future", action="append")
    p.add_argument("--window")
    p.add_argument("--kernel", choices=["von_mises", "gaussian"])
    p.add_argument("--kappa", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--gamma", dest="gamma_value", type=float)
    p.add_argument("--aug-replicates", dest="aug_replicates", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("risk", help="risk studies and verification gates")
    common(p)
    p.add_argument("--check",
                   choices=["lemma1", "lemma3", "theorem3", "theorem4"])
    p.add_argument("--study", help="JSON study description")
    p.add_argument("--abs-alpha", dest="abs_alpha", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--w-points", dest="w_points", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--replications", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("figure1",
                       help="shrinkage comparison on the fixed ten-point pattern")
    common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--kappa", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--thin", type=int)
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
