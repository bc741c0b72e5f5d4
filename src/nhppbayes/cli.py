"""Command-line front end.

Subcommands: ``simulate`` (draw a pattern), ``estimate`` (posterior-mean
intensity for one or more shrinkage exponents), ``predict`` (log scores of
future patterns), ``risk`` (named verification gates and Monte Carlo risk
studies), and ``figure1`` (``estimate`` on a fixed ten-point pattern,
comparing the shrinkage and non-shrinkage estimates).

Exit codes: 0 success / gate passed, 1 gate failed, 2 configuration error,
3 chain diagnostic failure, 141 stdout closed early (128 + SIGPIPE).

Each option's default and type sit in its ``add_argument`` call, and
argparse applies them.  Every command first prints a ``resolved-config:``
line that lists every option of its subcommand, defaults included.  A JSON
file passed with ``--config`` holds option values under the names that line
echoes; an unknown key, or a value its option cannot parse, exits 2.  The
file's values become the subcommand's defaults, so flags override them, and
the echoed line fed back through ``--config`` reproduces the run byte for
byte.  ``--seed`` defaults to the NHPP_SEED environment variable, else 0, so
the order is flag, config file, NHPP_SEED, 0.  A process parses with one
parser: ``main`` builds it on its first call and, before every parse,
restores each option's built-in default and reads NHPP_SEED again, so no
config file's values reach the next run.

An option that the run does not read, set away from its built-in default by
a flag or by the config file, exits 2 before any chain runs.  ``risk`` reads
seed and the options ``RISK_OPTIONS`` lists for its kind.  In ``estimate``
and ``predict`` the window picks the kernel, von Mises on the circle and
Gaussian on an interval, so they read ``--kappa`` only on the circle and
``--sigma`` only on an interval; the other commands read every option.  The
echo shows an unread option at its built-in value, so it still reruns.

``risk --check KIND`` names the run, and so does a config file's ``kind``
key: a study file is a ``risk`` config file, and ``--study`` is a second
name for ``--config``.  ``theorem3`` runs at
the prior gamma 2 pi - 1 (the uniform base's |alpha| - 1), ``estimation``
reports gamma beside 2 pi - 1, and ``theorem4`` and ``domination`` tabulate
gamma against abs_alpha - 1 over w_grid.  The three studies write a CSV
report to ``--out`` (default ``risk_report.csv``) and a JSON one beside it;
``theorem4`` writes the CSV only when ``--out`` is given.  The study keys
``gammas`` and ``gamma_pairs`` and the flag ``--w-points`` are retired for
``--gamma`` and ``--w-grid``, and ``--kernel`` for ``--window``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .core import (IntensityModel, ModelError, PointPattern, PriorSpec, Window,
                   write_csv, write_json)
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
EXIT_PIPE = 141

FIGURE1_POINTS = (0.29, 1.55, 2.06, 2.85, 2.87, 3.60, 5.55, 5.61, 5.65, 6.01)
MIN_ACCEPTANCE = 0.05


class CliError(Exception):
    """A configuration error found by the front end: exit 2."""


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


def cmd_simulate(args) -> int:
    window = parse_window(args.window)
    model = named_intensity(args.intensity, window)
    pattern = sample_nhpp(model, args.exposure, RngStream(args.seed))
    pattern.to_csv(args.out)
    print(f"N={pattern.count} seed={args.seed} out={args.out}")
    return EXIT_OK


def _load_pattern(path, window: Window) -> PointPattern:
    try:
        return PointPattern.from_csv(path, window)
    except (OSError, ModelError) as exc:
        raise CliError(f"cannot load pattern {path}: {exc}")


def _build_kernel(args, window: Window) -> KernelSpec:
    if window.is_circle:
        return KernelSpec.von_mises(args.kappa, window)
    return KernelSpec.gaussian(args.sigma, window)


def _gammas(args, prior_mass: float) -> list:
    gammas = args.gamma + ([prior_mass - 1.0] if args.shrink else [])
    if not gammas:
        raise CliError("estimate needs a --gamma or --shrink")
    return list(dict.fromkeys(gammas))


def cmd_estimate(args) -> int:
    pattern = _load_pattern(args.pattern, parse_window(args.window))
    return _estimate(args, pattern, "intensity estimates")


def _estimate(args, pattern: PointPattern, title: str) -> int:
    """Estimate on ``pattern``, print the weight means, write the files."""
    window = pattern.window
    kernel = _build_kernel(args, window)
    prior = PriorSpec.uniform_unit(window)
    gammas = _gammas(args, prior.total_mass_alpha)
    mcmc = McmcConfig(args.burn_in, args.samples, args.thin)
    summaries = estimate_intensity_multi(pattern, prior, kernel, args.s,
                                         gammas, mcmc, RngStream(args.seed))
    rate = summaries[0].diagnostics.get("acceptance_rate")
    lam_bar = summaries[0].lambda_bar
    for summary in summaries:
        print(f"gamma={summary.gamma:g} weight_mean={summary.weight_mean:.6f}")
    if args.json:
        write_json(args.json, [s.to_json() for s in summaries])
    if args.csv:
        columns = [lam_bar.grid, lam_bar.values,
                   *(s.lambda_hat.values for s in summaries)]
        write_csv(args.csv, ["location", "lambda_bar"]
                  + [f"lambda_hat_gamma={s.gamma:g}" for s in summaries],
                  ([repr(float(v)) for v in row] for row in zip(*columns)))
    if args.svg:
        series = []
        if args.true_intensity:
            truth = named_intensity(args.true_intensity, window)
            series.append(("true", truth(lam_bar.grid)))
        for summary in summaries:
            series.append((f"gamma={summary.gamma:g}",
                           summary.lambda_hat.values))
        line_chart(args.svg, lam_bar.grid, series, ticks=pattern.points,
                   title=title, x_label="location", y_label="intensity")
    if rate is not None and rate < MIN_ACCEPTANCE:
        print(f"diagnostic failure: acceptance rate {rate:.3f} below "
              f"{MIN_ACCEPTANCE}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def cmd_predict(args) -> int:
    window = parse_window(args.window)
    pattern = _load_pattern(args.pattern, window)
    if not args.future:
        raise CliError("predict needs at least one --future pattern")
    kernel = _build_kernel(args, window)
    prior = PriorSpec.uniform_unit(window, gamma=args.gamma_value)
    mcmc = McmcConfig(args.burn_in, args.samples, args.thin)
    predictive = build_predictive(pattern, prior, kernel, args.s, args.t, mcmc,
                                  RngStream(args.seed),
                                  aug_replicates=args.aug_replicates)
    rows = []
    for k, path in enumerate(args.future):
        future = _load_pattern(path, window)
        score = predictive.log_score(future, RngStream(args.seed, 1000 + k))
        rows.append((path, future.count, repr(score)))
        print(f"{path} M={future.count} log_score={score:.6f}")
    if args.out:
        write_csv(args.out, ["pattern", "count", "log_score"], rows)
    return EXIT_OK


def _check_lemma1(_args) -> bool:
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


def _check_lemma3(_args) -> bool:
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


def _check_theorem4(args) -> bool:
    report = _domination_study(args)
    for note in report.notes:
        print("note:", note)
    for entry in report.entries:
        print(f"{entry.label}: {entry.estimate:.8g}")
    positive = all(e.estimate > 0 for e in report.entries)
    print("all positive" if positive else "nonpositive value found")
    if args.out:
        report.to_csv(args.out)
    return positive


def _harness(args) -> tuple:
    """The truth, kernel, uniform prior and chain of a Monte Carlo run."""
    window = Window.circle()
    return (named_intensity(args.intensity, window),
            KernelSpec.von_mises(args.kappa, window),
            PriorSpec.uniform_unit(window),
            McmcConfig(args.burn_in, args.samples, thin=1))


def _check_theorem3(args) -> bool:
    true_model, kernel, prior, mcmc = _harness(args)
    check = integral_representation_check(
        true_model, prior.with_gamma(prior.total_mass_alpha - 1.0), kernel,
        args.s, args.t, args.replications, mcmc, RngStream(args.seed),
        nodes=args.nodes, grid_size=args.grid_size)
    print(f"predictive risk: {check.predictive.estimate:.5f} "
          f"+- {check.predictive.std_error:.5f}")
    print(f"integral of estimation risks: {check.integral:.5f} "
          f"+- {check.integral_se:.5f}")
    print(f"gap {check.gap:.5f} vs gate {check.gate:.5f} "
          f"({'pass' if check.passed else 'fail'})")
    return check.passed


def _estimation_study(args):
    true_model, kernel, prior, mcmc = _harness(args)
    gammas = list(dict.fromkeys([args.gamma, prior.total_mass_alpha - 1.0]))
    return estimation_risk_mc(true_model, prior, kernel, args.s,
                              args.replications, mcmc, RngStream(args.seed),
                              gammas=gammas, t=args.t,
                              grid_size=args.grid_size)


def _predictive_study(args):
    true_model, kernel, prior, mcmc = _harness(args)
    return predictive_risk_mc(true_model, prior.with_gamma(args.gamma), kernel,
                              args.s, args.t, args.replications, mcmc,
                              RngStream(args.seed))


def _domination_study(args):
    report = domination_study(args.abs_alpha, args.gamma, args.w_grid,
                              args.tau)
    if not report.entries:
        raise CliError("; ".join(report.notes))
    return report


GATES = {"lemma1": _check_lemma1, "lemma3": _check_lemma3,
         "theorem3": _check_theorem3, "theorem4": _check_theorem4}
STUDIES = {"estimation": _estimation_study, "predictive": _predictive_study,
           "domination": _domination_study}
_MONTE_CARLO = ("intensity", "kappa", "s", "t", "replications", "burn_in",
                "samples")
RISK_OPTIONS = {
    "lemma1": (),
    "lemma3": (),
    "theorem3": _MONTE_CARLO + ("nodes", "grid_size"),
    "theorem4": ("gamma", "abs_alpha", "tau", "w_grid", "out"),
    "estimation": _MONTE_CARLO + ("gamma", "grid_size", "out"),
    "predictive": _MONTE_CARLO + ("gamma", "out"),
    "domination": ("gamma", "abs_alpha", "tau", "w_grid", "out"),
}


def _check_reads(args, built_in: dict) -> None:
    """Exit 2 on an option the run does not read that is set away from its
    ``built_in`` default, by a flag or by the config file."""
    if args.command == "risk":
        if args.kind is None:
            raise CliError("risk needs --check KIND, or a config file with a "
                           "'kind' key")
        run = f"risk --check {args.kind}"
        reads = {"config", "kind", "seed", *RISK_OPTIONS[args.kind]}
        unread = [key for key in vars(args) if key not in reads]
    elif args.command in ("estimate", "predict"):
        run = f"{args.command} --window {args.window}"
        unread = ["sigma" if args.window == "circle" else "kappa"]
    else:
        return
    unread = [key for key in unread
              if key in built_in and getattr(args, key) != built_in[key]]
    if unread:
        raise CliError(f"{run} does not read {', '.join(unread)}")


def cmd_risk(args) -> int:
    if args.kind in GATES:
        return EXIT_OK if GATES[args.kind](args) else EXIT_GATE
    # --out has no default because --check theorem4 writes a report only
    # when it is given; a study always writes one
    out = args.out or "risk_report.csv"
    out_json = os.path.splitext(out)[0] + ".json"
    if args.config and os.path.realpath(out_json) == os.path.realpath(
            args.config):
        raise CliError(f"--out {out} would write its JSON report over the "
                       f"config file {args.config}")
    report = STUDIES[args.kind](args)
    report.to_csv(out)
    write_json(out_json, report.to_json_obj())
    for entry in report.entries:
        print(f"{entry.label}: {entry.estimate:.6g} +- {entry.std_error:.3g}")
    for note in report.notes:
        print("note:", note)
    return EXIT_OK


def cmd_figure1(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    path = functools.partial(os.path.join, args.out_dir)
    pattern = PointPattern(Window.circle(), np.asarray(FIGURE1_POINTS))
    pattern.to_csv(path("figure1_pattern.csv"))
    fixed = argparse.Namespace(
        **vars(args), gamma=[0.0], shrink=True,
        json=path("figure1_estimates.json"), csv=path("figure1_estimates.csv"),
        svg=path("figure1.svg"), true_intensity="sine2")
    return _estimate(fixed, pattern, "shrinkage vs non-shrinkage")


class _Append(argparse.Action):
    """A repeatable flag: the values given replace the default list."""

    def __call__(self, parser, namespace, value, option_string=None):
        items = getattr(namespace, self.dest)
        items = [] if items is self.default else items
        setattr(namespace, self.dest, items + [value])


class _Config(argparse.Action):
    """``--config FILE``: the file's values become the subcommand's defaults.

    Defaults take effect at the start of a parse, so ``main`` parses again
    after this has run; flags on the command line still win.  Each value, or
    each element of a list, goes through its option's ``type`` as a string
    and must be one of its ``choices``, exactly as a flag's value does.
    ``null`` keeps the option's own default.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise argparse.ArgumentError(self, f"cannot read {path}: {exc}")
        if not isinstance(values, dict):
            raise argparse.ArgumentError(self, f"{path} must hold a JSON object")
        options = {a.dest: a for a in parser._actions
                   if a.dest not in ("help", "config")}
        for key in values:
            if key not in options:
                raise argparse.ArgumentError(self, f"unknown config key {key!r}")
        parser.set_defaults(**{key: self._default(options[key], key, value)
                               for key, value in values.items()
                               if value is not None})
        setattr(namespace, self.dest, path)

    def _default(self, option, key, value):
        convert = option.type or str
        try:
            if option.nargs == 0:               # a store_true switch
                if isinstance(value, bool):
                    return value
            elif isinstance(option, _Append):
                if isinstance(value, list):
                    return [convert(str(v)) for v in value]
            elif not isinstance(value, (list, dict)):
                converted = convert(str(value))
                if option.choices is None or converted in option.choices:
                    return converted
        except ValueError:
            pass
        raise argparse.ArgumentError(
            self, f"config key {key!r} cannot take the value {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhppbayes",
        description="Bayesian inference and risk studies for nonhomogeneous "
                    "Poisson processes with kernel-mixture intensities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *config_aliases):
        p.add_argument("--seed", type=int,
                       default=os.environ.get("NHPP_SEED", "0"),
                       help="random seed (default: NHPP_SEED, else 0)")
        p.add_argument("--config", *config_aliases, action=_Config,
                       help="JSON file of option values; flags override it")

    def fit(p):
        p.add_argument("--kappa", type=float, default=5.0)
        p.add_argument("--s", type=float, default=1.0,
                       help="exposure of the observed pattern")

    def model(p):
        p.add_argument("--window", default="circle",
                       help="'circle' (von Mises kernel) or 'a,b' (Gaussian)")
        p.add_argument("--sigma", type=float, default=1.0)

    def chain(p):
        p.add_argument("--burn-in", dest="burn_in", type=int, default=2000)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--thin", type=int, default=5)

    p = sub.add_parser("simulate", help="sample a point pattern")
    common(p)
    p.add_argument("--intensity", default="sine2", help="sine2 or const:VALUE")
    p.add_argument("--exposure", type=float, default=1.0)
    p.add_argument("--window", default="circle", help="'circle' or 'a,b'")
    p.add_argument("--out", default="pattern.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="posterior-mean intensity estimates")
    common(p)
    model(p)
    fit(p)
    chain(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--gamma", type=float, action=_Append, default=[0.0],
                   help="shrinkage exponent; repeat for several")
    p.add_argument("--shrink", action="store_true",
                   help="also estimate with gamma = |alpha| - 1")
    p.add_argument("--json")
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.add_argument("--true-intensity", dest="true_intensity")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("predict", help="log scores of future patterns")
    common(p)
    model(p)
    fit(p)
    chain(p)
    p.add_argument("--pattern", required=True)
    p.add_argument("--future", action=_Append, default=[],
                   help="future pattern to score; repeat for several")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--gamma", dest="gamma_value", type=float, default=0.0)
    p.add_argument("--aug-replicates", dest="aug_replicates", type=int,
                   default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("risk", help="risk studies and verification gates")
    common(p, "--study")
    fit(p)
    p.add_argument("--check", dest="kind", choices=[*GATES, *STUDIES],
                   help="the gate or study to run")
    p.add_argument("--intensity", default="sine2", help="sine2 or const:VALUE")
    p.add_argument("--gamma", type=float, default=0.0,
                   help="shrinkage exponent, set against |alpha| - 1")
    p.add_argument("--abs-alpha", dest="abs_alpha", type=float,
                   default=2.0 * math.pi)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--w-grid", dest="w_grid", type=float, action=_Append,
                   default=np.geomspace(0.01, 100.0, 20).tolist(),
                   help="true weight to tabulate; repeat for several")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--replications", type=int, default=200)
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=100)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=512)
    p.add_argument("--out")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("figure1",
                       help="shrinkage comparison on the fixed ten-point pattern")
    common(p)
    fit(p)
    chain(p)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=cmd_figure1)

    return parser


@functools.cache
def _parser() -> tuple:
    """The process's one parser, its subcommands' parsers, and each
    subcommand's option defaults as built (``help`` aside, whose default
    would put a ``help`` key into the echo).  A parser is cyclic garbage,
    which piles up until a full collection, so it is built once."""
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    return parser, commands.choices, {
        name: {a.dest: a.default for a in p._actions if a.dest != "help"}
        for name, p in commands.choices.items()}


def main(argv=None) -> int:
    parser, commands, built_in = _parser()
    # undo the defaults that an earlier run's config file set
    seed = os.environ.get("NHPP_SEED", "0")
    for name, p in commands.items():
        p.set_defaults(**{**built_in[name], "seed": seed})
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse has printed its help or usage error
        return exc.code
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "func", "config")}
    try:
        print("resolved-config:", json.dumps(options, sort_keys=True))
        _check_reads(args, built_in[args.command])
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (``| head -1``); devnull takes the flush at
        # exit, which would raise again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (CliError, ModelError, OSError) as exc:  # OSError: an output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
