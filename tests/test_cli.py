import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from nhppbayes import cli, posterior, predict, risk
from nhppbayes.cli import KINDS, build_parser, main

TWO_PI = 2.0 * math.pi
SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def no_chain(monkeypatch):
    """Make every command fail loudly if it starts a chain."""
    def ran(*args, **kwargs):
        raise AssertionError("the chain ran before the input was checked")
    for module in (posterior, predict, risk):
        monkeypatch.setattr(module, "run_mcmc", ran)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def predictive_study(tmp_path):
    """A small predictive study file; its s and t differ from the defaults."""
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"kind": "predictive", "s": 2.0, "t": 3.0,
                                "replications": 2, "burn_in": 20,
                                "samples": 20}))
    return path


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["simulate", "--intensity", "sine2", "--exposure", "1",
                "--seed", "7"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_reports_count_and_seed(self, tmp_path, capsys):
        code, out, _ = run(["simulate", "--intensity", "const:2",
                            "--exposure", "1", "--seed", "3", "--out",
                            str(tmp_path / "p.csv")], capsys)
        assert code == 0
        assert "seed=3" in out and "N=" in out

    def test_mean_count_over_seeds(self, tmp_path, capsys):
        counts = []
        for seed in range(600):
            code, out, _ = run(["simulate", "--intensity", "const:2",
                                "--exposure", "1", "--seed", str(seed),
                                "--out", str(tmp_path / "p.csv")], capsys)
            assert code == 0
            counts.append(int(out.split("N=")[1].split()[0]))
        target = 4.0 * math.pi
        assert abs(np.mean(counts) - target) < 3 * math.sqrt(target / 600)

    def test_zero_length_window_exits_2(self, tmp_path, capsys):
        code, _, err = run(["simulate", "--window", "1,1", "--out",
                            str(tmp_path / "p.csv")], capsys)
        assert code == 2
        assert "error" in err

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        for env, code, shown in [("99", 0, "seed=99"),
                                 ("abc", 2, "invalid int value: 'abc'")]:
            monkeypatch.setenv("NHPP_SEED", env)
            got, out, err = run(["simulate", "--intensity", "sine2", "--out",
                                 str(tmp_path / "p.csv")], capsys)
            assert got == code
            assert shown in out + err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"intensity": "const:1", "exposure": 2.0,
                                   "out": str(tmp_path / "c.csv")}))
        code, out, _ = run(["simulate", "--config", str(cfg), "--seed", "5",
                            "--intensity", "sine2"], capsys)
        assert code == 0
        echoed = json.loads(out.splitlines()[0].split("resolved-config: ")[1])
        assert echoed["intensity"] == "sine2"      # flag wins
        assert echoed["exposure"] == 2.0           # file value survives

    def test_echoed_config_reproduces_run(self, tmp_path, capsys):
        # the echo lists the defaults too, a repeated flag replaces its
        # default list, and --pattern stays a flag
        pattern = tmp_path / "pattern.csv"
        pattern.write_text("location\n0.5\n2.0\n2.1\n")
        runs = [("simulate", [], ["--intensity", "sine2", "--exposure", "1.5"],
                 "out", {"window": "circle"}),
                ("estimate", ["--pattern", str(pattern)],
                 ["--gamma", "0.5", "--shrink", "--burn-in", "20",
                  "--samples", "10"], "csv",
                 {"kappa": 5.0, "window": "circle", "thin": 5,
                  "json": None, "gamma": [0.5]}),
                ("estimate", ["--pattern", str(pattern)],
                 ["--window", "0,7", "--sigma", "0.5",
                  "--burn-in", "20", "--samples", "10"], "csv",
                 {"window": "0,7", "sigma": 0.5, "kappa": 5.0}),
                ("risk", [], ["--study", str(predictive_study(tmp_path))],
                 "out", {"kind": "predictive", "s": 2.0, "t": 3.0,
                         "replications": 2})]
        for command, kept, flags, out_key, shown in runs:
            first, second = tmp_path / "first.csv", tmp_path / "second.csv"
            code, out, _ = run([command, *kept, *flags, "--seed", "21",
                                f"--{out_key}", str(first)], capsys)
            assert code == 0
            echoed = json.loads(
                out.splitlines()[0].split("resolved-config: ")[1])
            assert shown.items() <= echoed.items()
            echoed[out_key] = str(second)
            cfg = tmp_path / "echo.json"
            cfg.write_text(json.dumps(echoed))
            assert main([command, *kept, "--config", str(cfg)]) == 0
            capsys.readouterr()
            assert first.read_bytes() == second.read_bytes()


class TestSharedParser:
    """One parser serves every ``main`` call in a process."""

    @staticmethod
    def echo(out):
        return json.loads(out.splitlines()[0].split("resolved-config: ")[1])

    def test_config_values_do_not_reach_the_next_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exposure": 2.0}))
        out = ["--out", str(tmp_path / "p.csv")]
        code, first, _ = run(["simulate", "--config", str(cfg), *out], capsys)
        assert code == 0 and self.echo(first)["exposure"] == 2.0
        code, second, _ = run(["simulate", *out], capsys)
        assert code == 0 and self.echo(second)["exposure"] == 1.0

    def test_seed_env_read_on_every_run(self, tmp_path, capsys, monkeypatch):
        for env in ("11", "12"):
            monkeypatch.setenv("NHPP_SEED", env)
            code, out, _ = run(["simulate", "--out", str(tmp_path / "p.csv")],
                               capsys)
            assert code == 0 and self.echo(out)["seed"] == int(env)

    def test_built_once(self, tmp_path, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()
        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        for seed in ("1", "2", "3"):
            assert main(["simulate", "--seed", seed, "--out",
                         str(tmp_path / "p.csv")]) == 0
        assert main(["risk", "--check", "theorem4"]) == 0
        capsys.readouterr()
        assert len(built) == 1


class TestEstimate:
    @pytest.fixture()
    def pattern_file(self, tmp_path, capsys):
        path = tmp_path / "pattern.csv"
        main(["simulate", "--intensity", "sine2", "--exposure", "1",
              "--seed", "7", "--out", str(path)])
        capsys.readouterr()
        return path

    def test_outputs_and_weights(self, pattern_file, tmp_path, capsys):
        svg = tmp_path / "est.svg"
        code, out, _ = run(["estimate", "--pattern", str(pattern_file),
                            "--kappa", "5", "--s", "1", "--gamma", "0",
                            "--shrink", "--burn-in", "150", "--samples",
                            "150", "--thin", "1", "--seed", "2",
                            "--svg", str(svg), "--csv",
                            str(tmp_path / "est.csv"), "--json",
                            str(tmp_path / "est.json"),
                            "--true-intensity", "sine2"], capsys)
        assert code == 0
        n = sum(1 for _ in open(pattern_file)) - 1
        assert f"weight_mean={n + TWO_PI:.6f}" in out
        assert f"weight_mean={float(n + 1):.6f}" in out
        root = ET.parse(svg).getroot()
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 3          # truth plus two estimates
        ticks = [el for el in root.findall(f".//{SVG_NS}line")
                 if el.get("class") == "tick"]
        assert len(ticks) == n
        est = json.loads((tmp_path / "est.json").read_text())
        assert len(est) == 2

    def test_missing_pattern_exits_2(self, tmp_path, capsys):
        missing, bad = tmp_path / "nope.csv", tmp_path / "bad.csv"
        bad.write_text("location\n1.0\nabc\n")
        for path, shown in [(missing, "nope.csv"), (bad, f"{bad}, line 3")]:
            for argv in (["estimate"], ["predict", "--future", str(path)]):
                code, _, err = run(argv + ["--pattern", str(path)], capsys)
                assert code == 2
                assert shown in err

    def test_byte_identical_rerun(self, pattern_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["estimate", "--pattern", str(pattern_file), "--burn-in", "60",
                "--samples", "40", "--thin", "1", "--seed", "4"]
        assert main(base + ["--csv", str(out1)]) == 0
        assert main(base + ["--csv", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_pattern_prior_mean(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("location\n")
        code, out, _ = run(["estimate", "--pattern", str(empty), "--seed",
                            "1"], capsys)
        assert code == 0
        assert f"weight_mean={TWO_PI:.6f}" in out

    def test_narrow_gaussian_passes_the_acceptance_gate(self, tmp_path,
                                                        capsys):
        # sigma = 0.002 on [0, 4], a hundredth of a fixed random-walk step of
        # 0.2: the Gibbs refresh accepts every draw, so the exit-3 gate on a
        # low acceptance rate stays quiet however narrow the kernel
        pattern = tmp_path / "x.csv"
        pattern.write_text("location\n0.2\n1.1\n1.3\n2.0\n3.9\n")
        code, _, err = run(["estimate", "--window", "0,4", "--sigma", "0.002",
                            "--pattern", str(pattern), "--shrink",
                            "--burn-in", "100", "--samples", "100", "--thin",
                            "1", "--json", str(tmp_path / "est.json")],
                           capsys)
        assert code == 0, err
        est = json.loads((tmp_path / "est.json").read_text())
        assert est[0]["diagnostics"]["acceptance_rate"] == 1.0


class TestPredict:
    def test_scores_future_patterns(self, tmp_path, capsys):
        pat = tmp_path / "x.csv"
        fut = tmp_path / "y.csv"
        main(["simulate", "--intensity", "sine2", "--seed", "7", "--out",
              str(pat)])
        main(["simulate", "--intensity", "sine2", "--seed", "8", "--out",
              str(fut)])
        capsys.readouterr()
        scores = tmp_path / "scores.csv"
        code, out, _ = run(["predict", "--pattern", str(pat), "--future",
                            str(fut), "--burn-in", "100", "--samples", "100",
                            "--thin", "1", "--seed", "2", "--out",
                            str(scores)], capsys)
        assert code == 0
        assert "log_score=" in out
        lines = scores.read_text().splitlines()
        assert lines[0] == "pattern,count,log_score"
        assert len(lines) == 2

    def test_narrow_kernel_on_a_long_window(self, tmp_path, capsys):
        # sigma = 0.1 on [0, 10000], one future point far from the pattern:
        # the clusters add nothing, so the score is the count layer's
        # log pmf plus log(base term / (|alpha| + N)), and the base term is
        # exactly 1 inside the window
        pat = tmp_path / "x.csv"
        pat.write_text("location\n100\n2000\n")
        futures = []
        for name, y in (("a.csv", 3312.34), ("b.csv", 3000.0)):
            (tmp_path / name).write_text(f"location\n{y}\n")
            futures += ["--future", str(tmp_path / name)]
        code, out, _ = run(["predict", "--window", "0,10000", "--sigma", "0.1",
                            "--pattern", str(pat), *futures, *SHORT_CHAIN],
                           capsys)
        assert code == 0
        exact = predict.nb_log_pmf(10002.0, 0.5, 1) - math.log(10002.0)
        assert f"{exact:.6f}" == "-6933.551247"
        scores = re.findall(r"log_score=(\S+)", out)
        assert scores == [f"{exact:.6f}"] * 2

    def test_requires_future(self, tmp_path, capsys):
        pat = tmp_path / "x.csv"
        main(["simulate", "--seed", "7", "--out", str(pat)])
        capsys.readouterr()
        code, _, err = run(["predict", "--pattern", str(pat)], capsys)
        assert code == 2
        assert "--future" in err


class TestRisk:
    def test_lemma3_gate_passes(self, capsys):
        code, out, _ = run(["risk", "--check", "lemma3"], capsys)
        assert code == 0
        assert "lhs < rhs" in out

    def test_lemma1_gate_passes(self, capsys):
        code, out, _ = run(["risk", "--check", "lemma1"], capsys)
        assert code == 0
        assert "worst relative gap" in out

    def test_theorem4_gate_passes(self, capsys):
        # |alpha| <= 1 still leaves the gammas below |alpha| - 1
        for flags in (["--abs-alpha", "6.2831853"],
                      ["--abs-alpha", "0.5", "--gamma", "-1"]):
            code, out, _ = run(["risk", "--check", "theorem4", *flags],
                               capsys)
            assert code == 0
            assert "all positive" in out and "note" not in out

    def test_requires_check_or_study(self, capsys):
        code, _, err = run(["risk"], capsys)
        assert code == 2
        assert "--check" in err

    def test_malformed_study_exits_2(self, tmp_path, capsys, no_chain):
        # an empty w_grid would certify nothing, so it is an error too
        bad = tmp_path / "bad.json"
        for spec, named in [("{not json", "bad.json"),
                            ('{"kind": "theorem4", "w_grid": []}', "w_grid"),
                            ('{"kind": "bogus"}', "'kind'"),
                            ('{"kind": "predictive", "kapa": 3}', "'kapa'"),
                            ('{"kind": "predictive", "replications": "abc"}',
                             "'replications'")]:
            bad.write_text(spec)
            code, _, err = run(["risk", "--study", str(bad), "--out",
                                str(tmp_path / "report.csv")], capsys)
            assert code == 2
            assert "error:" in err and named in err
            assert not (tmp_path / "report.csv").exists()

    def test_unread_option_exits_2(self, tmp_path, capsys, no_chain):
        # an option the run does not read is an error whether a flag or the
        # study file sets it; one at its built-in default is not.  risk
        # reads its kind's options, estimate and predict sigma only on an
        # interval (the Gaussian kernel) and kappa only on the circle
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"kind": "predictive", "tau": 2.0,
                                     "abs_alpha": 2.0 * math.pi}))
        pattern = tmp_path / "p.csv"
        pattern.write_text("location\n1.0\n")
        report = tmp_path / "report.csv"
        for argv, named in [(["risk", "--check", "predictive", "--abs-alpha",
                              "3", "--out", str(report)], "abs_alpha"),
                            (["risk", "--check", "lemma1", "--nodes", "4"],
                             "nodes"),
                            (["risk", "--study", str(study), "--out",
                              str(report)], "tau"),
                            (["estimate", "--pattern", str(pattern),
                              "--sigma", "nan"], "sigma"),
                            (["predict", "--pattern", str(pattern),
                              "--future", str(pattern), "--sigma", "2"],
                             "sigma"),
                            (["estimate", "--pattern", str(pattern),
                              "--window", "0,7", "--kappa", "3"], "kappa")]:
            code, _, err = run(argv, capsys)
            assert code == 2
            assert err.strip().endswith(f"does not read {named}")
            assert not report.exists()

    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        # a reader that stops early (`| head -1`) ends the run with the
        # SIGPIPE status and no traceback
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nhppbayes.cli", "risk", "--check",
             "predictive", "--replications", "2", "--burn-in", "50",
             "--samples", "50", "--out", str(tmp_path / "report.csv")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"resolved-config:")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
        assert "Traceback" not in err and "Error" not in err

    def test_overflowing_loss_stops_at_its_replication(self, tmp_path,
                                                       capsys, monkeypatch):
        # t * divergence overflows in the first replication, which exits 2
        # there rather than after all 50 chains
        chains = []
        run_mcmc = risk.run_mcmc

        def counted(*args, **kwargs):
            chains.append(1)
            return run_mcmc(*args, **kwargs)
        monkeypatch.setattr(risk, "run_mcmc", counted)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["risk", "--check", "estimation", "--t", "1e308",
                            "--replications", "50", "--burn-in", "2",
                            "--samples", "2"], capsys)
        assert code == 2
        assert "not finite" in err
        assert len(chains) == 1

    def test_study_never_overwrites_itself(self, tmp_path, capsys, no_chain):
        # the CSV report, its JSON sibling and the study file are three
        # different files, or the run exits 2 before any chain
        spec = predictive_study(tmp_path)
        text = spec.read_text()
        code, _, err = run(["risk", "--study", str(spec), "--out",
                            str(tmp_path / "study.csv")], capsys)
        assert code == 2
        assert str(spec) in err
        assert spec.read_text() == text
        assert not (tmp_path / "study.csv").exists()
        # a JSON study file named .csv, given as --out too
        named_csv = tmp_path / "s.csv"
        named_csv.write_text(text)
        code, _, err = run(["risk", "--study", str(named_csv), "--out",
                            str(named_csv)], capsys)
        assert code == 2
        assert str(named_csv) in err
        assert named_csv.read_text() == text
        assert not (tmp_path / "s.json").exists()
        # --out ending in .json: the CSV would be its own JSON sibling
        report = tmp_path / "r.json"
        code, _, err = run(["risk", "--check", "predictive", "--out",
                            str(report)], capsys)
        assert code == 2
        assert str(report) in err
        assert not report.exists()

    def test_study_file_runs_as_flags(self, tmp_path, capsys):
        # a study file is a config file, so the same values given as
        # flags write the same reports
        flags = ["--check", "predictive", "--s", "2", "--t", "3",
                 "--replications", "2", "--burn-in", "20", "--samples", "20"]
        study = ["--study", str(predictive_study(tmp_path))]
        for name, argv in [("file", study), ("flags", flags)]:
            (tmp_path / name).mkdir()
            assert main(["risk", *argv, "--seed", "5", "--out",
                         str(tmp_path / name / "report.csv")]) == 0
        capsys.readouterr()
        for report in ("report.csv", "report.json"):
            assert ((tmp_path / "file" / report).read_bytes()
                    == (tmp_path / "flags" / report).read_bytes())

    def test_theorem4_study_file(self, tmp_path, capsys):
        # theorem4 writes its table as a CSV and a JSON report exactly when
        # --out is given
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps({"kind": "theorem4",
                                    "w_grid": [0.5, 2.0]}))
        out = tmp_path / "report.csv"
        code, _, _ = run(["risk", "--study", str(spec), "--out", str(out)],
                         capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 3
        entries = json.loads((tmp_path / "report.json").read_text())
        assert [e["meta"]["w"] for e in entries["entries"]] == [0.5, 2.0]
        for path in (out, tmp_path / "report.json"):
            path.unlink()
        assert run(["risk", "--study", str(spec)], capsys)[0] == 0
        assert os.listdir(tmp_path) == ["study.json"]


class TestFigure1:
    def test_reproduction(self, tmp_path, capsys):
        out_dir = tmp_path / "fig"
        code, out, _ = run(["figure1", "--out-dir", str(out_dir), "--seed",
                            "1", "--burn-in", "200", "--samples", "300",
                            "--thin", "2"], capsys)
        assert code == 0
        assert f"weight_mean={10 + TWO_PI:.6f}" in out
        assert "weight_mean=11.000000" in out
        for name in ("figure1_pattern.csv", "figure1_estimates.csv",
                     "figure1_estimates.json", "figure1.svg"):
            assert (out_dir / name).exists()
        root = ET.parse(out_dir / "figure1.svg").getroot()
        assert len(root.findall(f".//{SVG_NS}polyline")) == 3
        ticks = [el for el in root.findall(f".//{SVG_NS}line")
                 if el.get("class") == "tick"]
        assert len(ticks) == 10


SHORT_CHAIN = ["--burn-in", "2", "--samples", "2", "--thin", "1"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--intensity", "const:inf"],
    ["simulate", "--intensity", "const:1e300"],
    ["simulate", "--exposure", "inf"],
    ["simulate", "--exposure", "0"],
    ["simulate", "--intensity", "const:0"],
    ["simulate", "--intensity", "const:1", "--window", "0,inf"],
    ["risk", "--check", "theorem3", "--s", "inf"],
    ["risk", "--check", "theorem3", "--grid-size", "0"],
    ["risk", "--check", "theorem3", "--grid-size", "-3"],
    ["risk", "--check", "theorem3", "--nodes", "0"],
    ["risk", "--check", "theorem3", "--replications", "1"],
    ["risk", "--check", "theorem4", "--tau", "inf"],
    ["risk", "--check", "theorem4", "--w-grid", "0"],
    ["risk", "--check", "theorem4", "--w-grid", "-1"],
    ["risk", "--check", "theorem4", "--abs-alpha", "0.5"],
    ["risk", "--check", "theorem4", "--abs-alpha", "2", "--gamma", "1.5"],
    ["risk", "--check", "predictive", "--abs-alpha", "3"],
    ["risk", "--check", "predictive", "--w-grid", "1"],
    ["risk", "--check", "estimation", "--nodes", "4"],
    ["risk", "--check", "theorem3", "--gamma", "1"],
    ["risk", "--check", "theorem3", "--out", "report.csv"],
    ["risk", "--check", "theorem4", "--replications", "5"],
    ["risk", "--check", "theorem4", "--kappa", "3"],
    ["risk", "--check", "lemma3", "--tau", "2"],
    ["estimate", "--sigma", "inf", "--window", "0,7"],
    ["estimate", "--sigma", "1e-320", "--window", "0,7"],
    ["predict", "--sigma", "1e308", "--window", "0,7", *SHORT_CHAIN],
    ["estimate", "--kappa", "1e12"],
    ["predict", "--kappa", "1e308", *SHORT_CHAIN],
    ["estimate", "--s", "1e-320"],
    ["estimate", "--gamma=-inf"],
    ["risk", "--check", "theorem4", "--tau", "1e308"],
    ["risk", "--check", "theorem4", "--w-grid", "1e11"],
    ["risk", "--check", "theorem4", "--gamma=-inf"],
    ["risk", "--check", "estimation", "--t", "inf"],
    ["estimate", "--s", "inf", *SHORT_CHAIN],
    ["predict", "--aug-replicates", "-1", *SHORT_CHAIN],
    ["predict", "--aug-replicates", "0", *SHORT_CHAIN],
    ["predict", "--s", "inf", *SHORT_CHAIN],
    ["predict", "--t", "inf", *SHORT_CHAIN],
    ["predict", "--window=-1e308,1e308", *SHORT_CHAIN],
    ["estimate", "--window=-1e308,1e308"],
], ids=" ".join)
def test_bad_input_exits_2(argv, tmp_path, capsys, no_chain):
    # a configuration error, never a traceback or a silently wrong result,
    # and found before any chain runs; predict's future is empty, so the
    # point layer, which checks its input too, never runs
    pattern, empty = tmp_path / "p.csv", tmp_path / "empty.csv"
    pattern.write_text("location\n1.0\n2.0\n")
    empty.write_text("location\n")
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    elif argv[0] == "estimate":
        argv = argv + ["--pattern", str(pattern)]
    elif argv[0] == "predict":
        argv = argv + ["--pattern", str(pattern), "--future", str(empty)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("config, named", [
    ({"kapa": 3}, "'kapa'"),
    ({"command": "estimate"}, "'command'"),
    ({"func": "cmd_estimate"}, "'func'"),
    ({"config": "other.json"}, "'config'"),
    ({"kappa": "abc"}, "'kappa'"),
    ({"gamma": ["abc"]}, "'gamma'"),
    ({"gamma": 1.0}, "'gamma'"),
    ({"shrink": "yes"}, "'shrink'"),
    ({"burn_in": [10]}, "'burn_in'"),
    ({"kernel": "gaussian"}, "'kernel'"),  # retired: the window picks it
], ids=str)
def test_bad_config_exits_2(config, named, tmp_path, capsys, no_chain):
    # a usage error from argparse, before the echo and before any chain
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(["estimate", "--pattern", str(tmp_path / "p.csv"),
                          "--config", str(cfg)], capsys)
    assert code == 2
    assert named in err
    assert out == ""


@pytest.mark.parametrize("argv, bad", [
    (["estimate", "--pattern", "BAD"], b"\nlocation\n1.0\n"),
    (["estimate", "--pattern", "BAD"], b"location\n1.0\xff\n"),
    (["predict", "--pattern", "OK", "--future", "BAD"], b"\nlocation\n"),
    (["predict", "--pattern", "OK", "--future", "BAD"], b"location\n\xff\n"),
    (["estimate", "--pattern", "OK", "--config", "BAD"], b'{"kappa": 3\xff}'),
    (["risk", "--study", "BAD"], b'{"kind": "estimation"\xff}'),
], ids=["blank-pattern", "binary-pattern", "blank-future", "binary-future",
        "binary-config", "binary-study"])
def test_unreadable_file_exits_2(argv, bad, tmp_path, capsys, no_chain):
    # a blank first line or a byte that is not text: an error that names the
    # file, never a traceback, and found before any chain runs
    ok, path = tmp_path / "ok.csv", tmp_path / "bad.file"
    ok.write_text("location\n1.0\n")
    path.write_bytes(bad)
    argv = [{"OK": str(ok), "BAD": str(path)}.get(a, a) for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "error:" in err and str(path) in err


def test_readme_lists_what_each_kind_reads():
    # README's "kind | options" table is the one copy of each kind's read
    # set besides the kind's own parameters
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| kind | options |\n| --- | --- |\n", 1)[1]
    listed = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        kinds, options = row.strip("|").split("|")
        options = options.split(";")[0].strip()
        reads = set() if options == "none" else set(options.strip("`").split())
        for kind in re.findall(r"`(\w+)`", kinds):
            listed[kind] = reads
    assert listed == {kind: set(inspect.signature(fn).parameters)
                      for kind, fn in KINDS.items()}


def test_readme_commands_parse(tmp_path, monkeypatch):
    # every command line the README shows parses, so a retired flag cannot
    # linger there; --study reads its file while parsing, so the README's
    # example study file sits in the working directory
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    study = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    (tmp_path / "study.json").write_text(study)
    monkeypatch.chdir(tmp_path)
    argvs = [shlex.split(line, comments=True)
             for line in commands.replace("\\\n", " ").splitlines()]
    assert {argv[1] for argv in argvs} == {"simulate", "estimate", "predict",
                                           "risk", "figure1"}
    for argv in argvs:
        assert argv[0] == "nhppbayes"
        build_parser().parse_args(argv[1:])


# One option at a time, each of these values goes to every option of every
# subcommand, risk kind and window kind; a typed option gets the numbers and a
# non-number, any other option (a path, window or intensity) gets them all.
NUMBERS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e-320", "1e308"]
TEXTS = ["abc", "1,", "const:", "no/such/file"]
# intervals at the edges of what a window takes: a length that overflows,
# one that is subnormal, reversed bounds and a nan bound
WINDOWS = ["0,1e308", "-1e308,1e308", "0,1e-320", "4,0", "nan,1"]
# small chains and grids, and the input patterns, where the run reads them
CHEAP = {"pattern": "p.csv", "future": "p.csv", "burn_in": "2",
         "samples": "2", "thin": "1", "replications": "2", "nodes": "1",
         "grid_size": "16"}


def hostile(action):
    """The values one option is fuzzed with."""
    if action.nargs == 0:  # a switch
        return [None]
    if action.choices:  # each choice runs as a mode of its own
        return ["bogus"]
    if action.type in (int, float):
        return NUMBERS + TEXTS[:1]
    if action.dest == "window":
        return NUMBERS + TEXTS + WINDOWS
    return NUMBERS + TEXTS


def fuzz_runs():
    """(argv, value) for each hostile value of each option, derived from the
    parser's actions, so a new option is fuzzed without an edit here."""
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    for command, parser in commands.choices.items():
        options = {a.dest: a for a in parser._actions if a.dest != "help"}
        if "kind" in options:
            modes = [("kind", choice) for choice in options["kind"].choices]
        elif "sigma" in options:  # the window picks the kernel
            modes = [("window", "circle"), ("window", "0,7")]
        else:
            modes = [(None, None)]
        for mode, choice in modes:
            reads = (inspect.signature(KINDS[choice]).parameters
                     if mode == "kind" else CHEAP)
            base = {k: v for k, v in CHEAP.items()
                    if k in options and k in reads}
            if mode:
                base[mode] = choice
            for dest, action in options.items():
                for value in hostile(action):
                    argv = [options[k].option_strings[0]
                            + ("" if v is None else f"={v}")
                            for k, v in {**base, dest: value}.items()]
                    yield [command, *argv], value


def test_fuzz_every_option(tmp_path, capsys, monkeypatch):
    # hostile values end in a clean exit code, never in an exception that
    # escapes main, and never put nan or an infinity on stdout (past the
    # echoed config, and apart from the value itself, which a path may echo)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NHPP_SEED", raising=False)
    Path("p.csv").write_text("location\n1.0\n2.0\n")
    failures, runs = [], 0
    for argv, value in fuzz_runs():
        runs += 1
        try:
            code = main(argv)
        except Exception as exc:  # every escape from main is a failure
            capsys.readouterr()
            failures.append(f"{shlex.join(argv)}: {exc!r}")
            continue
        out = capsys.readouterr().out.split("\n", 1)[-1]
        if value:
            out = out.replace(value, "")
        shown = re.search(r"\b(nan|inf|infinity)\b", out, re.I)
        if code not in (0, 1, 2, 3) or shown:
            failures.append(f"{shlex.join(argv)}: exit {code}, {out!r}")
    assert runs > 1000
    assert not failures, "\n".join(failures[:30])
