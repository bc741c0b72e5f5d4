"""Tests of the benchmark itself, at reduced workload sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracing
from workloads import PREDICTIVE_REFERENCE, WORKLOADS
from workloads import SMALL as SMALL_SIZES

MODULES = run.load_package()
SMALL = {name: replace(WORKLOADS[name], **size)
         for name, size in SMALL_SIZES.items()}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("calls", "obs_sweeps", "atom_nodes", "replicate_points",
          "replications", "points")


def traced_counts(workload, seed, tmp_path):
    runner = run.Runner(workload, MODULES, seed, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(MODULES, 0):
        outcome = runner.run(0)
    assert outcome["failure"] is None
    return {(layer, key): value for layer, counts in tracer.counts.items()
            for key, value in counts.items() if key in COUNTS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_on_same_seed(name, tmp_path):
    first = traced_counts(SMALL[name], 7, tmp_path / "a")
    second = traced_counts(SMALL[name], 7, tmp_path / "b")
    assert first == second
    assert first[("posterior.run_mcmc", "obs_sweeps")] > 0


def snapshot():
    return {(m, attr): obj for m, module in MODULES.items()
            for attr, obj in vars(module).items()}


def test_untraced_run_wraps_nothing(tmp_path):
    before = snapshot()
    runner = run.Runner(SMALL["theorem3"], MODULES, 3, tmp_path)
    assert runner.run(0)["failure"] is None
    assert all(snapshot()[key] is obj for key, obj in before.items())


def test_traced_run_restores_every_binding(tmp_path):
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer.installed(MODULES, 0):
        assert MODULES["risk"].run_mcmc is not before[("risk", "run_mcmc")]
        run.Runner(SMALL["predictive_dense"], MODULES, 3, tmp_path).run(0)
    after = snapshot()
    assert all(after[key] is obj for key, obj in before.items())
    assert len(tracer.start) > 0


def test_self_times_partition_the_root_span(tmp_path):
    runner = run.Runner(SMALL["theorem3"], MODULES, 5, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(MODULES, 0):
        runner.run(0)
    root = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert [tracing.SPAN_NAMES[tracer.name[i]] for i in root] == ["cli"]
    root_s = tracer.end[root[0]] - tracer.start[root[0]]
    assert math.isclose(sum(tracer.self_time), root_s, rel_tol=1e-9)
    assert min(tracer.self_time) >= 0.0
    reps = {r for r, n in zip(tracer.rep_id, tracer.name)
            if tracing.SPAN_NAMES[n] == "posterior.run_mcmc"}
    assert reps == {0, 1}


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_changes_inputs_not_metric_names(trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "predictive_dense",
                        SMALL["predictive_dense"])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    results = []
    for seed in (1, 2):
        argv = ["--workload", "predictive_dense", "--seed", str(seed),
                "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        report, result = capsys.readouterr().out.splitlines()[-2:]
        results.append((json.loads(report), json.loads(result)))
    (report1, result1), (report2, result2) = results
    assert report1["operations"][0]["seed"] != report2["operations"][0]["seed"]
    assert set(result1) == {"correct", "attempted", "failed", "metrics"}
    assert result1["correct"] and result2["correct"]
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result1["metrics"]) == list(result2["metrics"]) == names
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result1["metrics"].items()} == units


def test_checks_reject_wrong_outputs(tmp_path):
    runner = run.Runner(SMALL["figure1"], MODULES, 11, tmp_path)
    assert runner.run(0)["failure"] is None
    path = runner.op_dir / "figure1_estimates.json"
    summaries = json.loads(path.read_text())
    summaries[1]["lambda_hat"][3] *= 1.0 + 1e-12
    path.write_text(json.dumps(summaries))
    assert "ratio" in SMALL["figure1"].check(0, runner.op_dir)
    assert SMALL["theorem3"].check(1, runner.op_dir) is not None
    ref, ref_se = PREDICTIVE_REFERENCE
    for estimate in (ref + 100.0 * ref_se + 10.0, float("nan")):
        (runner.op_dir / "report.json").write_text(json.dumps(
            {"entries": [{"estimate": estimate, "std_error": 0.1}]}))
        assert SMALL["predictive_dense"].check(0, runner.op_dir) is not None


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figure1", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
