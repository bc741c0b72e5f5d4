"""Benchmark of the nhppbayes package: one workload per process.

    python3 bench/run.py --workload figure1 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Each operation is one ``nhppbayes`` command run in process (see
``workloads.py``); per-operation seeds are derived from ``--seed``.  The run
measures operations back to back for ``--seconds`` seconds and checks every
operation's output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of process start to the first timed operation: imports,
input construction and a warm-up operation), ``latency_p50_s``,
``reps_per_s`` and ``peak_rss_mb``.  ``--trace 1`` runs each operation
twice, untraced and then traced with the same seed, and reports the
per-layer metrics of ``tracing.py``; ``trace.overhead`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report with sample counts, ``failed_ratio``, every operation and a
record of the machine and the code.  Outputs go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

T_START = time.perf_counter()

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5

import tracing  # noqa: E402  (these two sit next to this file)
from workloads import SMALL, WORKLOADS  # noqa: E402


def load_package():
    """Import nhppbayes from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nhppbayes" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import nhppbayes
    if Path(nhppbayes.__file__).resolve().parent != SRC / "nhppbayes":
        raise SystemExit(f"error: imported nhppbayes from {nhppbayes.__file__}")
    return tracing.package_modules()


def op_seed(seed: int, op: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, op % 2**64])
               .generate_state(1)[0])


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, workload, modules, seed: int, work_dir=None):
        self.workload = workload
        self.cli = modules["cli"]
        self.seed = seed
        self.work_dir = Path(work_dir or OUT / workload.name)
        self.op_dir = self.work_dir / "op"
        self.op_dir.mkdir(parents=True, exist_ok=True)
        workload.prepare(self.work_dir)

    def run(self, op: int, workload=None) -> dict:
        """One checked operation; ``failure`` is None when it is correct."""
        workload = workload or self.workload
        for f in self.op_dir.iterdir():
            f.unlink()
        seed = op_seed(self.seed, op)
        argv = workload.argv(seed, self.work_dir, self.op_dir)
        sink = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            failure = workload.check(code, self.op_dir)
        except (Exception, SystemExit) as exc:  # any raise fails the operation
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            failure = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        return {"op": op, "seed": seed, "wall_s": wall, "cpu_s": cpu,
                "failure": failure}

    def bytes_written(self) -> int:
        return sum(f.stat().st_size for f in self.op_dir.iterdir())


def set_up(workload_name: str, seed: int) -> tuple:
    """Imports, input construction and one small untimed warm-up operation."""
    workload = WORKLOADS[workload_name]
    modules = load_package()
    runner = Runner(workload, modules, seed)
    warm = replace(workload, **SMALL[workload_name])
    warm.prepare(runner.work_dir)
    runner.run(-1, warm)
    workload.prepare(runner.work_dir)
    return runner, modules


def probe_setup(args) -> list:
    """Process start to ready, measured over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def machine_record() -> dict:
    import scipy
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in SRC.rglob("*.py")),
    }


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path and path.endswith(".so") and path not in found:
                lib = ctypes.CDLL(path)
                for symbol in ("scipy_openblas_get_num_threads64_",
                               "scipy_openblas_get_num_threads",
                               "openblas_get_num_threads64_",
                               "openblas_get_num_threads"):
                    fn = getattr(lib, symbol, None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        found[path] = fn()
                        break
    return {Path(p).name: n for p, n in found.items()}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(runner: Runner, args) -> tuple:
    setup = probe_setup(args)
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < args.seconds:
        ops.append(runner.run(len(ops)))
    walls = [o["wall_s"] for o in ops]
    reps = runner.workload.reps_per_op * len(ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "latency_p50_s": (statistics.median(walls), "s", len(walls)),
        "reps_per_s": (reps / sum(walls), "1/s", reps),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }
    return metrics, ops, {"setup_probes_s": setup}


def per_layer(runner: Runner, modules, args) -> tuple:
    tracer = tracing.Tracer()
    ops = []
    untraced_s = traced_s = cpu_s = 0.0
    written = 0
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < args.seconds:
        op = len(ops) // 2
        plain = runner.run(op)
        with tracer.installed(modules, op):
            traced = runner.run(op)
        traced["traced"] = True
        ops += [plain, traced]
        untraced_s += plain["wall_s"]
        traced_s += traced["wall_s"]
        cpu_s += traced["cpu_s"]
        written += runner.bytes_written()
    tracer.write_csv(OUT / f"spans-{runner.workload.name}.csv")
    metrics = {name: (value, unit, len(ops) // 2) for name, (value, unit)
               in tracing.layer_metrics(tracer, traced_s, untraced_s, cpu_s,
                                        written).items()}
    return metrics, ops, {"spans": len(tracer.start)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    runner, modules = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    own_setup_s = time.perf_counter() - T_START
    if args.trace:
        metrics, ops, extra = per_layer(runner, modules, args)
    else:
        metrics, ops, extra = end_to_end(runner, args)
    failed = sum(o["failure"] is not None for o in ops)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "own_setup_s": own_setup_s,
        "failed_ratio": failed / len(ops),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "operations": ops, **extra,
        "machine": {**machine_record(), "loadavg_start": loadavg},
    }
    text = json.dumps(report)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(text)
    print(text)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
