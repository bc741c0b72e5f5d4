"""Span tracing around the package's layer boundaries, from outside ``src/``.

A traced operation replaces, for its duration only, the names through which
one module calls another (``risk.run_mcmc``, ``posterior.posterior_lambda_bar``
and so on) with wrappers that record a span and the work counts of the call.
The untraced run wraps nothing.  Spans are kept in memory as flat columns and
written out once, when the benchmark ends.

A span's self time is its duration minus the durations of its child spans;
calls are strictly nested (one thread), so the children never overlap.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "core", "kernels", "posterior", "predict", "risk",
           "simulate", "svg")


def _args(fn):
    """Bind a call's arguments by name, defaults included."""
    sig = inspect.signature(fn)

    def bound(a, kw):
        b = sig.bind(*a, **kw)
        b.apply_defaults()
        return b.arguments
    return bound


def count_mcmc(fn):
    bound = _args(fn)

    def count(c, a, kw, result):
        args = bound(a, kw)
        cfg = args["config"]
        sweeps = cfg.burn_in + cfg.samples * cfg.thin
        trace = result.cluster_count_trace
        c["obs_sweeps"] += sweeps * args["pattern"].count
        # proposals per sweep = occupied clusters; the retained trace
        # stands in for the sweeps the chain does not record
        proposals = sweeps * (float(trace.mean()) if trace.size else 0.0)
        c["proposals"] += proposals
        c["accepted"] += result.acceptance_rate * proposals
        c["cluster_draws"] += int(trace.sum())
        c["draws"] += int(trace.size)
    return count


def count_lambda_bar(fn):
    bound = _args(fn)

    def count(c, a, kw, result):
        args = bound(a, kw)
        atoms = sum(d.n_clusters for d in args["draws"])
        c["atom_nodes"] += atoms * result.grid.size
    return count


def count_point_layer(fn):
    bound = _args(fn)

    def count(c, a, kw, result):
        args = bound(a, kw)
        states = max(len(args["draws"]), 1)
        m = np.atleast_1d(args["ys"]).size
        c["replicate_points"] += states * args["aug_replicates"] * m
    return count


def count_points(fn):
    def count(c, a, kw, result):
        c["points"] += result.count
    return count


def count_replications(fn):
    bound = _args(fn)

    def count(c, a, kw, result):
        c["replications"] += bound(a, kw)["replications"]
    return count


# (span name, the module-level names callers resolve at call time, counter)
LAYERS = (
    ("cli", [("cli", "main")], None),
    ("risk", [("cli", "integral_representation_check")], None),
    ("risk", [("cli", "estimation_risk_mc"), ("cli", "predictive_risk_mc"),
              ("risk", "estimation_risk_mc"), ("risk", "predictive_risk_mc")],
     count_replications),
    ("posterior.run_mcmc", [("posterior", "run_mcmc"), ("risk", "run_mcmc"),
                            ("predict", "run_mcmc")], count_mcmc),
    ("posterior.posterior_lambda_bar",
     [("posterior", "posterior_lambda_bar"), ("risk", "posterior_lambda_bar")],
     count_lambda_bar),
    ("kernels.mixture_density", [("posterior", "mixture_density")], None),
    ("predict.predictive_point_logdensity",
     [("risk", "predictive_point_logdensity"),
      ("predict", "predictive_point_logdensity")], count_point_layer),
    ("kernels.sample_kernel_posterior",
     [("predict", "sample_kernel_posterior")], None),
    ("predict.nb_log_pmf", [("risk", "nb_log_pmf")], None),
    ("simulate.sample_nhpp", [("risk", "sample_nhpp"), ("cli", "sample_nhpp")],
     count_points),
    ("svg.line_chart", [("cli", "line_chart")], None),
    ("core.write_json", [("cli", "write_json")], None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def package_modules():
    return {m: importlib.import_module(f"nhppbayes.{m}") for m in MODULES}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.op_id = array("i")
        self.rep_id = array("i")
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self.rep = -1
        self._stack = []  # [span index, child time] of each open span

    def wrap(self, name, fn, counter):
        name_id = SPAN_NAMES.index(name)
        counts = self.counts[name]
        count = counter(fn) if counter else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*a, **kw):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op_id.append(self.op)
            self.rep_id.append(self.rep)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*a, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.end[idx] = t1
                self.self_time[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                counts["calls"] += 1
            if count:
                count(counts, a, kw, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules, op: int):
        """Wrap every layer boundary for one operation, then restore it."""
        self.op, self.rep = op, -1
        saved = []
        risk = modules["risk"]
        replication_stream = risk.replication_stream

        def tag_replication(base, rep):
            self.rep = rep
            return replication_stream(base, rep)
        try:
            for name, bindings, counter in LAYERS:
                for mod, attr in bindings:
                    fn = getattr(modules[mod], attr)
                    saved.append((modules[mod], attr, fn))
                    setattr(modules[mod], attr, self.wrap(name, fn, counter))
            saved.append((risk, "replication_stream", replication_stream))
            risk.replication_stream = tag_replication
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self):
        """Per span name: summed self time and inclusive time."""
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for i, name_id in enumerate(self.name):
            name = SPAN_NAMES[name_id]
            self_s[name] += self.self_time[i]
            parent = self.parent[i]
            # inclusive time counts only the outermost span of a name
            while parent >= 0 and self.name[parent] != name_id:
                parent = self.parent[parent]
            if parent < 0:
                incl_s[name] += self.end[i] - self.start[i]
        return self_s, incl_s

    def write_csv(self, path) -> None:
        t_origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "op", "rep",
                          "start_s", "end_s", "self_s"])
            for i in range(len(self.start)):
                out.writerow([i, self.parent[i], SPAN_NAMES[self.name[i]],
                              self.op_id[i], self.rep_id[i],
                              f"{self.start[i] - t_origin:.9f}",
                              f"{self.end[i] - t_origin:.9f}",
                              f"{self.self_time[i]:.9f}"])


def _per(numer, denom, scale=1.0):
    return numer / denom * scale if denom else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                  cpu_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    self_s, incl_s = tracer.totals()
    c = tracer.counts
    mc, lb = c["posterior.run_mcmc"], c["posterior.posterior_lambda_bar"]
    pl, skp = c["predict.predictive_point_logdensity"], c["kernels.sample_kernel_posterior"]
    nb, sim = c["predict.nb_log_pmf"], c["simulate.sample_nhpp"]
    m = {
        "posterior.run_mcmc.calls": (mc["calls"], "count"),
        "posterior.run_mcmc.self_s": (self_s["posterior.run_mcmc"], "s"),
        "posterior.run_mcmc.share": (_per(incl_s["posterior.run_mcmc"], wall_s), "fraction"),
        "posterior.run_mcmc.obs_sweeps": (mc["obs_sweeps"], "count"),
        "posterior.run_mcmc.us_per_obs_sweep": (
            _per(incl_s["posterior.run_mcmc"], mc["obs_sweeps"], 1e6), "us"),
        "posterior.run_mcmc.acceptance": (_per(mc["accepted"], mc["proposals"]), "fraction"),
        "posterior.run_mcmc.mean_clusters": (_per(mc["cluster_draws"], mc["draws"]), "clusters"),
        "posterior.posterior_lambda_bar.calls": (lb["calls"], "count"),
        "posterior.posterior_lambda_bar.self_s": (self_s["posterior.posterior_lambda_bar"], "s"),
        "posterior.posterior_lambda_bar.share": (
            _per(incl_s["posterior.posterior_lambda_bar"], wall_s), "fraction"),
        "posterior.posterior_lambda_bar.atom_nodes": (lb["atom_nodes"], "count"),
        "posterior.posterior_lambda_bar.ns_per_atom_node": (
            _per(incl_s["posterior.posterior_lambda_bar"], lb["atom_nodes"], 1e9), "ns"),
        "kernels.mixture_density.self_s": (self_s["kernels.mixture_density"], "s"),
        "kernels.sample_kernel_posterior.calls": (skp["calls"], "count"),
        "kernels.sample_kernel_posterior.us_per_call": (
            _per(self_s["kernels.sample_kernel_posterior"], skp["calls"], 1e6), "us"),
        "predict.predictive_point_logdensity.calls": (pl["calls"], "count"),
        "predict.predictive_point_logdensity.self_s": (
            self_s["predict.predictive_point_logdensity"], "s"),
        "predict.predictive_point_logdensity.share": (
            _per(incl_s["predict.predictive_point_logdensity"], wall_s), "fraction"),
        "predict.predictive_point_logdensity.replicate_points": (pl["replicate_points"], "count"),
        "predict.predictive_point_logdensity.us_per_replicate_point": (
            _per(incl_s["predict.predictive_point_logdensity"], pl["replicate_points"], 1e6),
            "us"),
        "predict.nb_log_pmf.calls": (nb["calls"], "count"),
        "predict.nb_log_pmf.self_s": (self_s["predict.nb_log_pmf"], "s"),
        "simulate.sample_nhpp.calls": (sim["calls"], "count"),
        "simulate.sample_nhpp.self_s": (self_s["simulate.sample_nhpp"], "s"),
        "simulate.sample_nhpp.us_per_point": (
            _per(self_s["simulate.sample_nhpp"], sim["points"], 1e6), "us"),
        "risk.replications": (c["risk"]["replications"], "count"),
        "risk.self_s": (self_s["risk"], "s"),
        "risk.self_share": (_per(self_s["risk"], wall_s), "fraction"),
        "cli.self_s": (self_s["cli"], "s"),
        "svg.line_chart.self_s": (self_s["svg.line_chart"], "s"),
        "core.write_json.self_s": (self_s["core.write_json"], "s"),
        "io.bytes_written": (bytes_written, "bytes"),
        "process.cpu_util": (_per(cpu_s, wall_s), "s/s"),
        "trace.overhead": (_per(wall_s, untraced_wall_s) - 1.0, "fraction"),
        "trace.coverage": (_per(sum(self_s.values()), wall_s), "fraction"),
    }
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
