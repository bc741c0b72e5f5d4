"""The three benchmark workloads and their per-operation correctness checks.

One operation is one ``nhppbayes`` command run in process through
``nhppbayes.cli.main``; the Monte Carlo harnesses are always called once
with their full replication count, so batching across replications can
show.  Each workload is a frozen dataclass, so a test or the warm-up can
take a smaller copy with ``dataclasses.replace``.

Run ``python3 bench/workloads.py reference`` to recompute the
``predictive_dense`` reference value (about five minutes on one core).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

TWO_PI = 2.0 * math.pi
FIGURE1_N = 10

# (estimate, standard error) of predictive_risk_mc at s=t=4 (sine2 truth,
# kappa 5, gamma 0, 100+100 sweeps, 8 augmentation replicates) from 600
# replications on RngStream(20060405); see compute_reference.
PREDICTIVE_REFERENCE = (1.8624299547650882, 0.0695661958442411)
# An operation passes when its estimate lies within this many combined
# standard errors of the reference.  The estimate is not checked bit for bit:
# a change to the order in which the augmentation stream is drawn moves it.
PREDICTIVE_SE_GATE = 7.0


@dataclass(frozen=True)
class Figure1:
    """The ``figure1`` command: one long small-N chain and the largest λ̄."""

    name: str = "figure1"
    burn_in: int = 2000
    samples: int = 2000
    thin: int = 5

    @property
    def reps_per_op(self) -> int:
        return 1  # one chain and one λ̄ evaluation

    def prepare(self, work_dir: Path) -> None:
        pass

    def argv(self, seed: int, work_dir: Path, op_dir: Path) -> list:
        return ["figure1", "--out-dir", str(op_dir), "--seed", str(seed),
                "--kappa", "5", "--s", "1", "--burn-in", str(self.burn_in),
                "--samples", str(self.samples), "--thin", str(self.thin)]

    def check(self, code: int, op_dir: Path) -> Optional[str]:
        """The mass and ratio identities of acceptance tests 01 and 02."""
        if code != 0:
            return f"exit code {code}"
        plain, shrunk = json.loads(
            (op_dir / "figure1_estimates.json").read_text())
        n = FIGURE1_N
        masses = [sum(s["lambda_hat"]) * TWO_PI / len(s["grid"])
                  for s in (plain, shrunk)]
        if abs(masses[0] - (n + TWO_PI)) >= 1e-3 \
                or abs(masses[1] - (n + 1.0)) >= 1e-3:
            return f"masses {masses[0]!r}/{masses[1]!r}"
        target = (n + 1.0) / (n + TWO_PI)
        worst = max(abs(b / a / target - 1.0)
                    for a, b in zip(plain["lambda_hat"], shrunk["lambda_hat"]))
        if not worst < 1e-14:
            return f"pointwise ratio error {worst!r}"
        return None


@dataclass(frozen=True)
class Theorem3:
    """``risk --check theorem3`` at a fixed, reduced replication count."""

    name: str = "theorem3"
    replications: int = 10
    burn_in: int = 100
    samples: int = 100
    nodes: int = 8

    @property
    def reps_per_op(self) -> int:
        # R estimation replications at each node plus R predictive ones
        return (self.nodes + 1) * self.replications

    def prepare(self, work_dir: Path) -> None:
        pass

    def argv(self, seed: int, work_dir: Path, op_dir: Path) -> list:
        return ["risk", "--check", "theorem3", "--seed", str(seed),
                "--kappa", "5", "--s", "1", "--t", "1",
                "--replications", str(self.replications),
                "--burn-in", str(self.burn_in), "--samples", str(self.samples),
                "--nodes", str(self.nodes), "--grid-size", "512"]

    def check(self, code: int, op_dir: Path) -> Optional[str]:
        return None if code == 0 else f"exit code {code} (gap above gate)"


@dataclass(frozen=True)
class PredictiveDense:
    """``risk --study`` of kind predictive at s=t=4 (N and M about 50)."""

    name: str = "predictive_dense"
    replications: int = 12
    burn_in: int = 100
    samples: int = 100

    @property
    def reps_per_op(self) -> int:
        return self.replications

    def study(self) -> dict:
        return {"kind": "predictive", "intensity": "sine2", "kappa": 5.0,
                "s": 4.0, "t": 4.0, "gamma": 0.0, "burn_in": self.burn_in,
                "samples": self.samples, "replications": self.replications}

    def prepare(self, work_dir: Path) -> None:
        (work_dir / "study.json").write_text(json.dumps(self.study()))

    def argv(self, seed: int, work_dir: Path, op_dir: Path) -> list:
        return ["risk", "--study", str(work_dir / "study.json"),
                "--out", str(op_dir / "report.csv"), "--seed", str(seed)]

    def check(self, code: int, op_dir: Path) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        entry = json.loads((op_dir / "report.json").read_text())["entries"][0]
        est, se = entry["estimate"], entry["std_error"]
        if not (math.isfinite(est) and math.isfinite(se)):
            return f"estimate {est!r} +- {se!r} is not finite"
        ref, ref_se = PREDICTIVE_REFERENCE
        tol = PREDICTIVE_SE_GATE * math.hypot(se, ref_se)
        if abs(est - ref) > tol:
            return f"estimate {est!r} is {abs(est - ref)!r} from {ref!r} (gate {tol!r})"
        return None


WORKLOADS = {w.name: w for w in (Figure1(), Theorem3(), PredictiveDense())}
# Reduced sizes for the untimed warm-up operation and the benchmark's tests.
SMALL = {
    "figure1": dict(burn_in=50, samples=40, thin=2),
    "theorem3": dict(replications=2, burn_in=20, samples=20, nodes=2),
    "predictive_dense": dict(replications=2, burn_in=20, samples=20),
}


def compute_reference(replications: int = 600, seed: int = 20060405):
    """Recompute PREDICTIVE_REFERENCE with the library's own harness."""
    from nhppbayes import (KernelSpec, McmcConfig, PriorSpec, RngStream,
                           Window, predictive_risk_mc)
    from nhppbayes.cli import named_intensity
    window = Window.circle()
    study = PredictiveDense().study()
    report = predictive_risk_mc(
        named_intensity(study["intensity"], window), PriorSpec.uniform_unit(window),
        KernelSpec.von_mises(study["kappa"], window), study["s"], study["t"],
        replications, McmcConfig(study["burn_in"], study["samples"], 1),
        RngStream(seed), keep_losses=False)
    entry = report.entries[0]
    return entry.estimate, entry.std_error


if __name__ == "__main__":
    if sys.argv[1:] != ["reference"]:
        sys.exit("usage: python3 bench/workloads.py reference")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(repr(compute_reference()))
