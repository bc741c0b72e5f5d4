"""Each command's output pinned by one SHA-256.

A command runs in process through ``cli.main`` in a fresh working directory,
with relative paths, since the resolved-config echo prints the output paths.
Its hash covers the exit code, stdout and every file it writes.  A change
that moves an output on purpose updates that command's hash here and says
why; a different numpy or BLAS build may round differently, so a failure
reports both.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os

import numpy as np
import pytest

from nhppbayes.cli import main

CHAIN = ["--burn-in", "100", "--samples", "100", "--thin", "1"]
PATTERN = "location\n0.29\n1.55\n2.06\n2.85\n3.6\n5.55\n5.61\n"
FUTURE = "location\n1.0\n2.9\n5.6\n"
EMPTY = "location\n"
# on [0, 4], for the Gaussian kernel
INTERVAL_PATTERN = "location\n0.2\n1.1\n1.3\n2.0\n3.9\n"
INTERVAL_FUTURE = "location\n0.5\n2.1\n3.5\n"
# three observations at one location start as three clusters at one place
REPEATED = "location\n1.0\n2.5\n2.5\n2.5\n4.0\n"

# name: (argv, input files, SHA-256)
COMMANDS = {
    "simulate": (
        ["simulate", "--seed", "7", "--out", "pattern.csv"], {},
        "6e3938f9ce17bf8746c0ec97b5867730d0da6e1cf8afa600851cd18ecb6dc791"),
    "figure1": (
        ["figure1", "--seed", "1", "--burn-in", "200", "--samples", "200",
         "--thin", "1", "--out-dir", "fig"], {},
        "bef587852112fcba660082fc445eb073fb9f233ba0a8ceba5f21dc2bd9814fd1"),
    "estimate": (
        ["estimate", "--pattern", "x.csv", "--shrink", "--seed", "2", *CHAIN,
         "--csv", "est.csv", "--json", "est.json"], {"x.csv": PATTERN},
        "9a89da0eeb892899d1b5405989b6ab0c086dea92e9fea182cf924f92c296023e"),
    "predict": (
        ["predict", "--pattern", "x.csv", "--future", "y.csv", "--seed", "2",
         *CHAIN, "--out", "scores.csv"], {"x.csv": PATTERN, "y.csv": FUTURE},
        "65d7bfa95b8c74b0bab6e7d2d299251bfa11711ff236c5c4021729104aa768d8"),
    "estimate-empty": (
        ["estimate", "--pattern", "x.csv", "--shrink", "--seed", "2", *CHAIN,
         "--csv", "est.csv", "--json", "est.json"], {"x.csv": EMPTY},
        "0e9bafd0a57277daf6320cd2c33d1c654eb1ebd3f5502ea234909766e1654a84"),
    "predict-empty": (
        ["predict", "--pattern", "x.csv", "--future", "y.csv", "--seed", "2",
         *CHAIN, "--out", "scores.csv"], {"x.csv": EMPTY, "y.csv": FUTURE},
        "7e7b713de9ddcacf5edcbadd7050714c4e76581a3de89a9bc23f1499b010057b"),
    "estimate-gaussian": (
        ["estimate", "--window", "0,4", "--sigma", "0.5", "--pattern", "x.csv",
         "--shrink", "--seed", "3", *CHAIN, "--csv", "est.csv", "--json",
         "est.json"], {"x.csv": INTERVAL_PATTERN},
        "eda7136ab6e11423bae32408c2b648a3f9881253354a5bb25ba80cc495c7d4b7"),
    "predict-gaussian": (
        ["predict", "--window", "0,4", "--sigma", "0.5", "--pattern", "x.csv",
         "--future", "y.csv", "--seed", "3", *CHAIN, "--out", "scores.csv"],
        {"x.csv": INTERVAL_PATTERN, "y.csv": INTERVAL_FUTURE},
        "210fb953237286b4f761c74c85ee821e8be045e6db4d6972880703f1d6a44322"),
    "estimate-repeated": (
        ["estimate", "--kappa", "20", "--pattern", "x.csv", "--seed", "4",
         *CHAIN, "--csv", "est.csv", "--json", "est.json"],
        {"x.csv": REPEATED},
        "99fe1534a35491cf68e79f709e800991190b57e60d2cec2019d76d1f9e21751e"),
    "theorem3": (
        ["risk", "--check", "theorem3", "--seed", "5", "--replications", "2",
         "--burn-in", "20", "--samples", "20"], {},
        "d0984b8509d202474e1b372edd08effdda309b8dcb3a20d43736278bcd86e4ef"),
    "theorem4": (
        ["risk", "--check", "theorem4", "--seed", "0"], {},
        "d6d66cf31c180a53e24ba872b13d28f96aa684ce47f9f8f4c96b7634983006a1"),
    "predictive": (
        ["risk", "--check", "predictive", "--seed", "6", "--replications",
         "3", "--out", "report.csv"], {},
        "5477003621807d472166aa2368bd764facb0e4a28aef76f81e1a7e6458d2e65d"),
}


def run_command(argv, inputs, work_dir):
    """(exit code, stdout, {relative path: bytes} of the files written) of
    one in-process run in ``work_dir``."""
    os.makedirs(work_dir)
    for name, text in inputs.items():
        with open(os.path.join(work_dir, name), "w") as fh:
            fh.write(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for root, _, names in os.walk(work_dir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, work_dir)
            if rel not in inputs:
                with open(path, "rb") as fh:
                    files[rel] = fh.read()
    return code, out.getvalue(), files


def digest(code, stdout, files) -> str:
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(stdout.encode())
    for rel in sorted(files):
        h.update(b"\0" + rel.encode() + b"\0" + files[rel])
    return h.hexdigest()


def blas_threads() -> str:
    """The thread count of numpy's bundled OpenBLAS, where it can be read."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return str(get())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_hash(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NHPP_SEED", raising=False)
    argv, inputs, expected = COMMANDS[name]
    got = digest(*run_command(argv, inputs, tmp_path / "run"))
    assert got == expected, (
        f"{name}: output hash {got}; numpy {np.__version__}, "
        f"OpenBLAS threads {blas_threads()}")
