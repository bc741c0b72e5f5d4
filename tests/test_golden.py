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
        "2f497cb59f7c8023ec421dacc16a956a11444b015cecfbe557bd8cdd86bfd1fb"),
    "estimate": (
        ["estimate", "--pattern", "x.csv", "--shrink", "--seed", "2", *CHAIN,
         "--csv", "est.csv", "--json", "est.json"], {"x.csv": PATTERN},
        "3ee1d62040d9621f2a3fd6921e7589721e75962ddfb4e45a334bd8a1a0bca719"),
    "predict": (
        ["predict", "--pattern", "x.csv", "--future", "y.csv", "--seed", "2",
         *CHAIN, "--out", "scores.csv"], {"x.csv": PATTERN, "y.csv": FUTURE},
        "27b38efe8778372fc9037558fa7245aa9116ae95dfe9e151a21e8b7530ffefd8"),
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
        "c2f50e0150a5116eec893eda4ac441a023bfa3841657dc486f89558654da1ead"),
    "predict-gaussian": (
        ["predict", "--window", "0,4", "--sigma", "0.5", "--pattern", "x.csv",
         "--future", "y.csv", "--seed", "3", *CHAIN, "--out", "scores.csv"],
        {"x.csv": INTERVAL_PATTERN, "y.csv": INTERVAL_FUTURE},
        "dd4fb542c9de5760714cbc6a13e198d87d7f4a6ef74657c635d5eececdbcc7a4"),
    "estimate-repeated": (
        ["estimate", "--kappa", "20", "--pattern", "x.csv", "--seed", "4",
         *CHAIN, "--csv", "est.csv", "--json", "est.json"],
        {"x.csv": REPEATED},
        "8b88f929ac55f64db9250eaff91b93ef2d473aff5e05c8ac3aa578c9c4b4086b"),
    "theorem3": (
        ["risk", "--check", "theorem3", "--seed", "5", "--replications", "2",
         "--burn-in", "20", "--samples", "20"], {},
        "e04b7c27418a35019126c50c576297c738ea833dbe2b62726d91d5467733305a"),
    "theorem4": (
        ["risk", "--check", "theorem4", "--seed", "0"], {},
        "d6d66cf31c180a53e24ba872b13d28f96aa684ce47f9f8f4c96b7634983006a1"),
    "predictive": (
        ["risk", "--check", "predictive", "--seed", "6", "--replications",
         "3", "--out", "report.csv"], {},
        "ad29e6bf88261f320387a52584e303ed1c2bd8b86aadc0ded55da71e60d31bf3"),
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
