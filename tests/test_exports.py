"""Every exported name is reached by the package or a demo, not only tests."""

import ast
from pathlib import Path

import nhppbayes

ROOT = Path(__file__).parent.parent

# Exported on purpose although only tests call them: the oracles.
ORACLES = {
    "sample_crp": "the truth draw of simulation-based calibration (test_08)",
    "nb_total_mass": "the count layer's pmf sum oracle",
    "bessel_i0": "the Bessel accuracy checks",
    "kl_intensity": "the paper's loss; its tests pin the _kl_from_values "
                    "that the harnesses call",
}


def referenced(path):
    """The names a file refers to: loads, attributes and imports.  A def or
    class statement defines its name without referring to it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_reached():
    files = [p for p in (ROOT / "src" / "nhppbayes").glob("*.py")
             if p.name != "__init__.py"] + sorted((ROOT / "demos").glob("*.py"))
    reached = set().union(*map(referenced, files))
    unreached = sorted(set(nhppbayes.__all__) - reached - set(ORACLES))
    assert not unreached, f"exported but reached only by tests: {unreached}"
    assert set(ORACLES) <= set(nhppbayes.__all__)
