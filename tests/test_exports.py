"""Every public name of the package is reached by the package or a demo,
not only tests, every defaulted parameter of the package is passed by some
call, and the package imports no scipy."""

import ast
from pathlib import Path

import nhppbayes

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "nhppbayes").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Public although only tests call them: the oracles.  Test-only helpers live
# in tests/conftest.py.
ORACLES = {
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


def reached():
    """The names the package's modules, but for ``__init__``'s re-exports,
    and the demos refer to."""
    files = [p for p in PACKAGE if p.name != "__init__.py"] + DEMOS
    return set().union(*map(referenced, files))


def test_every_export_is_reached():
    unreached = sorted(set(nhppbayes.__all__) - reached() - set(ORACLES))
    assert not unreached, f"exported but reached only by tests: {unreached}"
    assert set(ORACLES) <= set(nhppbayes.__all__)


def test_every_public_definition_is_reached():
    # exported or not, a public module-level function or class that only
    # tests call belongs in tests/conftest.py
    names = reached()
    unreached = [f"{path.stem}.{node.name}" for path in PACKAGE
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and node.name not in names | set(ORACLES)]
    assert not unreached, f"defined but reached only by tests: {unreached}"


def defaulted(fn, skip_first):
    """(name, position) of each defaulted parameter of a def; keyword-only
    ones have no position."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[skip_first:]
    first = len(positional) - len(a.defaults)
    return ([(p.arg, i) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def signatures(tree):
    """(called name, where, defaulted parameters) of each public module-level
    function, and of each method and constructor of a public class; a
    dataclass's constructor takes its fields.  Nested functions are exempt."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, defaulted(node, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
        if fields and any("dataclass" in ast.unparse(d)
                          for d in node.decorator_list):
            yield node.name, node.name, [
                (f.target.id, i) for i, f in enumerate(fields)
                if f.value is not None]
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(ast.unparse(d) == "staticmethod"
                         for d in fn.decorator_list)
            if fn.name == "__init__":
                yield node.name, node.name, defaulted(fn, 1)
            elif not fn.name.startswith("_"):
                yield fn.name, f"{node.name}.{fn.name}", defaulted(
                    fn, 0 if static else 1)


def named_calls(tree):
    """(called name, call) of each call; ``cls(...)`` in a class body calls
    that class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "id", getattr(func, "attr", None)), node
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, call) for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "cls")


def passed(files):
    """For each called name, the keywords and the positional count of every
    call to it; ``None`` for a call with ``*args`` or ``**kwargs``."""
    calls = {}
    for path in files:
        for name, node in named_calls(ast.parse(path.read_text())):
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                None if starred else ({k.arg for k in node.keywords},
                                      len(node.args)))
    return calls


def test_every_default_is_passed():
    calls = passed(PACKAGE + DEMOS
                   + sorted(ROOT.glob("bench/*.py"))
                   + sorted(ROOT.glob("tests/*.py")))
    unpassed = []
    for path in PACKAGE:
        for name, where, params in signatures(ast.parse(path.read_text())):
            for param, position in params:
                if not any(call is None or param in call[0]
                           or (position is not None and position < call[1])
                           for call in calls.get(name, [])):
                    unpassed.append(f"{path.stem}.{where}({param})")
    assert not unpassed, f"defaulted but passed by no call: {unpassed}"


def test_only_kernels_knows_the_two_kernels():
    # the window decides the kernel, and the kernels module evaluates,
    # samples and integrates it; outside it no module names a kernel, reads
    # a kind off a kernel or an intensity, or reads kappa or sigma, but for
    # the CLI's parsed options and the sweep that run_mcmc inlines
    found = []
    for path in PACKAGE:
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = set()  # the nodes of Window, which owns its kind, and run_mcmc
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and node.name == "Window"
                    or isinstance(node, ast.FunctionDef)
                    and node.name == "run_mcmc"):
                exempt.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and node.value in ("von_mises", "gaussian")):
                found.append(f"{path.stem}:{node.lineno} {node.value!r}")
            if not isinstance(node, ast.Attribute) or id(node) in exempt:
                continue
            on_args = getattr(node.value, "id", None) == "args"
            if node.attr in ("kind", "kappa", "sigma") and not on_args:
                found.append(f"{path.stem}:{node.lineno} .{node.attr}")
    assert not found, f"kernel knowledge outside kernels.py: {found}"


def test_no_module_imports_scipy():
    # numpy is the only run-time dependency; scipy is a test oracle
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported in the package: {found}"
