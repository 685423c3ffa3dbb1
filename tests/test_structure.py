"""Structural rules of the package, read from its syntax trees.

* No module of ``optocool`` imports or reads another module's private
  (``_``-prefixed) name.
* The drift has one eigen-solve: ``eig`` and ``eigvals`` are called only
  in :func:`optocool.model.drift_modes`. (``eigvalsh`` of the Hermitian
  V + iJ in ``physicality_defect`` is another operation and is exempt.)
* The pole-separation test has one implementation: no module but
  ``model`` reads ``POLE_SEPARATION_MIN``; the others call
  :func:`optocool.model.pole_separation`.
* The exact routes (``model``, ``spectra``, ``dynamics``) import nothing
  from the closed-form approximation in ``adiabatic``, and the stability
  verdict carries no closed-form quantity.
* A module binds a module-level name to ``None`` only as a placeholder
  that ``perfbench/tracer.py`` patches in that module, and never reads
  it, so a placeholder leaves with its patch.
* No module imports scipy at import time: every scipy import sits in a
  function, and each scipy name is imported at one site, so that
  ``import optocool`` loads numpy alone. ``dynamics`` imports no scipy
  name at all, and reads no pole-separation verdict: one propagator
  basis serves every stable point.
"""

import ast
import dataclasses
import runpy
from pathlib import Path

import pytest

from optocool import StabilityReport

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "optocool"
MODULES = sorted(PACKAGE.glob("*.py"))


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def package_import(node):
    """True for ``from .x import ...`` and ``from optocool.x import ...``."""
    return node.level > 0 or (node.module or "").split(".")[0] == "optocool"


def private_reads(tree):
    """Each import or attribute read of another package module's private name."""
    modules, bad = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_import(node):
            for alias in node.names:
                if private(alias.name):
                    bad.append(f"line {node.lineno}: imports {alias.name}")
                # ``from . import spectra`` binds a module
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "optocool":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            bad.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_of_another_module(path):
    assert private_reads(parse(path)) == []


def test_private_name_finder_sees_every_spelling():
    tree = ast.parse(
        "from . import __version__, spectra as sp\nfrom .model import _margins\n"
        "from optocool.spectra import _fractions\nimport optocool\n"
        "x = sp._digamma, optocool._x, sp.integrate_variances, self._own\n"
    )
    assert [line.split(": ")[1] for line in private_reads(tree)] == [
        "imports _margins", "imports _fractions", "reads sp._digamma", "reads optocool._x",
    ]


def eigen_solves(tree):
    """(enclosing function, line) of every call of eig or eigvals."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("eig", "eigvals"):
                    found.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_drift_modes_is_the_one_eigen_solve():
    calls = {path.name: eigen_solves(parse(path)) for path in MODULES}
    sites = [(name, scope) for name, found in calls.items() for scope, _ in found]
    assert sites == [("model.py", "drift_modes")], calls


def test_eigen_solve_finder_sees_every_spelling():
    tree = ast.parse(
        "import numpy as np\nfrom scipy.linalg import eig\n"
        "def f(a):\n    return np.linalg.eigvals(a), eig(a), np.linalg.eigvalsh(a)\n"
    )
    assert eigen_solves(tree) == [("f", 4), ("f", 4)]


def name_reads(tree, name):
    """Line of every import, name or attribute read of ``name``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found += [node.lineno for alias in node.names if alias.name.split(".")[-1] == name]
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_model_reads_the_separation_threshold(path):
    assert name_reads(parse(path), "POLE_SEPARATION_MIN") == []


def test_name_read_finder_sees_every_spelling():
    tree = ast.parse(
        "from .model import POLE_SEPARATION_MIN as T\nfrom . import model\n"
        "x = model.POLE_SEPARATION_MIN\ny = POLE_SEPARATION_MIN\nz = pole_separation\n"
    )
    assert name_reads(tree, "POLE_SEPARATION_MIN") == [1, 3, 4]


def package_modules(tree):
    """The package modules a syntax tree imports, by their names inside ``optocool``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_import(node):
            parts = (node.module or "").split(".")
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                found.add(inner[0])
            else:  # ``from . import spectra`` names the modules themselves
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "optocool" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("name", ["model", "spectra", "dynamics"])
def test_exact_routes_do_not_import_the_closed_form(name):
    assert "adiabatic" not in package_modules(parse(PACKAGE / f"{name}.py"))


def test_module_finder_sees_every_spelling():
    tree = ast.parse(
        "from .model import classify\nfrom . import adiabatic, errors as e\n"
        "from optocool.spectra import quad\nimport optocool.dynamics\nimport numpy\n"
    )
    assert package_modules(tree) == {"model", "adiabatic", "errors", "spectra", "dynamics"}


def test_stability_report_is_the_verdict_alone():
    names = [f.name for f in dataclasses.fields(StabilityReport)]
    assert names == ["stable", "reason", "spring_margin"]


def none_placeholders(tree):
    """Each module-level name bound to ``None``, and the lines that read any of them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant) \
                and node.value.value is None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names]
    return names, sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_placeholders_are_tracer_patches_the_module_never_reads(path):
    module = "optocool" if path.stem == "__init__" else f"optocool.{path.stem}"
    patches = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["PATCHES"]
    patched = {attr for name, attr, *_ in patches if name == module}
    names, reads = none_placeholders(parse(path))
    assert names <= patched, names - patched
    assert reads == []


def test_placeholder_finder_sees_every_spelling():
    tree = ast.parse(
        "a = b = None\nc: object = None\nd = 0\ndef f(e=None):\n    g = None\n    return a(c)\n"
        "class K:\n    h = None\n"
    )
    assert none_placeholders(tree) == ({"a", "b", "c"}, [6, 6])


def scipy_imports(tree):
    """(enclosing function, imported name) of every scipy import.

    The function is None for an import that runs with the module, a
    class body's included; ``from scipy.linalg import expm`` imports
    ``scipy.linalg.expm``.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
                found.extend((scope, n) for n in names if n.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                if (child.module or "").split(".")[0] == "scipy":
                    found.extend((scope, f"{child.module}.{a.name}") for a in child.names)
            visit(child, inner)

    visit(tree, None)
    return found


def test_scipy_is_imported_in_functions_once_per_name():
    sites = [(path.name, scope, name) for path in MODULES
             for scope, name in scipy_imports(parse(path))]
    assert [site for site in sites if site[1] is None] == []
    names = [name for *_, name in sites]
    assert sorted(names) == sorted(set(names)), sites


def test_scipy_import_finder_sees_every_spelling():
    tree = ast.parse(
        "import scipy\nimport numpy, scipy.linalg as sl\nfrom scipy import constants\n"
        "from .spectra import quad\nif True:\n    from scipy.special import psi\n"
        "class K:\n    from scipy.optimize import brentq\n"
        "    def f(self):\n        from scipy.linalg import expm, eig\n"
        "def g():\n    def h():\n        import scipy.integrate\n"
    )
    assert scipy_imports(tree) == [
        (None, "scipy"), (None, "scipy.linalg"), (None, "scipy.constants"),
        (None, "scipy.special.psi"), (None, "scipy.optimize.brentq"),
        ("f", "scipy.linalg.expm"), ("f", "scipy.linalg.eig"), ("h", "scipy.integrate"),
    ]


def test_dynamics_runs_on_numpy_alone_whatever_the_poles():
    tree = parse(PACKAGE / "dynamics.py")
    assert scipy_imports(tree) == []
    assert name_reads(tree, "separated") == []
