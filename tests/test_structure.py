"""Structural rules of the package, read from its syntax trees.

* No module of ``optocool`` imports or reads another module's private
  (``_``-prefixed) name.
* The drift has one eigen-solve: ``eig`` and ``eigvals`` are called only
  in :func:`optocool.model.drift_modes`. (``eigvalsh`` of the Hermitian
  V + iJ in ``physicality_defect`` is another operation and is exempt.)
* The exact routes (``model``, ``spectra``, ``dynamics``) import nothing
  from the closed-form approximation in ``adiabatic``, and the stability
  verdict carries no closed-form quantity.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from optocool import StabilityReport

PACKAGE = Path(__file__).parents[1] / "src" / "optocool"
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
