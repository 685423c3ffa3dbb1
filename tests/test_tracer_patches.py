"""Every name the benchmark's tracer wraps must exist in the program.

``perfbench/tracer.py`` replaces functions in the optocool modules by
timing wrappers. A name that a change removes breaks the benchmark, so
this test reads the tracer's patch list (without importing it as a
module) and looks up each name.
"""

import importlib
import runpy
from pathlib import Path

import pytest

PATCHES = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))["PATCHES"]


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, *_ in PATCHES])
def test_patched_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
