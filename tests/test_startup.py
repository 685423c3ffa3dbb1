"""Start-up cost of the command line: importing it loads numpy, not scipy.

Every CLI run is a fresh interpreter, and scipy's subpackages take most
of a second to import. Each is imported by the one function that calls
it, so the closed-form modes, the flat-bath variances and optimizer and the
transient modes, at every stable point (on resonance and where the
cavity poles nearly coincide too), run without scipy at all. Both checks run in a
fresh interpreter, since this test session has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

POINT = ["--set", "b=10", "--set", "phi=10", "--set", "phi_nl=0.1",
         "--set", "q_factor=1e4", "--set", "n_t_i=100"]
PHYSICAL = [arg for k, v in {
    "omega_m": "6.283185307179586e7", "kappa": "6.283185307179586e6",
    "gamma": "6283.185307179586", "mass": "1e-12", "cavity_length": "1e-3",
    "omega_c": "1.7704e15", "delta_c": "6.283185307179586e7",
    "drive_intensity": "1e13", "temperature": "0.1",
}.items() for arg in ("--set", f"physical.{k}={v}")]
SWEEP = ["--set", "sweep.start=5", "--set", "sweep.stop=15", "--set", "sweep.points=3"]
NUMPY_ONLY_RUNS = [
    ["steady", "--set", "steady.phi_c=2", "--set", "steady.drive=2"],
    ["adiabatic", *POINT, "--set", "sweep.variable=b", *SWEEP],
    ["adiabatic", *PHYSICAL],
    ["spectrum", *POINT, "--set", "spectrum.omega_points=9"],
    ["variances", *POINT, "--set", "noise_model=markov_flat", "--set", "sweep.variable=phi",
     *SWEEP],
    ["optimize", *POINT, "--set", "noise_model=markov_flat", "--set", "sweep.variable=b",
     *SWEEP],
    ["dynamics", *POINT],
    ["fig3"],
    ["homodyne", *POINT],
    # phi = 0 and 1e-9: the cavity pair is one cluster of the propagator basis
    ["dynamics", "--set", "b=1", "--set", "phi=0", "--set", "phi_nl=0.3", "--set", "q_factor=1e4",
     "--set", "n_t_i=10"],
    ["homodyne", "--set", "b=10", "--set", "phi=1e-9", "--set", "phi_nl=0.1", "--set",
     "q_factor=1e4", "--set", "n_t_i=30", "--set", "homodyne.lo_rate=1",
     "--set", "homodyne.demod_rate=3"],
]


def fresh_python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy():
    out = fresh_python(
        "import sys, optocool.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert out == "[]\n"


# Runs each argv list through cli.main and prints one JSON list of
# [exit code, stdout, stderr]; argv[1] == "block" makes every scipy
# import raise ImportError first.
RUN_MODES = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from optocool.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_numpy_only_modes_run_without_scipy():
    runs = json.dumps(NUMPY_ONLY_RUNS)
    blocked = json.loads(fresh_python(RUN_MODES, "block", runs))
    free = json.loads(fresh_python(RUN_MODES, "free", runs))
    assert [rc for rc, *_ in free] == [0] * len(NUMPY_ONLY_RUNS)
    assert blocked == free

