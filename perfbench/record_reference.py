"""Record the preset outputs the benchmark compares against.

Run from the repository root as ``python3 perfbench/record_reference.py``.
It writes ``perfbench/reference.json`` with the data rows of ``fig1``,
``fig2``, ``fig3`` and ``homodyne`` at the fig3 operating point, each
with the relative tolerance its check uses. Re-record only when a
change to the program is meant to move these results.
"""

import contextlib
import io
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from optocool.cli import main  # noqa: E402

from checks import REFERENCE_FILE, RTOL_DYNAMICS, RTOL_SPECTRAL, split_csv  # noqa: E402
from jobs import generate  # noqa: E402

RTOL = {"fig1": RTOL_SPECTRAL, "fig2": RTOL_SPECTRAL,
        "fig3": RTOL_DYNAMICS, "homodyne_fig3": RTOL_DYNAMICS}


def record() -> dict:
    jobs = {j.spec["ref"]: j for wl in ("spectral", "transient") for j in generate(wl, 0)
            if "ref" in j.spec}
    out = {}
    for name in sorted(RTOL):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(list(jobs[name].argv))
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        columns, rows = split_csv(buf.getvalue())
        out[name] = {"argv": list(jobs[name].argv), "rtol": RTOL[name],
                     "columns": columns, "rows": rows}
    return out


if __name__ == "__main__":
    text = json.dumps(record(), indent=1)
    # one CSV row per line
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
