"""The README's library tour runs as printed."""

import re
import warnings
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_tour_runs_without_runtime_warnings():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(blocks[0], str(README), "exec"), {})
