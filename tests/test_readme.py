"""The README's library tour and config examples run as printed."""

import re
import warnings
from pathlib import Path

from optocool import cli

README = Path(__file__).parents[1] / "README.md"


def test_library_tour_runs_without_runtime_warnings():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(blocks[0], str(README), "exec"), {})


def test_config_examples_run(tmp_path):
    # each ```ini block runs with the mode named in the paragraph before it
    text = README.read_text()
    blocks = list(re.finditer(r"```ini\n(.*?)```", text, flags=re.S))
    assert blocks
    for i, block in enumerate(blocks):
        intro = text[:block.start()].rsplit("```", 1)[-1]
        (mode,) = re.findall(r"`optocool (\w+) --config [^`]*`", intro)
        config, out = tmp_path / f"example{i}.ini", tmp_path / f"example{i}.csv"
        config.write_text(block.group(1))
        assert cli.main([mode, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text().count("\n") > 1
