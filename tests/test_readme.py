"""README's library sketch runs as written, and its config block names every setting.

A removed or renamed public name, or a setting added or reordered,
would otherwise leave the documentation wrong unseen.
"""

import dataclasses
import re
from pathlib import Path

from channelprune.cli import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(sketch, f"{README}:python", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4  # three ratios and the certificate


def test_config_block_lists_every_setting():
    # Key names only: the block's example values are not the defaults.
    section = README.read_text(encoding="utf-8").split("### Config files\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    keys = [line.partition("=")[0] for line in block.splitlines()]
    assert keys == [field.name for field in dataclasses.fields(ExperimentConfig)]
