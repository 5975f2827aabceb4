"""README's library sketch runs as written, its config block names every setting, and
its CLI section lists the flags of each command.

A removed or renamed public name, a setting added or reordered, or a
flag given to or taken from a command would otherwise leave the
documentation wrong unseen.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from channelprune.cli import ExperimentConfig
from channelprune.cli.main import main as cli_main

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


def test_cli_section_lists_each_commands_flags(capsys):
    # The bulleted list after this line: one item per command, maybe wrapped onto indented lines.
    section = README.read_text(encoding="utf-8").split("Each command takes only the flags it reads:\n\n", 1)[1]
    items = re.findall(r"^- `(\w+)`: (.*?)(?=\n- |\Z)", section.split("\n\n", 1)[0], re.M | re.S)
    documented = {command: re.findall(r"--[a-z][a-z-]*", flags) for command, flags in items}
    parsed = {}
    for command in ("generate", "prune", "sweep", "verify"):
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        # The usage line names each of the subparser's option strings once, in order.
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        parsed[command] = [flag for flag in re.findall(r"--[a-z][a-z-]*", usage) if flag != "--help"]
    assert documented == parsed
