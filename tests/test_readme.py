"""README's library sketch runs as written, every library name it cites exists, its config
block names every setting, and its CLI section lists the flags of each command.

A removed or renamed public name, a setting added or reordered, or a
flag given to or taken from a command would otherwise leave the
documentation wrong unseen.
"""

import builtins
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import channelprune
from channelprune.cli import ExperimentConfig
from channelprune.cli.main import main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(sketch, f"{README}:python", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4  # three ratios and the certificate


NAMESPACES = (vars(channelprune), vars(channelprune.cli), vars(builtins), {"np": np})
FILE_SUFFIXES = {"py", "toml", "csv", "json", "grcm", "cfg", "md"}


def _resolves(token: str) -> bool:
    """Whether `token`'s head is in one of NAMESPACES and each later part is an attribute, or a
    dataclass field, of what precedes it."""
    head, *parts = token.split(".")
    space = next((space for space in NAMESPACES if head in space), None)
    if space is None:
        return False
    obj = space[head]
    for part in parts:
        if not hasattr(obj, part) and part not in getattr(obj, "__dataclass_fields__", {}):
            return False
        obj = getattr(obj, part, None)
    return True


def test_every_library_name_in_readme_exists():
    # Backticked prose only: the fenced sketch runs above. A CamelCase name (one with a lower-case
    # letter, so W, Q, S and W_O are symbols) or a dotted name such as `Problem.select` must resolve;
    # a file name such as `config.py` is not a library name.
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        for token in re.findall(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span):
            head, last = token.split(".")[0], token.rsplit(".", 1)[-1]
            if head.upper() != head and last not in FILE_SUFFIXES and ("." in token or head[0].isupper()):
                names.add(token)
    assert {"Problem", "Problem.select", "ChannelMatrix", "cli.experiment.load_problem"} <= names
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"README cites names that do not exist: {missing}"


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
