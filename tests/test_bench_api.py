"""The library names the benchmark imports exist.

`bench/` runs outside the tier-1 test paths, so a removed or renamed
public name would break it unseen. This reads `bench/*.py` with `ast`
and imports nothing from it.
"""

import ast
import importlib
from pathlib import Path

import channelprune

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("channelprune", "channelprune.cli", "channelprune.cli.experiment")


def bench_imports() -> list[tuple[str, str, str]]:
    """(bench file, module, name) for every `from <module> import <name>` in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in MODULES:
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_every_bench_import_exists():
    found = bench_imports()
    assert {module for _, module, _ in found} == set(MODULES)  # the walk sees the bench's imports
    missing = [f"{where}: {module}.{name}" for where, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in channelprune.__all__ if not hasattr(channelprune, name)]
    assert missing == []
