"""The library names the benchmark imports exist, and its calls bind.

`bench/` runs outside the tier-1 test paths, so a removed or renamed
public name, or a renamed or dropped parameter, would break it unseen.
This reads `bench/*.py` with `ast` and imports nothing from it.
"""

import ast
import importlib
import inspect
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


def bench_calls() -> list[tuple[str, int, str, ast.Call, int]]:
    """(bench file, line, library name, call, first bound argument) for every bench call into the library.

    A direct call `name(...)` binds from its first argument; a traced call
    `call(tracer, span, name, ...)` binds `name` to the arguments after the third.
    """
    imported = {name for _, _, name in bench_imports()}
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id in imported:
                found.append((path.name, node.lineno, node.func.id, node, 0))
            elif node.func.id == "call" and len(node.args) >= 3 and isinstance(node.args[2], ast.Name):
                if node.args[2].id in imported:
                    found.append((path.name, node.lineno, node.args[2].id, node, 3))
    return found


def test_every_bench_call_binds():
    modules = [importlib.import_module(module) for module in MODULES]
    calls = bench_calls()
    traced = {name for _, _, name, _, first in calls if first}
    direct = {name for _, _, name, _, first in calls if not first}
    # the walk sees both kinds, and the report and config constructors
    assert {"mies_select", "random_select", "reconstruction_error_sq"} <= traced
    assert {"ReportRow", "ExperimentReport", "ExperimentConfig", "run_experiment"} <= direct
    unbound = []
    for where, line, name, node, first in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args) and all(kw.arg for kw in node.keywords)
        fn = next(getattr(m, name) for m in modules if hasattr(m, name))
        try:
            inspect.signature(fn).bind(*node.args[first:], **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"{where}:{line}: {name}: {exc}")
    assert unbound == []


def test_every_public_name_resolves():
    missing = [name for name in channelprune.__all__ if not hasattr(channelprune, name)]
    assert missing == []
