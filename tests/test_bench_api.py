"""The library names the benchmark imports exist, and its calls bind.

`bench/` runs outside the tier-1 test paths, so a removed or renamed
public name, or a renamed or dropped parameter, would break it unseen.
This reads `bench/*.py` with `ast` and imports nothing from it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import channelprune
from channelprune import CapacityError, ChannelMatrix, IndexSet, Problem, Selector

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


SHORTHANDS = ("mies_select", "think_select", "random_select", "oracle_select")


def _same_selection(a, b):
    assert (a.selector, a.lam, a.n_prune, a.pruned, a.order) == (b.selector, b.lam, b.n_prune, b.pruned, b.order)
    assert a.budget_clamped == b.budget_clamped
    assert a.error_sq.hex() == b.error_sq.hex()
    assert a.error_future_sq is b.error_future_sq is None


@pytest.mark.parametrize("protected", [IndexSet.empty(), IndexSet((1, 4))], ids=["unprotected", "protected"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_each_shorthand_is_one_problem_select(protected, lam):
    # The shorthands stay, outside __all__, only for bench/'s imports; each is Problem(q, k, protected).select(...).
    rng = np.random.default_rng(0)
    q, k = (ChannelMatrix(rng.standard_normal((6, 8))) for _ in range(2))
    selector_of = {"mies_select": Selector.MIES, "think_select": Selector.THINK, "oracle_select": Selector.ORACLE}
    for name, selector in selector_of.items():
        _same_selection(getattr(channelprune, name)(q, k, lam, protected), Problem(q, k, protected).select(selector, lam))
    draws = set()
    for seed in (0, 7):
        sel = channelprune.random_select(q, k, lam, protected, seed=seed)
        _same_selection(sel, Problem(q, k, protected).select(Selector.RANDOM, lam, seed=seed))
        draws.add(sel.order)
    assert len(draws) == (1 if sel.n_prune == 0 else 2)  # the seed reaches the draw
    with pytest.raises(CapacityError) as shorthand:  # cap=0 refuses even C(n, 0) = 1
        channelprune.oracle_select(q, k, lam, protected, cap=0)
    with pytest.raises(CapacityError) as direct:
        Problem(q, k, protected).select(Selector.ORACLE, lam, cap=0)
    assert str(shorthand.value) == str(direct.value)


def test_only_the_bench_entry_points_name_the_shorthands():
    # A second selection API in src/ or the tests would outlive the shorthands' removal unseen.
    assert not set(SHORTHANDS) & set(channelprune.__all__)
    root = BENCH.parent
    allowed = {"src/channelprune/prune.py", "src/channelprune/__init__.py", "tests/test_bench_api.py"}
    found = set()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            if any(name in SHORTHANDS for name in names):
                found.add(f"{path.relative_to(root).as_posix()}:{node.lineno}")
    assert sorted(where for where in found if where.rpartition(":")[0] not in allowed) == []
