"""Guard against orphaned helpers and stale `__all__` entries in the package source.

A top-level private `def` or `class` that nothing else in `src/` names is
dead code left behind by a refactor; a name in `__all__` that its module
does not bind breaks `from module import *`. Both are found with `ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _bound_names(tree):
    """Names bound by the module's top-level definitions, imports and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))


def _referenced(tree):
    """(enclosing top-level definition or None, name) for every name, attribute and import in `tree`."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from ((owner, alias.name) for alias in node.names)


def find_orphans(sources):
    """Problems in {module name: source text}: unreferenced private definitions, unbound `__all__` names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = {(module, owner, name) for module, tree in trees.items() for owner, name in _referenced(tree)}
    problems = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                if not any(name == node.name and (m, owner) != (module, node.name) for m, owner, name in uses):
                    problems.append(f"{module}:{node.lineno}: {node.name} is referenced nowhere else")
        bound = set(_bound_names(tree))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    if name not in bound:
                        problems.append(f"{module}:{node.lineno}: __all__ names {name}, which it does not define")
    return problems


def test_no_orphaned_private_helpers_or_stale_all_entries():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert find_orphans(sources) == []


def test_the_guard_flags_an_orphan_and_a_stale_all_entry():
    sources = {
        "a.py": (
            "__all__ = ['public', 'gone']\n"
            "def public():\n    return _used() + _recursive(1)\n"
            "def _used():\n    return 0\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "def _orphan():\n    return _orphan()\n"
            "class _Helper:\n    pass\n"
        ),
        "b.py": "from .a import _Helper\n",
    }
    assert find_orphans(sources) == [
        "a.py:8: _orphan is referenced nowhere else",
        "a.py:1: __all__ names gone, which it does not define",
    ]
