"""Guard against orphaned helpers, unused imports and stale `__all__` entries in the package source.

A top-level private `def`, `class` or assigned name (`_NAME = ...`) that
nothing else in `src/` names is dead code left behind by a refactor, and so
is a top-level import that its module never names; a name in `__all__` that
its module does not bind breaks `from module import *`; and a name a package
`__init__.py` re-exports with `from .mod import name` is part of `mod`'s
public surface, so `mod.__all__` must list it. All four are found with `ast`,
as is a non-dunder method of a top-level private class that nothing in `src/`
names outside the method's own body, which is dead code for the same reason.

Also with `ast`: no `yield` inside a `with np.errstate(...)` block. numpy's
error state is a context variable, so a generator paused inside one would
hand that state to its consumer until it resumes. And every `lru_cache` has
an explicit integer `maxsize`, and `functools.cache` is not used: a cache
without a bound holds its arguments and results for the life of the process.

Last, every private name that one module imports from another is listed in
`PRIVATE_IMPORTS`, so a new coupling between modules shows as an edit there.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (importer, module, name) for each private name a module of `src/` imports from another.
PRIVATE_IMPORTS = {
    ("channelprune.prune", "channelprune.core", "_error_sq_blocks"),
    ("channelprune.prune", "channelprune.graph", "_check_capacity"),
    ("channelprune.prune", "channelprune.graph", "_first_minimizer"),
    ("channelprune.cli.main", "channelprune.cli.config", "_KEYS"),
    ("channelprune.cli.main", "channelprune.cli.config", "_apply_key"),
    ("channelprune.cli.main", "channelprune.cli.config", "_embedded"),
    ("channelprune.cli.main", "channelprune.cli.config", "_write_bool"),
    ("channelprune.cli.experiment", "channelprune.cli.config", "_embedded"),
    ("channelprune.cli.experiment", "channelprune.cli.config", "_write_bool"),
    ("channelprune.cli.selfcheck", "channelprune.prune", "_greedy"),
}


def _defined_names(node):
    """Names a top-level statement defines: a def's or class's name, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def _bound_names(tree):
    """Names bound by the module's top-level definitions, imports and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        else:
            yield from _defined_names(node)


def _all_statement(tree):
    """The module's top-level `__all__ = [...]` assignment, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return node
    return None


def _unlisted_reexports(module, tree, trees):
    """Problems for each `from .mod import name` of a package `__init__.py` whose `mod.__all__` lacks name."""
    prefix = module[: -len("__init__.py")]
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            sub = prefix + node.module.replace(".", "/")
            source = f"{sub}.py" if f"{sub}.py" in trees else f"{sub}/__init__.py"
            statement = _all_statement(trees[source]) if source in trees else None
            listed = set(ast.literal_eval(statement.value)) if statement else set()
            for alias in node.names:
                if alias.name not in listed:
                    yield f"{module}:{node.lineno}: re-exports {alias.name}, which {source} leaves out of __all__"


def _referenced(tree):
    """(enclosing top-level statement, name) for every name, attribute and import in `tree`."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield top, node.id
            elif isinstance(node, ast.Attribute):
                yield top, node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from ((top, alias.name) for alias in node.names)


def find_orphans(sources):
    """Problems in {module name: source text}: unreferenced private definitions, unbound `__all__` names,
    and package re-exports that the submodule's `__all__` leaves out."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = {(module, top, name) for module, tree in trees.items() for top, name in _referenced(tree)}
    problems = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                # A read inside the defining statement (recursion, the assignment itself) does not count.
                if not any(used == name and (m, top) != (module, node) for m, top, used in uses):
                    problems.append(f"{module}:{node.lineno}: {name} is referenced nowhere else")
        bound = set(_bound_names(tree))
        statement = _all_statement(tree)
        for name in ast.literal_eval(statement.value) if statement else ():
            if name not in bound:
                problems.append(f"{module}:{statement.lineno}: __all__ names {name}, which it does not define")
        if module.rpartition("/")[2] == "__init__.py":
            problems.extend(_unlisted_reexports(module, tree, trees))
    return problems


def _names(node):
    """Counts of the names, attributes and imported names read anywhere under `node`."""
    return Counter(name for _, name in _referenced(ast.Module(body=[node], type_ignores=[])))


def find_orphaned_methods(sources):
    """Problems for each non-dunder method of a top-level private class that `sources` name only in its own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    problems = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or not cls.name.startswith("_") or cls.name.startswith("__"):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if not (name.startswith("__") and name.endswith("__")) and uses[name] == _names(method)[name]:
                    problems.append(f"{module}:{method.lineno}: {cls.name}.{name} is referenced nowhere else")
    return problems


def find_unused_imports(sources):
    """Problems for each top-level import of a non-`__init__` module that its module never names.

    A name counts as used when the module reads it (`np.add` reads `np`) or lists it in
    `__all__`; a package `__init__.py` imports to re-export, and `__future__` imports bind nothing.
    """
    problems = []
    for module, text in sources.items():
        if module.rpartition("/")[2] == "__init__.py":
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        statement = _all_statement(tree)
        read.update(ast.literal_eval(statement.value) if statement else ())
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        problems.append(f"{module}:{node.lineno}: imports {name}, which it never names")
    return problems


def _own_scope(node):
    """Nodes under `node` that run in its scope: nested defs, lambdas and classes are not entered."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield child
            yield from _own_scope(child)


def find_yields_in_errstate(sources):
    """Problems for each `yield` or `yield from` that runs inside a `with ... errstate(...)` block."""
    problems = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            managers = [item.context_expr for item in node.items if isinstance(item.context_expr, ast.Call)]
            if not any(getattr(call.func, "attr", getattr(call.func, "id", None)) == "errstate" for call in managers):
                continue
            for inner in _own_scope(node):
                if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    problems.append(f"{module}:{inner.lineno}: yields inside the errstate block of line {node.lineno}")
    return problems


def _named(node, name):
    """Whether `node` is `name` or `<anything>.name`."""
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def find_unbounded_caches(sources):
    """Problems for each `lru_cache` without an explicit integer `maxsize`, and each use of `functools.cache`."""
    problems = []
    for module, text in sources.items():
        tree = ast.parse(text)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                if any(alias.name == "cache" for alias in node.names):
                    problems.append(f"{module}:{node.lineno}: imports functools.cache, which has no maxsize")
            elif isinstance(node, ast.Attribute) and node.attr == "cache" and _named(node.value, "functools"):
                problems.append(f"{module}:{node.lineno}: uses functools.cache, which has no maxsize")
            elif isinstance(node, ast.Call) and _named(node.func, "lru_cache"):
                sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
                if not (sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
                    problems.append(f"{module}:{node.lineno}: lru_cache without an explicit integer maxsize")
            elif _named(node, "lru_cache") and id(node) not in called:  # a bare `@lru_cache` bounds at 128
                problems.append(f"{module}:{node.lineno}: lru_cache without an explicit integer maxsize")
    return problems


def test_no_orphaned_private_helpers_or_stale_all_entries():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert find_orphans(sources) == []


def test_the_guard_flags_an_orphan_and_a_stale_all_entry():
    sources = {
        "a.py": (
            "__all__ = ['public', 'gone']\n"
            "def public():\n    return _used() + _recursive(_LIMIT)\n"
            "def _used():\n    return 0\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "def _orphan():\n    return _orphan()\n"
            "class _Helper:\n    pass\n"
            "_LIMIT = 3\n"
            "_UNUSED = 1\n"
            "_TABLE: dict = {}\n"
        ),
        "b.py": "from .a import _Helper\nfrom . import a\nprint(a._TABLE)\n",
    }
    assert find_orphans(sources) == [
        "a.py:8: _orphan is referenced nowhere else",
        "a.py:13: _UNUSED is referenced nowhere else",
        "a.py:1: __all__ names gone, which it does not define",
    ]


def test_the_guard_flags_a_package_reexport_that_the_submodule_leaves_out_of_all():
    sources = {
        "pkg/__init__.py": (
            "from .a import listed, unlisted\n"
            "from .sub import inner\n"
            "from . import a\n"
            "from .. import outer\n"
        ),
        "pkg/a.py": "__all__ = ['listed']\nlisted = unlisted = 1\n",
        "pkg/sub/__init__.py": "from .deep import inner\n__all__ = ['inner']\n",
        "pkg/sub/deep.py": "inner = 2\n",
    }
    assert find_orphans(sources) == [
        "pkg/__init__.py:1: re-exports unlisted, which pkg/a.py leaves out of __all__",
        "pkg/sub/__init__.py:1: re-exports inner, which pkg/sub/deep.py leaves out of __all__",
    ]


def test_no_orphaned_methods_of_private_classes():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert find_orphaned_methods(sources) == []


def test_the_guard_flags_an_orphaned_method_of_a_private_class():
    sources = {
        "a.py": (
            "class _Walk:\n"
            "    def __init__(self):\n        self.step = self._helper()\n"
            "    def _helper(self):\n        return 0\n"
            "    def called(self):\n        return 1\n"
            "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n"
            "    @property\n    def size(self):\n        return 2\n"
            "    def unused(self):\n        return self.unused\n"
            "class Public:\n"
            "    def never_called(self):\n        return 3\n"
            "def run():\n    return _Walk().called() + _Walk().size\n"
        ),
    }
    assert find_orphaned_methods(sources) == [
        "a.py:8: _Walk.recursive is referenced nowhere else",
        "a.py:13: _Walk.unused is referenced nowhere else",
    ]


def test_no_unused_imports():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert find_unused_imports(sources) == []


def test_the_guard_flags_an_unused_import():
    sources = {
        "pkg/__init__.py": "from .a import public\n",
        "pkg/a.py": (
            "from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "import numpy as np\n"
            "from itertools import accumulate, chain\n"
            "from .b import exported\n"
            "__all__ = ['exported', 'public']\n"
            "def public(x: Iterator) -> float:\n"
            "    import json\n"
            "    return np.add(x, math.pi) + len(list(chain(x)))\n"
        ),
    }
    assert find_unused_imports(sources) == [
        "pkg/a.py:3: imports os, which it never names",
        "pkg/a.py:5: imports accumulate, which it never names",
    ]


def test_no_yield_inside_an_errstate_block():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert find_yields_in_errstate(sources) == []


def test_the_guard_flags_a_yield_inside_an_errstate_block():
    sources = {
        "a.py": (
            "import numpy as np\n"
            "from numpy import errstate\n"
            "def chunks(xs):\n"
            "    with np.errstate(over='ignore'):\n"
            "        for x in xs:\n"
            "            yield x * x\n"
            "def inner(xs):\n"
            "    with open('f') as f, errstate(invalid='ignore'):\n"
            "        if xs:\n"
            "            yield from xs\n"
            "def fine(xs):\n"
            "    with np.errstate(over='ignore'):\n"
            "        squares = [x * x for x in xs]\n"
            "        def later():\n"
            "            yield squares\n"
            "        total = sum(x for x in xs)\n"
            "    yield total\n"
            "    with open('f'):\n"
            "        yield later\n"
        ),
    }
    assert find_yields_in_errstate(sources) == [
        "a.py:6: yields inside the errstate block of line 4",
        "a.py:10: yields inside the errstate block of line 8",
    ]


def test_every_cache_has_an_explicit_integer_maxsize():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert any("lru_cache(maxsize=" in text for text in sources.values())
    assert find_unbounded_caches(sources) == []


def test_the_guard_flags_an_unbounded_cache():
    sources = {
        "a.py": (
            "import functools\n"
            "from functools import cache, lru_cache\n"
            "@lru_cache(maxsize=8)\n"
            "def fine(n):\n    return n\n"
            "@functools.lru_cache(16)\n"
            "def also_fine(n):\n    return n\n"
            "@lru_cache(maxsize=None)\n"
            "def unbounded(n):\n    return n\n"
            "@functools.lru_cache\n"
            "def default(n):\n    return n\n"
            "@lru_cache()\n"
            "def empty(n):\n    return n\n"
            "@functools.cache\n"
            "def cached(n):\n    return n\n"
            "wrapped = lru_cache(maxsize=True)(fine)\n"
        ),
    }
    assert find_unbounded_caches(sources) == [
        "a.py:2: imports functools.cache, which has no maxsize",
        "a.py:9: lru_cache without an explicit integer maxsize",
        "a.py:12: lru_cache without an explicit integer maxsize",
        "a.py:15: lru_cache without an explicit integer maxsize",
        "a.py:18: uses functools.cache, which has no maxsize",
        "a.py:21: lru_cache without an explicit integer maxsize",
    ]


def _module_name(path):
    """Dotted module name of a source path: `pkg/__init__.py` is `pkg`, `pkg/a.py` is `pkg.a`."""
    parts = path[: -len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def find_private_imports(sources):
    """(importer, module, name) for each relative `from .mod import _name` anywhere in {path: source text}."""
    found = set()
    for path, text in sources.items():
        package = path.split("/")[:-1]  # the directory a relative import starts from
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level:
                module = ".".join(package[: len(package) - node.level + 1] + ([node.module] if node.module else []))
                found.update(
                    (_module_name(path), module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    return found


def test_every_private_import_across_modules_is_listed():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert find_private_imports(sources) == PRIVATE_IMPORTS


def test_the_guard_reports_each_private_import():
    sources = {
        "pkg/__init__.py": "from .a import public, _reexported\nfrom . import _sibling\n",
        "pkg/a.py": (
            "from __future__ import annotations\n"
            "from os import _exit\n"
            "from .b import __version__, _helper\n"
            "def late():\n    from .b import _deferred\n    return _deferred\n"
        ),
        "pkg/sub/c.py": "from ..a import _walk\nfrom .d import _local\nfrom . import _near\n",
    }
    assert find_private_imports(sources) == {
        ("pkg", "pkg.a", "_reexported"),
        ("pkg", "pkg", "_sibling"),
        ("pkg.a", "pkg.b", "_helper"),
        ("pkg.a", "pkg.b", "_deferred"),
        ("pkg.sub.c", "pkg.a", "_walk"),
        ("pkg.sub.c", "pkg.sub.d", "_local"),
        ("pkg.sub.c", "pkg.sub", "_near"),
    }


def test_a_new_private_import_shows_against_the_list():
    sources = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    sources["channelprune/prune.py"] += "from .graph import _BranchAndBound\n"
    assert find_private_imports(sources) - PRIVATE_IMPORTS == {
        ("channelprune.prune", "channelprune.graph", "_BranchAndBound")
    }
