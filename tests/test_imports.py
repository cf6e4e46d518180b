"""Every import in a ``gsg`` module is used there, and every public name
has a caller outside the tests.

No linter runs on this repository, so a deletion can leave an import
behind unnoticed.  This test reads each module's syntax tree with ``ast``
and fails on a name that a module imports and never mentions.
``__init__.py`` is left out: it re-exports each module's ``__all__``,
and a re-export is not a caller.  A name in a module's ``__all__`` must be
imported by another ``gsg`` module or by a demo, from its module or from
``gsg``, or read as ``gsg.X`` or ``G.X`` by the benchmark in ``bench/``:
code that only the tests call belongs in the tests.  The package exports
every such name, and its version is the one ``pyproject.toml`` declares.
The message refusing a group's ``(m, n)``, or a digit string's radix seed
and width, is written once, in ``mixed_radix._dims``, which every entry
point calls; the refusal of a negative integer to encode is written once,
in ``encode_width``.  Both entry points of a window, the checked
``GroupElement`` constructor and ``parse_window``, test it with the one
linear predicate ``group_core._is_window``, and ``group_core`` sorts nothing.
"""

import ast
import re
from pathlib import Path

import pytest

import gsg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gsg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
# the modules whose __all__ the package re-exports; gsg.verify is loaded on demand
EXPORTED = ("group_core", "mixed_radix", "statistics", "subexceedant")


def unused_imports(source):
    """The names ``source`` imports and never loads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import re, os.path\nfrom operator import eq, sub as minus\nos.path.join(minus)\n"
    assert unused_imports(source) == ["re", "eq"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert "statistics.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_from(source):
    """``(module, name)`` for each name ``source`` imports with ``from``, the
    module by its last dotted part: ``.statistics`` and ``gsg.statistics``
    are both ``statistics``."""
    return {
        (node.module.rpartition(".")[2], alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def public_names(source):
    """The names in ``source``'s ``__all__``, or none."""
    for node in ast.parse(source).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def package_reads(source):
    """The names ``source`` reads as attributes of ``gsg`` or ``G``, the
    benchmark's name for the package."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("gsg", "G")
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    home = {
        name: path.stem
        for path in MODULES
        for name in public_names(path.read_text(encoding="utf-8"))
    }
    called = set()
    for path in [*MODULES, *DEMOS]:
        for module, name in imports_from(path.read_text(encoding="utf-8")):
            called.add((home.get(name) if module == "gsg" else module, name))
    for path in BENCH:
        for name in package_reads(path.read_text(encoding="utf-8")):
            called.add((home.get(name), name))
    # the scan sees a module's import, a demo's import from gsg, a benchmark's
    # read of G.X and a module's __all__
    assert ("verify", "run_property_checks") in called
    assert ("subexceedant", "psi") in called
    assert ("group_core", "group_order") in called
    assert "rank" in public_names((SRC / "statistics.py").read_text(encoding="utf-8"))
    unused = [f"{module}.{name}" for name, module in home.items() if (module, name) not in called]
    assert unused == []


def test_the_package_exports_every_public_name():
    modules = [getattr(gsg, stem) for stem in EXPORTED]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if getattr(gsg, name, None) is not getattr(module, name)
    ]
    assert missing == []


def test_the_version_is_the_one_pyproject_declares():
    # a regex, as tomllib is new in Python 3.11
    declared = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert declared is not None
    assert gsg.__version__ == declared[1]


RULE = "need m >= 1"  # the start of _dims's message
# the codec's own messages before _dims, which a restated check would bring back
RETIRED = ("radix seed must", "must be positive", "width must be", "at least one")


def texts_containing(tree, text):
    """The string constants under ``tree`` that contain ``text``, the literal
    parts of an f-string and docstrings included."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
    ]


def test_the_group_parameter_rule_is_written_once():
    # the scan sees an f-string's literal parts
    assert texts_containing(ast.parse('f"need {m}, got {n}"'), "got") == [", got "]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    dims = next(
        node
        for node in ast.walk(trees["mixed_radix"])
        if isinstance(node, ast.FunctionDef) and node.name == "_dims"
    )

    def stated(text):
        return [t for tree in trees.values() for t in texts_containing(tree, text)]

    assert len(stated(RULE)) == 1
    assert stated(RULE) == texts_containing(dims, RULE)
    for text in RETIRED:
        assert stated(text) == [], text
    # "is negative" would also find _negatives' docstring
    assert len(stated("cannot encode negative")) == 1


def calls_to(tree, name):
    """The calls under ``tree`` of the plain name ``name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_the_window_rule_is_written_once():
    # the scan sees a call nested in an expression, and no attribute call
    assert len(calls_to(ast.parse("ok = not f(sorted(b)) and b.sorted()"), "sorted")) == 1
    tree = ast.parse((SRC / "group_core.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if hasattr(node, "name")}
    checked = next(
        node for node in defs["GroupElement"].body if getattr(node, "name", "") == "__init__"
    )
    assert calls_to(tree, "sorted") == []
    assert "_is_window" in defs
    for entry in (checked, defs["parse_window"]):
        assert len(calls_to(entry, "_is_window")) == 1, entry.name
    assert len(texts_containing(tree, "is not a permutation")) == 1
