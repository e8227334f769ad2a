"""Every function, method and class in ``src/`` has a caller.

The scan parses the five Python trees of the repository (``src``,
``tests``, ``examples``, ``benchmarks``, ``perfbench``) and collects
every name they refer to: a ``Name``, an ``Attribute``, an import (or
its alias), or a string constant that is exactly the name (``getattr``
targets, ``__all__`` entries, monkeypatch and tracing targets).  A
definition in ``src/`` whose name appears nowhere in that set is dead
code and fails the test.

Dunders count as used (the interpreter calls them), and so do
definitions under a registering decorator such as ``atexit.register``.
Descriptor decorators (``property``, ``staticmethod``, ...) register
nothing, so a property still needs a reader.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "benchmarks", "perfbench")

#: Decorators that wrap a definition without registering it anywhere.
TRANSPARENT_DECORATORS = frozenset(
    {"property", "staticmethod", "classmethod", "abstractmethod", "cached_property",
     "setter", "getter", "deleter"}
)


def _python_files(root, tree):
    return sorted((root / tree).rglob("*.py"))


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _registered(node):
    return any(
        _decorator_name(decorator) not in TRANSPARENT_DECORATORS
        for decorator in node.decorator_list
    )


def _referenced_names(root):
    names = set()
    for tree in TREES:
        for path in _python_files(root, tree):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                    if node.asname:
                        names.add(node.asname)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def _definitions(root):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in _python_files(root, "src"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, kinds):
                yield path.relative_to(root), node


def _dead_definitions(root):
    referenced = _referenced_names(root)
    return [
        f"{path}:{node.lineno} {node.name}"
        for path, node in _definitions(root)
        if node.name not in referenced
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _registered(node)
    ]


def test_every_src_definition_is_referenced():
    dead = _dead_definitions(ROOT)
    assert dead == [], "definitions nothing refers to:\n" + "\n".join(dead)


# -- the scan's own rules, on a two-file repository ---------------------------

_DEFINED = """\
import atexit


def target():
    pass


class Holder:
    def __repr__(self):
        return "a holder"

    @property
    def reading(self):
        return 1


@atexit.register
def _hook():
    pass
"""


@pytest.mark.parametrize(
    "caller, dead",
    [
        ("", {"target", "Holder", "reading"}),
        ("from pkg.mod import Holder\nHolder()\ntarget()\n", {"reading"}),
        ("import pkg.mod\npkg.mod.target\n", {"Holder", "reading"}),
        ("from pkg.mod import target as alias\n", {"Holder", "reading"}),
        ("getattr(object, 'target')\n", {"Holder", "reading"}),
        ("print('target is mentioned in prose')\n", {"target", "Holder", "reading"}),
        ("def use(holder):\n    return holder.reading\n", {"target", "Holder"}),
    ],
    ids=["nothing", "name", "attribute", "import-alias", "string", "prose", "property"],
)
def test_scan_rules(tmp_path, caller, dead):
    """Names, attributes, import aliases and whole strings keep a
    definition; prose does not.  Dunders and registered hooks are kept
    by themselves; a property is kept only by a reader."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(_DEFINED)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_caller.py").write_text(caller)
    found = {entry.rpartition(" ")[2] for entry in _dead_definitions(tmp_path)}
    assert found == dead
