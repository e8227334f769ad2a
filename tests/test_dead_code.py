"""Every function, method, class and module-level name in ``src/`` has a
reader.

The scan parses the five Python trees of the repository (``src``,
``tests``, ``examples``, ``benchmarks``, ``perfbench``) and collects
every name they refer to: a ``Name`` that is read (an assignment to the
name does not count, so a definition cannot keep itself alive), an
``Attribute``, an import (or its alias), or a string constant that is
exactly the name (``getattr`` targets, ``__all__`` entries, monkeypatch
and tracing targets).  A definition in ``src/`` whose name appears
nowhere in that set is dead code and fails the test.  Definitions are
functions, methods, classes and the names a module's top-level
assignments bind.

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
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _assigned_names(statement):
    """The names a module-level assignment binds."""
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node


def _definitions(root):
    """``(path, line, name, registered)`` for every definition in ``src/``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in _python_files(root, "src"):
        module = ast.parse(path.read_text(), str(path))
        relative = path.relative_to(root)
        for node in ast.walk(module):
            if isinstance(node, kinds):
                yield relative, node.lineno, node.name, _registered(node)
        for statement in module.body:
            for node in _assigned_names(statement):
                yield relative, node.lineno, node.id, False


def _dead_definitions(root):
    referenced = _referenced_names(root)
    return [
        f"{path}:{line} {name}"
        for path, line, name, registered in _definitions(root)
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
        and not registered
    ]


def test_every_src_definition_is_referenced():
    dead = _dead_definitions(ROOT)
    assert dead == [], "definitions nothing refers to:\n" + "\n".join(dead)


# -- the scan's own rules, on a two-file repository ---------------------------

_DEFINED = """\
import atexit

LIMIT = 4


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
        ("", {"LIMIT", "target", "Holder", "reading"}),
        ("from pkg.mod import Holder\nHolder()\ntarget()\n", {"LIMIT", "reading"}),
        ("import pkg.mod\npkg.mod.target\n", {"LIMIT", "Holder", "reading"}),
        ("from pkg.mod import target as alias\n", {"LIMIT", "Holder", "reading"}),
        ("getattr(object, 'target')\n", {"LIMIT", "Holder", "reading"}),
        ("print('target is mentioned in prose')\n", {"LIMIT", "target", "Holder", "reading"}),
        ("def use(holder):\n    return holder.reading\n", {"LIMIT", "target", "Holder"}),
        ("def use():\n    return LIMIT\n", {"target", "Holder", "reading"}),
        ("import pkg.mod\nprint(pkg.mod.LIMIT)\n", {"target", "Holder", "reading"}),
        ("LIMIT = 5\nLIMIT += 1\n", {"LIMIT", "target", "Holder", "reading"}),
    ],
    ids=["nothing", "name", "attribute", "import-alias", "string", "prose", "property",
         "module-name-read", "module-name-attribute", "module-name-store"],
)
def test_scan_rules(tmp_path, caller, dead):
    """Names that are read, attributes, import aliases and whole strings
    keep a definition; prose and assignments do not.  Dunders and
    registered hooks are kept by themselves; a property is kept only by
    a reader, and a module-level name only by a read."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(_DEFINED)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_caller.py").write_text(caller)
    found = {entry.rpartition(" ")[2] for entry in _dead_definitions(tmp_path)}
    assert found == dead


@pytest.mark.parametrize(
    "binding, dead",
    [
        ("LIMIT = 4\n", {"LIMIT"}),
        ("LIMIT: int = 4\n", {"LIMIT"}),
        ("LIMIT, OTHER = 4, 5\n", {"LIMIT", "OTHER"}),
    ],
    ids=["assign", "annotated", "unpacked"],
)
def test_scan_finds_every_module_level_binding(tmp_path, binding, dead):
    """Plain, annotated and unpacking assignments each define names."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(binding)
    found = {entry.rpartition(" ")[2] for entry in _dead_definitions(tmp_path)}
    assert found == dead
