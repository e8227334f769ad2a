"""Every function, method, class, module-level name and attribute in
``src/`` has a reader.

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
definitions under ``atexit.register``, which the interpreter calls at
exit.  Every other decorator (``property``, ``lru_cache``,
``contextmanager``, ...) registers nothing, so the definition still
needs a reader.

An attribute that ``src/`` stores (``self.count = 0``, ``count += 1``)
is write-only, and fails the test, when no tree reads an attribute of
that name and no string constant is exactly the name.  A name declared
in a class body (a dataclass field, a class attribute) counts as read:
the generated ``__init__``, ``__repr__`` and ``__eq__`` read fields.

The cycle model's files (:data:`CYCLE_MODEL`) are held to more: a
definition there that only ``tests/`` reads fails too, unless
:data:`READ_BY_TESTS` names it with the reason it stays.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "benchmarks", "perfbench")


def _python_files(root, tree):
    return sorted((root / tree).rglob("*.py"))


def _registered(node):
    return any(ast.unparse(decorator) == "atexit.register" for decorator in node.decorator_list)


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(), str(path))


@functools.lru_cache(maxsize=None)
def _tree_names(root, tree):
    """Every name referred to in *tree*, and the attribute names that
    are read (string constants count as both)."""
    names, read = set(), set()
    for path in _python_files(root, tree):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
                read.add(node.value)
    return frozenset(names), frozenset(read)


def _referenced_names(root, trees):
    """Every name referred to in *trees*, and the attribute names read."""
    names, read = set(), set()
    for tree in trees:
        tree_names, tree_read = _tree_names(root, tree)
        names |= tree_names
        read |= tree_read
    return names, read


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
        module = _parse(path)
        relative = path.relative_to(root)
        for node in ast.walk(module):
            if isinstance(node, kinds):
                yield relative, node.lineno, node.name, _registered(node)
        for statement in module.body:
            for node in _assigned_names(statement):
                yield relative, node.lineno, node.id, False


def _stored_attributes(root):
    """``(path, line, name)`` for every attribute store in ``src/``, and
    the names class bodies declare."""
    stores, declared = [], set()
    for path in _python_files(root, "src"):
        relative = path.relative_to(root)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stores.append((relative, node.lineno, node.attr))
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    declared.update(name.id for name in _assigned_names(statement))
    return stores, declared


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _dead_definitions(root, trees=TREES):
    referenced, read = _referenced_names(root, trees)
    dead = [
        f"{path}:{line} {name}"
        for path, line, name, registered in _definitions(root)
        if name not in referenced and not _dunder(name) and not registered
    ]
    stores, declared = _stored_attributes(root)
    write_only = {}
    for path, line, name in stores:
        if name not in read and name not in declared and not _dunder(name):
            write_only.setdefault(name, f"{path}:{line} {name}")
    return dead + list(write_only.values())


def test_every_src_definition_is_referenced():
    dead = _dead_definitions(ROOT)
    assert dead == [], "definitions and attributes nothing reads:\n" + "\n".join(dead)


#: The cycle model: the core's FIFOs, pulse wires, Cryptographic Unit,
#: bank register and controller.
CYCLE_MODEL = (
    "src/repro/sim/fifo.py",
    "src/repro/sim/signals.py",
    "src/repro/unit/unit.py",
    "src/repro/unit/bank.py",
    "src/repro/isa/controller.py",
)

#: Names in :data:`CYCLE_MODEL` that the scan finds read only by tests,
#: and why each stays.
READ_BY_TESTS = {
    "total_pushed": "a FIFO count the stepped oracles compare",
    "total_popped": "a FIFO count the stepped oracles compare",
    "high_watermark": "a FIFO count the stepped oracles compare",
    "purge_count": "a FIFO count the stepped oracles compare",
    "bank": "the unit's bank register, caught up: how a test reads it",
    "post_irq": "the controller's interrupt input: no device raises it, tests do",
    "read_port": "read by the translated blocks, whose code is a template string",
    "scratchpad": "read by the translated blocks, whose code is a template string",
    "_preserved_flags": "read by the translated blocks, whose code is a template string",
}


def _read_only_by_tests(root, files):
    """Definitions in *files* that only ``tests/`` reads, as ``path:line name``."""
    anywhere = set(_dead_definitions(root))
    return [
        entry
        for entry in _dead_definitions(root, tuple(tree for tree in TREES if tree != "tests"))
        if entry.partition(":")[0] in files and entry not in anywhere
    ]


def test_no_cycle_model_definition_is_read_only_by_tests():
    found = {entry.rpartition(" ")[2]: entry for entry in _read_only_by_tests(ROOT, CYCLE_MODEL)}
    unlisted = sorted(entry for name, entry in found.items() if name not in READ_BY_TESTS)
    assert unlisted == [], "read only by tests, and not listed:\n" + "\n".join(unlisted)
    # The list holds nothing that something besides the tests reads.
    assert sorted(found) == sorted(READ_BY_TESTS)


# -- the scan's own rules, on a two-file repository ---------------------------

_DEFINED = """\
import atexit

LIMIT = 4


def target():
    pass


class Holder:
    def __init__(self):
        self.level = 0
        self.level += 1

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
        ("", {"LIMIT", "target", "Holder", "reading", "level"}),
        ("from pkg.mod import Holder\nHolder()\ntarget()\n", {"LIMIT", "reading", "level"}),
        ("import pkg.mod\npkg.mod.target\n", {"LIMIT", "Holder", "reading", "level"}),
        ("from pkg.mod import target as alias\n", {"LIMIT", "Holder", "reading", "level"}),
        ("getattr(object, 'target')\n", {"LIMIT", "Holder", "reading", "level"}),
        ("print('target is mentioned in prose')\n",
         {"LIMIT", "target", "Holder", "reading", "level"}),
        ("def use(holder):\n    return holder.reading\n", {"LIMIT", "target", "Holder", "level"}),
        ("def use():\n    return LIMIT\n", {"target", "Holder", "reading", "level"}),
        ("import pkg.mod\nprint(pkg.mod.LIMIT)\n", {"target", "Holder", "reading", "level"}),
        ("LIMIT = 5\nLIMIT += 1\n", {"LIMIT", "target", "Holder", "reading", "level"}),
        ("def use(holder):\n    holder.level = 2\n    return holder.level\n",
         {"LIMIT", "target", "Holder", "reading"}),
        ("def use(holder):\n    holder.level = 2\n    del holder\n",
         {"LIMIT", "target", "Holder", "reading", "level"}),
        ("getattr(object, 'level')\n", {"LIMIT", "target", "Holder", "reading"}),
    ],
    ids=["nothing", "name", "attribute", "import-alias", "string", "prose", "property",
         "module-name-read", "module-name-attribute", "module-name-store",
         "attribute-read", "attribute-store", "attribute-string"],
)
def test_scan_rules(tmp_path, caller, dead):
    """Names that are read, attributes, import aliases and whole strings
    keep a definition; prose and assignments do not.  Dunders and
    registered hooks are kept by themselves; a property is kept only by
    a reader, and a module-level name only by a read.  An attribute
    ``src/`` stores (``level``) is kept by an attribute read or a whole
    string, not by more stores."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(_DEFINED)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_caller.py").write_text(caller)
    found = {entry.rpartition(" ")[2] for entry in _dead_definitions(tmp_path)}
    assert found == dead


def test_a_definition_read_only_by_tests_is_found(tmp_path):
    """In the files held to it, a definition that only ``tests/`` reads
    is reported; one another tree reads, or nothing reads, is not."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "model.py").write_text(
        "def for_src():\n    pass\n\n\ndef for_tests():\n    pass\n\n\ndef unread():\n    pass\n"
    )
    (tmp_path / "src" / "user.py").write_text("from model import for_src\nfor_src()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_model.py").write_text("from model import for_src, for_tests\n")
    found = _read_only_by_tests(tmp_path, ("src/model.py",))
    assert [entry.rpartition(" ")[2] for entry in found] == ["for_tests"]
    assert _read_only_by_tests(tmp_path, ("src/user.py",)) == []


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


@pytest.mark.parametrize(
    "decorator, imports",
    [
        ("@functools.lru_cache(maxsize=4)", "import functools\n"),
        ("@functools.lru_cache", "import functools\n"),
        ("@contextmanager", "from contextlib import contextmanager\n"),
    ],
    ids=["lru_cache-call", "lru_cache", "contextmanager"],
)
def test_a_wrapping_decorator_keeps_nothing_alive(tmp_path, decorator, imports):
    """Only ``atexit.register`` hands a definition to something that
    calls it; an unread cached or context-manager function is dead."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        f"{imports}\n\n{decorator}\ndef unread():\n    yield\n"
    )
    found = {entry.rpartition(" ")[2] for entry in _dead_definitions(tmp_path)}
    assert found == {"unread"}
