"""The environment variables ``src/`` reads, each with its reason.

A knob read from the environment changes what the program does without
any caller saying so.  Each one must earn its place; this test parses
``src/`` and fails when a read appears or disappears without this table
changing with it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every environment variable ``src/`` reads, and why.
ENV_KNOBS = {
    "REPRO_BACKEND": "runs a whole unmodified suite or run on the process pool (CI's backends job)",
    "REPRO_FAULTS": "injects faults into a whole unmodified run, e.g. pytest under a chaos plan",
}


def _environment_reads(tree: ast.AST, path: Path):
    """The variable name of every ``os.environ`` / ``os.getenv`` read."""
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call):
            function = ast.unparse(node.func)
            if function in ("os.environ.get", "os.getenv", "os.environ.setdefault"):
                key = node.args[0] if node.args else None
            else:
                continue
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "os.environ":
            key = node.slice
        else:
            continue
        assert isinstance(key, ast.Constant), f"{path}:{node.lineno}: a non-literal environment read"
        yield key.value


def test_src_reads_exactly_the_listed_environment_variables():
    read = set()
    for path in sorted(SRC.rglob("*.py")):
        read.update(_environment_reads(ast.parse(path.read_text(), str(path)), path))
    assert read == set(ENV_KNOBS)


def test_environment_reads_are_found_in_every_form():
    tree = ast.parse(
        "import os\n"
        "os.environ.get('A', '1')\n"
        "os.getenv('B')\n"
        "os.environ['C']\n"
        "os.environ.setdefault('D', '')\n"
    )
    assert sorted(_environment_reads(tree, Path("example.py"))) == ["A", "B", "C", "D"]
