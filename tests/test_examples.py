"""Every example runs as a parametrized smoke test (and in CI).

Examples are documentation that executes; this keeps them from rotting
silently when the APIs they showcase move.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert {path.name for path in EXAMPLES} >= {
        "quickstart.py",
        "multichannel_radio.py",
        "reconfiguration.py",
        "scheduling_policies.py",
    }


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(example):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{example.name} failed\n--- stdout ---\n{result.stdout}"
        f"\n--- stderr ---\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{example.name} printed nothing"
