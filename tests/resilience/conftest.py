"""Isolation for the fault-injection tests.

Every test starts with no active fault plan, cannot leak one into the
rest of the suite, and runs in its own counter scope; a test that
reads the recovery counters requests the scope as ``counters``.
"""

from __future__ import annotations

import pytest

from repro.resilience import set_fault_plan, stats


@pytest.fixture(autouse=True)
def counters():
    set_fault_plan(None)
    with stats.counting() as scope:
        yield scope
    set_fault_plan(None)
