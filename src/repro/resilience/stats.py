"""Run-scoped resilience counters.

Recovery happens deep inside the backend/batch/scheduler layers, far
from the :class:`WorkloadReport` the caller sees; so does the arena
collect, which tallies the key-schedule expansions its workers
reported.  Each site adds into every counter scope open on the calling
thread, and :func:`counting` opens one for a ``with`` block:
``CommController.run_state`` opens a scope per run, so every count
belongs to the run that produced it.  Nothing is kept outside a scope;
a site with no scope open counts nothing.

Process-pool caveat: events inside a shared-nothing worker land in
the *worker's* scopes (none) and are lost.  The parent-side machinery
still observes every recovery (the retry, watchdog fire, degradation
and quarantine all happen in the parent), so only the best-effort
``faults_injected`` tally undercounts worker-side faults.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: The counters a scope reports, named after the ``WorkloadReport``
#: fields they fill.
COUNTERS = (
    "retries",
    "watchdog_fires",
    "degradations",
    "quarantined",
    "dead_lettered",
    "faults_injected",
    "key_schedule_expansions",
)

_LOCAL = threading.local()


class RunCounters(Counter):
    """One scope's counts plus its degradation reasons, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.degradation_reasons: List[str] = []


def _open_scopes() -> Tuple[RunCounters, ...]:
    return getattr(_LOCAL, "scopes", ())


@contextmanager
def counting() -> Iterator[RunCounters]:
    """Open a counter scope on this thread for a ``with`` block."""
    scope = RunCounters()
    saved = _open_scopes()
    _LOCAL.scopes = saved + (scope,)
    try:
        yield scope
    finally:
        _LOCAL.scopes = saved


def add(name: str, count: int = 1) -> None:
    """Add *count* to counter *name* in every scope open on this thread."""
    for scope in _open_scopes():
        scope[name] += count


def record_degradation(reason: str) -> None:
    """Retries ran out and a backend went inline; *reason* says why."""
    for scope in _open_scopes():
        scope["degradations"] += 1
        scope.degradation_reasons.append(reason)


__all__ = ["COUNTERS", "RunCounters", "counting", "add", "record_degradation"]
