"""Process-wide resilience counters.

Recovery happens deep inside the backend/batch/scheduler layers, far
from the :class:`WorkloadReport` the caller sees, so the machinery
records events here and ``run_workload`` turns a before/after snapshot
into per-run counters.  Counters are cumulative for the process (like
the channel statistics the platform already snapshots) and guarded by
a lock so callers on several threads count exactly.

Process-pool caveat: events inside a shared-nothing worker mutate the
*worker's* counters and are lost with it.  The parent-side machinery
still observes every recovery (the retry, watchdog fire, degradation
and quarantine all happen in the parent), so only the best-effort
``faults_injected`` tally undercounts worker-side faults.
"""

from __future__ import annotations

import threading
from typing import Dict, List

_LOCK = threading.Lock()

_COUNTERS = {
    "retries": 0,
    "watchdog_fires": 0,
    "degradations": 0,
    "quarantined": 0,
    "dead_lettered": 0,
    "faults_injected": 0,
}

#: Degradation reasons in the order they were recorded (process-wide).
_DEGRADATION_REASONS: List[str] = []


def _bump(name: str, count: int = 1) -> None:
    with _LOCK:
        _COUNTERS[name] += count


def record_retry(count: int = 1) -> None:
    """A failed span (or key fetch) was retried."""
    _bump("retries", count)


def record_watchdog() -> None:
    """A wall-clock watchdog expired a backend span."""
    _bump("watchdog_fires")


def record_degradation(reason: str) -> None:
    """Retries ran out and a backend went inline; *reason* says why."""
    with _LOCK:
        _COUNTERS["degradations"] += 1
        _DEGRADATION_REASONS.append(reason)


def record_quarantine(count: int = 1) -> None:
    """A poisoned packet was bisect-isolated from its batch."""
    _bump("quarantined", count)


def record_dead_letter(count: int = 1) -> None:
    """A job was routed to a dead-letter queue."""
    _bump("dead_lettered", count)


def record_fault(count: int = 1) -> None:
    """An injected fault fired (best-effort across process workers)."""
    _bump("faults_injected", count)



def snapshot() -> Dict[str, object]:
    """JSON-safe copy of the counters (plus degradation reasons)."""
    with _LOCK:
        data: Dict[str, object] = dict(_COUNTERS)
        data["degradation_reasons"] = list(_DEGRADATION_REASONS)
        return data


def delta(base: Dict[str, object]) -> Dict[str, object]:
    """Counters accrued since *base* (an earlier :func:`snapshot`)."""
    now = snapshot()
    out: Dict[str, object] = {
        name: now[name] - base.get(name, 0) for name in _COUNTERS
    }
    seen = len(base.get("degradation_reasons", ()))
    out["degradation_reasons"] = list(now["degradation_reasons"])[seen:]
    return out


def reset() -> None:
    """Zero every counter (test isolation hook)."""
    with _LOCK:
        for name in _COUNTERS:
            _COUNTERS[name] = 0
        _DEGRADATION_REASONS.clear()


__all__ = [
    "record_retry",
    "record_watchdog",
    "record_degradation",
    "record_quarantine",
    "record_dead_letter",
    "record_fault",
    "snapshot",
    "delta",
    "reset",
]
