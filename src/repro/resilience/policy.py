"""Recovery budgets for :meth:`ExecutionBackend.run`.

A policy bounds what self-healing may cost: how many times a failed
span is retried, how backoff grows, and how long a span may run before
the watchdog expires it.  The default policy keeps healthy runs
untouched — no watchdog, backoff only ever sleeps after a genuine
infrastructure failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ResiliencePolicy:
    """Bounds on the recovery machinery for one backend run."""

    #: Retries per execution level after the first attempt fails with
    #: a :class:`BackendError` (crypto errors never retry).
    max_retries: int = 2
    #: First backoff sleep in seconds; doubles per attempt.  Zero
    #: disables sleeping entirely (tests, chaos sweeps).
    backoff_base: float = 0.005
    #: Backoff ceiling in seconds.
    backoff_cap: float = 0.1
    #: Wall-clock budget for one span on a pooled backend (None = no
    #: watchdog).  Inline execution cannot be preempted, so the
    #: watchdog only applies where there is a pool to abandon.
    watchdog_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be >= 0")
        if self.watchdog_seconds is not None and self.watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive (or None)")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt + 1`` (exponential)."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2**attempt))


#: Module default: retries allowed, no watchdog.
DEFAULT_POLICY = ResiliencePolicy()

__all__ = ["ResiliencePolicy", "DEFAULT_POLICY"]
