"""Circuit breaker for sick execution backends.

PR 6's recovery chain is *reactive*: every dispatch on a failing
backend still pays retries and watchdog budgets before degrading, and
the sticky ``process -> inline`` degradation never comes
back.  The breaker is the *proactive* complement: repeated
infrastructure failures (worker crashes, watchdog fires — anything the
retry loop sees as a :class:`repro.errors.BackendError`) trip it, and
while it is OPEN new spans are routed straight to the backend's
fallback without paying the failure tax.  After a cooldown the breaker
goes HALF_OPEN and lets probe spans through to the sick backend; enough
consecutive probe successes close it again — so a transient sickness
(a briefly overloaded pool) heals, unlike chain degradation.

The two mechanisms compose: the breaker decides *where a span starts*,
the retry/degradation machinery still owns what happens when a span
fails wherever it runs.

Determinism: cooldown is counted in *spans routed around*, not
wall-clock seconds, so a workload replay trips, bypasses and recovers
at exactly the same dispatch indices every run.  State transitions are
lock-guarded.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.resilience import stats as resilience_stats

__all__ = ["BreakerState", "BreakerPolicy", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """The classic three-state breaker lifecycle."""

    #: Healthy: spans run on the owning backend.
    CLOSED = "closed"
    #: Tripped: spans are routed to the fallback without trying.
    OPEN = "open"
    #: Probing: spans run on the owning backend again; one failure
    #: re-opens, enough successes close.
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Budget knobs for one :class:`CircuitBreaker`."""

    #: Consecutive span-level infrastructure failures that trip the
    #: breaker from CLOSED to OPEN.
    fail_threshold: int = 3
    #: Spans routed around the sick backend before the breaker turns
    #: HALF_OPEN and probes it again (span-counted, deterministic).
    cooldown_spans: int = 8
    #: Consecutive successful probe spans needed to close again.
    probe_successes: int = 2

    def __post_init__(self) -> None:
        if self.fail_threshold < 1:
            raise ValueError(
                f"fail_threshold must be >= 1, got {self.fail_threshold}"
            )
        if self.cooldown_spans < 1:
            raise ValueError(
                f"cooldown_spans must be >= 1, got {self.cooldown_spans}"
            )
        if self.probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )


class CircuitBreaker:
    """Mutable breaker state for one backend instance."""

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = BreakerState.CLOSED
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._bypassed_spans = 0
        self._probe_successes = 0
        #: Lifetime statistics (also mirrored into the process-wide
        #: resilience counters for ``WorkloadReport`` deltas).
        self.trips = 0
        self.bypasses = 0
        self.recoveries = 0

    def should_bypass(self) -> bool:
        """Whether the next span must start on the fallback instead.

        Called once per submitted span.  While OPEN it counts the span
        against the cooldown and answers True; the span that exhausts
        the cooldown flips to HALF_OPEN and runs as a probe (False).
        """
        with self._lock:
            if self.state is BreakerState.OPEN:
                if self._bypassed_spans >= self.policy.cooldown_spans:
                    self.state = BreakerState.HALF_OPEN
                    self._probe_successes = 0
                    return False
                self._bypassed_spans += 1
                self.bypasses += 1
                resilience_stats.record_breaker_bypass()
                return True
            return False

    def record_success(self) -> None:
        """A span completed on the owning backend without infra failure."""
        with self._lock:
            self._consecutive_failures = 0
            if self.state is BreakerState.HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.policy.probe_successes:
                    self.state = BreakerState.CLOSED
                    self.recoveries += 1
                    resilience_stats.record_breaker_recovery()

    def record_failure(self) -> None:
        """A span on the owning backend hit an infrastructure failure."""
        with self._lock:
            if self.state is BreakerState.HALF_OPEN:
                # The probe failed: straight back to OPEN for another
                # full cooldown.
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self.state is BreakerState.CLOSED
                and self._consecutive_failures >= self.policy.fail_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self._bypassed_spans = 0
        self._consecutive_failures = 0
        self._probe_successes = 0
        self.trips += 1
        resilience_stats.record_breaker_trip()

    def reset(self) -> None:
        """Back to pristine CLOSED (test/bench isolation)."""
        with self._lock:
            self.state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._bypassed_spans = 0
            self._probe_successes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircuitBreaker {self.state.value} trips={self.trips} "
            f"bypasses={self.bypasses} recoveries={self.recoveries}>"
        )
