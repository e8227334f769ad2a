"""Seeded, deterministic fault plans and their injection sites.

A :class:`FaultPlan` decides — purely from ``(seed, site, key,
attempt)`` — whether a named fault fires at a given site, the same way
the PR 5 rx generator derives loss/corruption from ``(seed, channel,
sequence)``.  Rate-based decisions hash the tuple through SHA-256 and
compare against the configured rate; scripted faults pin an exact
``(site, channel, sequence)`` and fire for their first ``times``
attempts at each execution level.  Either way the decision is
independent of wall clock, host, and backend, so a chaos run replays
identically everywhere.

Sites
-----
``worker_crash``
    A backend pool worker dies mid-span.  In a real process-pool child
    the worker hard-exits (producing a genuine ``BrokenProcessPool``);
    outside a pool worker it raises :class:`WorkerCrashError`.  The
    inline backend (and a process backend in its inline state) has no
    worker to crash, so the site is inert there — inline is the safe
    harbour a crash storm ends in.
``worker_hang``
    The span sleeps :attr:`FaultPlan.hang_seconds`, long enough to trip
    a configured watchdog.
``batch_error``
    A packet is poisoned: the batch engine raises
    :class:`InjectedFault` whenever the packet's nonce appears in a
    sweep, which the isolate path bisects down to the single packet.
``slow_sweep``
    The span sleeps :attr:`FaultPlan.slow_seconds` — slow, not broken;
    recovery must not fire.
``core_stall``
    The cycle-accurate core path stalls :attr:`FaultPlan.stall_cycles`
    simulated cycles before executing a job.
``key_error``
    ``Mccp.dispatch_jobs_async``'s key-memory read raises; the scheduler
    retries and, on exhaustion, dead-letters the whole batch.

Worker-side delivery: the batch layer attaches a :class:`FaultPoint`
to each shard call; the executing backend stamps the current attempt
number and its own name into a :class:`FaultDirective`, which ships
the (picklable) plan into the worker and applies the worker-level
sites there.  Keying decisions by attempt is what makes retry
meaningful — a transient fault re-rolls on the next attempt instead of
re-firing forever.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.errors import WorkerCrashError
from repro.resilience import stats

#: Every named injection site, in stack order (backend -> batch ->
#: scheduler -> core).
SITES = (
    "worker_crash",
    "worker_hang",
    "batch_error",
    "slow_sweep",
    "core_stall",
    "key_error",
)

#: Exit code an injected crash kills a pool worker with (arbitrary,
#: but recognisable in a post-mortem).
CRASH_EXIT_CODE = 113

#: True only inside a repro-exec process-pool worker (set by the pool
#: initializer).  An injected crash hard-exits there — producing a
#: genuine BrokenProcessPool for the parent to recover from — and
#: raises WorkerCrashError anywhere else, so it can never kill the
#: test runner or an outer pool worker.
_IS_EXEC_WORKER = False


def mark_exec_worker() -> None:
    """Flag this process as a repro-exec pool worker (initializer hook)."""
    global _IS_EXEC_WORKER
    _IS_EXEC_WORKER = True


def _key_text(key: object) -> str:
    """Stable text form of a decision key (ints, bytes, strings)."""
    parts = key if isinstance(key, tuple) else (key,)
    return ":".join(
        part.hex() if isinstance(part, (bytes, bytearray)) else str(part)
        for part in parts
    )


@dataclass(frozen=True)
class ScriptedFault:
    """Pin a fault to an exact site and, optionally, packet identity.

    ``channel``/``sequence`` of ``None`` are wildcards; ``times``
    bounds how many *attempts* fire at each execution level (a
    persistent fault uses a large ``times`` and is only survivable
    because the process backend ends up inline, where worker faults
    are inert).
    """

    site: str
    channel: Optional[int] = None
    sequence: Optional[int] = None
    times: int = 1

    def matches(self, key: object) -> bool:
        if self.channel is None and self.sequence is None:
            return True
        if (
            isinstance(key, tuple)
            and len(key) == 2
            and all(isinstance(part, int) for part in key)
        ):
            channel, sequence = key
            return (self.channel is None or self.channel == channel) and (
                self.sequence is None or self.sequence == sequence
            )
        return False


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    ``rates`` maps site name to a probability in ``[0, 1]``; decisions
    hash ``(seed, site, key, attempt)`` so they are stable across
    backends, processes and replays.  ``scripted`` entries take
    precedence over rates for their site.  The plan is picklable —
    backends ship it into process-pool workers inside each
    :class:`FaultDirective`.
    """

    seed: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    scripted: Tuple[ScriptedFault, ...] = ()
    #: How long an injected hang sleeps (must exceed the watchdog
    #: budget for the hang to be observable as a timeout).
    hang_seconds: float = 0.4
    #: How long a slow sweep sleeps (small: slow, not broken).
    slow_seconds: float = 0.002
    #: Simulated cycles an injected core stall costs.
    stall_cycles: int = 4096
    #: Nonces marked poisoned by the scheduler; membership is what the
    #: batch engine actually checks, so the decision crosses process
    #: boundaries with the plan.
    poisoned: Set[bytes] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.scripted = tuple(self.scripted)
        for entry in self.scripted:
            if entry.site not in SITES:
                raise ValueError(
                    f"unknown fault site {entry.site!r}; valid: {', '.join(SITES)}"
                )
        for site, rate in self.rates.items():
            if site not in SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; valid: {', '.join(SITES)}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate for {site!r} must be within [0, 1]")
        if self.hang_seconds < 0 or self.slow_seconds < 0 or self.stall_cycles < 0:
            raise ValueError("fault durations must be >= 0")

    def decide(self, site: str, key: object, attempt: int = 0) -> bool:
        """Does *site* fire for *key* on this *attempt*?  Pure function."""
        for entry in self.scripted:
            if entry.site == site and entry.matches(key):
                return attempt < entry.times
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        text = f"{self.seed}|{site}|{_key_text(key)}|{attempt}"
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < rate

    def poison(self, nonce: bytes) -> None:
        """Mark a packet (by nonce) as a batch-call error."""
        self.poisoned.add(bytes(nonce))

    def is_poisoned(self, nonce: bytes) -> bool:
        return bytes(nonce) in self.poisoned


@dataclass(frozen=True)
class FaultPoint:
    """Parent-side marker attached to one backend call.

    The backend cannot know the attempt number (or whether it will run
    the call inline) until run time, so the batch layer
    attaches the plan and span key here and the backend stamps the
    rest into a :class:`FaultDirective` at submission.
    """

    plan: FaultPlan
    key: tuple

    def directive(self, attempt: int, backend_name: str) -> "FaultDirective":
        return FaultDirective(self.plan, self.key, attempt, backend_name)


@dataclass(frozen=True)
class FaultDirective:
    """Everything a worker needs to apply worker-level faults locally."""

    plan: FaultPlan
    key: tuple
    attempt: int
    backend_name: str

    def apply(self) -> None:
        """Fire whichever worker-level sites the plan selects (if any)."""
        plan, key, attempt = self.plan, self.key, self.attempt
        if self.backend_name != "inline" and plan.decide(
            "worker_crash", key, attempt
        ):
            stats.add("faults_injected")
            if _IS_EXEC_WORKER:
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(
                f"injected worker crash (span {_key_text(key)}, "
                f"attempt {attempt} on {self.backend_name})"
            )
        if plan.decide("worker_hang", key, attempt):
            stats.add("faults_injected")
            time.sleep(plan.hang_seconds)
        elif plan.decide("slow_sweep", key, attempt):
            stats.add("faults_injected")
            time.sleep(plan.slow_seconds)


@contextmanager
def executing(directive: Optional[FaultDirective]) -> Iterator[None]:
    """Worker-side guard around one sharded span.

    Installs the directive's plan thread-locally (so nonce-poison
    checks fire identically in shared-nothing process workers) and
    applies the worker-level sites before the span body runs.
    """
    if directive is None:
        yield
        return
    previous = getattr(_SCOPED, "plan", None)
    _SCOPED.plan = directive.plan
    try:
        directive.apply()
        yield
    finally:
        _SCOPED.plan = previous


# -- active-plan management ---------------------------------------------------

#: Sentinel: the global plan has not been initialised from REPRO_FAULTS.
_UNSET = object()

_ACTIVE: object = _UNSET
_SCOPED = threading.local()


def plan_from_spec(text: str) -> Optional[FaultPlan]:
    """Parse a ``REPRO_FAULTS`` spec into a plan (empty text = None).

    Comma-separated ``key=value`` pairs: each site name maps to a rate
    (``worker_crash=0.2,batch_error=0.1``) and ``seed=N``, ``hang=S``,
    ``slow=S``, ``stall=C`` tune the plan's knobs.
    """
    text = (text or "").strip()
    if not text:
        return None
    seed, rates = 0, {}
    knobs = {"hang": 0.4, "slow": 0.002, "stall": 4096}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip().lower()
        if name not in ("seed", "stall", "hang", "slow") and name not in SITES:
            raise ValueError(
                f"unknown REPRO_FAULTS key {name!r} (in token {part!r}); "
                f"valid sites: {', '.join(SITES)}; "
                "valid knobs: seed, hang, slow, stall"
            )
        try:
            if name in ("seed", "stall"):
                knobs[name] = int(value)
            elif name in ("hang", "slow"):
                knobs[name] = float(value)
            else:
                rates[name] = float(value)
        except ValueError:
            raise ValueError(
                f"bad REPRO_FAULTS value {value!r} in token {part!r}; "
                f"sites ({', '.join(SITES)}) and hang/slow take a float, "
                "seed/stall take an int — e.g. "
                "'worker_crash=0.2,batch_error=0.1,seed=7'"
            ) from None
        seed = knobs.get("seed", 0)
    return FaultPlan(
        seed=seed,
        rates=rates,
        hang_seconds=knobs["hang"],
        slow_seconds=knobs["slow"],
        stall_cycles=knobs["stall"],
    )


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect on this thread (None = no fault injection).

    A worker-scoped plan (installed by :func:`executing`) wins over the
    process-wide plan; the process-wide plan is lazily seeded from
    ``REPRO_FAULTS`` the first time anything asks.
    """
    scoped = getattr(_SCOPED, "plan", None)
    if scoped is not None:
        return scoped
    global _ACTIVE
    if _ACTIVE is _UNSET:
        _ACTIVE = plan_from_spec(os.environ.get("REPRO_FAULTS", ""))
    return _ACTIVE  # type: ignore[return-value]


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install the process-wide plan; returns the previous one.

    ``None`` uninstalls it, so the next :func:`active_plan` call
    re-reads ``REPRO_FAULTS`` (mirrors ``set_default_backend``).
    """
    global _ACTIVE
    previous = None if _ACTIVE is _UNSET else _ACTIVE
    _ACTIVE = _UNSET if plan is None else plan
    return previous  # type: ignore[return-value]


@contextmanager
def injected_faults(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope a plan to a ``with`` block, restoring the prior state."""
    global _ACTIVE
    saved = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = saved


__all__ = [
    "SITES",
    "CRASH_EXIT_CODE",
    "ScriptedFault",
    "FaultPlan",
    "FaultPoint",
    "FaultDirective",
    "executing",
    "mark_exec_worker",
    "plan_from_spec",
    "active_plan",
    "set_fault_plan",
    "injected_faults",
]
