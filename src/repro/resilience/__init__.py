"""Deterministic fault injection and the recovery machinery it proves.

The MCCP device never lets one bad packet take down a channel — auth
failures come back as an ``AUTH_FAIL`` flag through ``RETRIEVE_DATA``,
not a crash.  This package extends that stance to the software stack
above the device model:

- :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` injects
  faults at named sites (worker crash/hang, poisoned batch call, slow
  sweep, core stall, key-memory read error).  Decisions are pure
  functions of ``(seed, site, key, attempt)`` so a chaos run replays
  identically on every backend and host.
- :mod:`repro.resilience.policy` — :class:`ResiliencePolicy` bounds
  what recovery may cost: retries, backoff and the watchdog budget.
  When the retries run out, the process backend switches to running
  inline for good (``ProcessPoolBackend.inline_reason`` says why).
- :mod:`repro.resilience.stats` — run-scoped counters (retries,
  watchdog fires, degradations, quarantines, dead letters): each
  recovery site adds into every scope open on its thread, so a
  :class:`WorkloadReport` holds its own run's counts and a sweep
  artifact the sum of its cases'.

The invariant everything hangs on: under any injected fault plan,
surviving packets are byte-identical to the fault-free run and
per-channel completion order is preserved.  ``chaos_sweep`` asserts it
over a site × rate × backend grid.
"""

from repro.resilience.faults import (
    SITES,
    FaultDirective,
    FaultPlan,
    FaultPoint,
    ScriptedFault,
    active_plan,
    injected_faults,
    plan_from_spec,
    set_fault_plan,
)
from repro.resilience.policy import DEFAULT_POLICY, ResiliencePolicy
from repro.resilience import stats

__all__ = [
    "SITES",
    "FaultDirective",
    "FaultPlan",
    "FaultPoint",
    "ScriptedFault",
    "active_plan",
    "injected_faults",
    "plan_from_spec",
    "set_fault_plan",
    "DEFAULT_POLICY",
    "ResiliencePolicy",
    "stats",
]
