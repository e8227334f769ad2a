"""Chaos sweep: the fault-injection matrix over the self-healing dataplane.

One case = one (site, rate, backend) cell: the same mixed-standard
radio workload runs twice — once fault-free, once under a seeded
:class:`repro.resilience.FaultPlan` injecting at that site — and the
scenario *hard-fails* (raises :class:`repro.errors.ExperimentError`)
unless the resilience invariant holds:

* every packet of the fault-free run still completes (recovered, or
  routed to a dead-letter queue — never silently lost, never raised);
* surviving packets are byte-identical (payload and tag) to the
  fault-free run;
* per-channel completion order is preserved.

The ``crash_storm`` site scripts a worker crash on *every* attempt, so
the case can only complete by the process backend going inline; the
scenario additionally asserts that degradation was recorded.  The
recovery counters (retries, degradations, watchdog
fires) depend on pool scheduling and on whether the harness itself
runs the case in a daemonic sweep worker, so they are declared timing
metrics; the invariant bools are the deterministic gate CI compares.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.fast.exec import ResiliencePolicy, make_backend
from repro.errors import ExperimentError
from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan

#: Injection sites the grid covers.  ``none`` is the control leg;
#: ``crash_storm`` scripts a crash on every attempt (the degradation
#: chain's worst case, distinct from rate-based ``worker_crash``).
CHAOS_SITES = (
    "none",
    "worker_crash",
    "worker_hang",
    "batch_error",
    "slow_sweep",
    "key_error",
    "core_stall",
    "crash_storm",
)

#: Wall-clock watchdog for the hang leg (the injected hang sleeps
#: longer than this, so the watchdog — not patience — must recover).
_WATCHDOG_SECONDS = 0.1
_HANG_SECONDS = 0.3


def _configs(quick: bool) -> List[ChannelConfig]:
    """Three mixed-standard channels with rx traffic and corruption."""
    packets = 16 if quick else 36
    configs = []
    for index, standard in enumerate(
        (RadioStandard.WIFI, RadioStandard.SATCOM, RadioStandard.WIMAX)
    ):
        key_bytes = 32 if standard is RadioStandard.SATCOM else 16
        configs.append(
            ChannelConfig(
                standard,
                deterministic_bytes(key_bytes, 41 + index),
                TrafficPattern.SATURATING,
                packets=packets,
                rx_fraction=0.4,
                corrupt_rate=0.2,
            )
        )
    return configs


def _plan(site: str, rate: float, seed: int) -> Optional[FaultPlan]:
    """The fault plan for one grid cell (None for the control leg)."""
    if site == "none":
        return None
    if site == "crash_storm":
        return FaultPlan(
            seed=seed, scripted=(ScriptedFault("worker_crash", times=10**9),)
        )
    return FaultPlan(
        seed=seed,
        rates={site: rate},
        hang_seconds=_HANG_SECONDS,
        slow_seconds=0.002,
        stall_cycles=4096,
    )


def _run_cell(configs, seed, plan, backend, dataplane):
    """One workload run under *plan*; returns (report, transfers, order)."""
    previous = set_fault_plan(plan)
    try:
        platform = SdrPlatform(core_count=4, seed=seed)
        report = platform.run_workload(
            WorkloadSpec(
                configs,
                dataplane=dataplane,
                flush_policy=FlushPolicy(coalesce_limit=32, flush_deadline=8192),
                backend=backend,
            )
        )
        transfers: Dict[Tuple[int, int], Tuple[bytes, Optional[bytes], bool]] = {}
        order: Dict[int, List[int]] = {}
        for transfer in platform.comm.completed.values():
            transfers[(transfer.channel_id, transfer.sequence)] = (
                transfer.payload,
                transfer.tag,
                transfer.ok,
            )
            order.setdefault(transfer.channel_id, []).append(transfer.sequence)
        return report, transfers, order
    finally:
        set_fault_plan(previous)


def _check_invariant(site, baseline, faulted, base_order, fault_order):
    """Raise :class:`ExperimentError` unless survivors match baseline."""
    if set(faulted) != set(baseline):
        lost = sorted(set(baseline) - set(faulted))
        raise ExperimentError(
            f"chaos[{site}]: completion sets differ (lost {lost[:8]})"
        )
    if fault_order != base_order:
        raise ExperimentError(
            f"chaos[{site}]: per-channel completion order changed"
        )
    for key, (payload, tag, ok) in faulted.items():
        if not ok:
            continue  # dead-lettered or (baseline-shared) auth failure
        base_payload, base_tag, base_ok = baseline[key]
        if not base_ok or payload != base_payload or tag != base_tag:
            raise ExperimentError(
                f"chaos[{site}]: survivor {key} differs from fault-free run"
            )


@register(
    name="chaos_sweep",
    title="Fault-injection chaos matrix: site x rate x backend",
    description="The same mixed-standard radio workload fault-free and "
    "under seeded injection at each site; hard-fails unless survivors "
    "are byte-identical, completion order is preserved, and the "
    "crash-storm leg completes via backend degradation.",
    grid={
        "site": list(CHAOS_SITES),
        "rate": [0.25],
        "backend": ["process"],
    },
    quick_grid={
        "site": ["none", "worker_crash", "batch_error", "crash_storm"],
        "rate": [0.3],
        "backend": ["process"],
    },
    tags=("resilience", "chaos", "radio"),
    timing_metrics=(
        "retries",
        "degradations",
        "watchdog_fires",
        "faults_injected",
        "total_cycles",
    ),
)
def chaos_sweep(params, seed, quick):
    """One chaos cell: run, compare against fault-free, count recovery."""
    site = params["site"]
    configs = _configs(quick)
    dataplane = "cores" if site == "core_stall" else "batched"
    plan = _plan(site, params["rate"], seed)

    _, baseline, base_order = _run_cell(configs, seed, None, None, dataplane)
    # Pin two workers: on a 1-CPU host the default worker count
    # collapses to 1 and the sharded path (the injection surface)
    # would never engage, silently shrinking the matrix.
    backend = make_backend(f"{params['backend']}:2")
    backend.resilience = ResiliencePolicy(
        max_retries=2,
        backoff_base=0.0,
        backoff_cap=0.0,
        watchdog_seconds=_WATCHDOG_SECONDS if site == "worker_hang" else None,
    )
    try:
        report, faulted, fault_order = _run_cell(
            configs, seed, plan, backend, dataplane
        )
    finally:
        backend.close()

    _check_invariant(site, baseline, faulted, base_order, fault_order)
    # A backend that went inline before the storm (daemonic sweep
    # worker, no pool) runs everything where worker crashes are inert,
    # so the degradation assertion only applies when a pool existed:
    # running out of retries always records a degradation.
    if (
        site == "crash_storm"
        and report.degradations < 1
        and backend.inline_reason is None
    ):
        raise ExperimentError(
            "chaos[crash_storm]: completed without recording a backend "
            "degradation — the storm should be unsurvivable in place"
        )
    return {
        "survivors_identical": True,
        "order_preserved": True,
        "completed": len(faulted) == len(baseline),
        "quarantined": report.quarantined,
        "dead_lettered": report.dead_lettered,
        "retries": report.retries,
        "degradations": report.degradations,
        "watchdog_fires": report.watchdog_fires,
        "faults_injected": report.faults_injected,
        "total_cycles": report.total_cycles,
    }
