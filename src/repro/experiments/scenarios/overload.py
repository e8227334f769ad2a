"""Overload sweep: admission control and load shedding under pressure.

One case = one (arrival, capacity, backend) cell: a three-class
mixed-standard workload (control > interactive > bulk priorities)
offered at a sustained multiple of what four cores can drain, replayed
four ways — unthrottled (the byte baseline), throttled on the batched
and pipelined dataplanes, and throttled again for the repeat-identity
check.  The scenario *hard-fails* (raises
:class:`repro.errors.ExperimentError`) unless the overload invariant
holds:

* the run completes with every bounded queue at or under its high
  watermark (no unbounded growth);
* shed packets are accounted **only** as shed — never as auth failures
  and never as dead letters, and ``packets_done + shed`` covers every
  transmit packet offered;
* the shed set (exact ``(channel, sequence)`` pairs) is identical
  across repeated runs and across the batched and pipelined
  dataplanes;
* every *admitted* packet is byte-identical (payload and tag) to the
  same packet in the unthrottled run, and per-channel completion order
  is the unthrottled order filtered to the admitted set;
* the :class:`repro.analysis.throughput.SlaSpec` holds: control-class
  traffic keeps its p99 budget with zero drops while bulk absorbs the
  shedding.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.throughput import ClassSla, SlaSpec, WorkloadReport
from repro.errors import ExperimentError
from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.channel import FlushPolicy
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

#: Arrival processes the grid covers (saturating is the >= 4x
#: sustained-overload leg; poisson/bursty modulate the pressure).
ARRIVALS = ("saturating", "poisson", "bursty")

#: The asserted service level: control keeps a generous-but-finite p99
#: and never drops; bulk has no latency budget (it absorbs the
#: shedding) but must still complete something.
OVERLOAD_SLA = SlaSpec(
    classes={
        0: ClassSla(p99_us=5_000.0, max_drop_fraction=0.0, min_completed=1),
        2: ClassSla(min_completed=1),
    },
    max_auth_failures=0,
    max_dead_lettered=0,
)


def _configs(arrival: str, packets: int) -> List[ChannelConfig]:
    """Three priority classes on three standards, one channel each."""
    pattern = TrafficPattern(arrival)
    return [
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE,
            deterministic_bytes(16, 71),
            pattern,
            packets=packets,
            priority=0,
        ),
        ChannelConfig(
            RadioStandard.WIFI,
            deterministic_bytes(16, 72),
            pattern,
            packets=packets,
            priority=1,
        ),
        ChannelConfig(
            RadioStandard.SATCOM,
            deterministic_bytes(32, 73),
            pattern,
            packets=packets,
            priority=2,
        ),
    ]


def _spec(
    configs: List[ChannelConfig],
    capacity: Optional[int],
    backend: Optional[str],
    dataplane: str,
) -> WorkloadSpec:
    return WorkloadSpec(
        configs,
        dataplane=dataplane,
        backend=backend,
        flush_policy=FlushPolicy(coalesce_limit=4, flush_deadline=4096),
        queue_capacity=capacity,
        admission=(
            None
            if capacity is None
            else AdmissionPolicy(defer_cycles=400, max_defers=64)
        ),
    )


def _transfers(
    platform: SdrPlatform,
) -> Tuple[Dict[Tuple[int, int], Tuple[bytes, Optional[bytes]]], Dict[int, List[int]]]:
    """(channel, sequence) -> (payload, tag) plus per-channel order."""
    transfers: Dict[Tuple[int, int], Tuple[bytes, Optional[bytes]]] = {}
    order: Dict[int, List[int]] = {}
    for transfer in platform.comm.completed.values():
        transfers[(transfer.channel_id, transfer.sequence)] = (
            transfer.payload,
            transfer.tag,
        )
        order.setdefault(transfer.channel_id, []).append(transfer.sequence)
    return transfers, order


def run_overload_cell(
    arrival: str,
    capacity: int,
    backend: Optional[str],
    seed: int,
    packets: int = 40,
) -> Dict[str, object]:
    """One grid cell: baseline + two throttled dataplanes + invariants.

    Raises :class:`ExperimentError` on any violated invariant; returns
    the cell's metrics otherwise.  Shared with
    ``benchmarks/gate_overload.py`` so the CI gate and the sweep can
    never disagree about what the invariant is.
    """
    configs = _configs(arrival, packets)
    offered = len(configs) * packets

    base_platform = SdrPlatform(core_count=4, seed=seed)
    base_report = base_platform.run_workload(
        _spec(configs, None, None, "batched")
    )
    base_bytes, base_order = _transfers(base_platform)

    reports: Dict[str, WorkloadReport] = {}
    throttled: Dict[str, Tuple[Dict, Dict]] = {}
    spec = _spec(configs, capacity, backend, "batched")
    for dataplane in ("batched", "pipelined"):
        platform = SdrPlatform(core_count=4, seed=seed)
        report = platform.run_workload(replace(spec, dataplane=dataplane))
        reports[dataplane] = report
        throttled[dataplane] = _transfers(platform)
    repeat = SdrPlatform(core_count=4, seed=seed).run_workload(spec)

    label = f"overload[{arrival},cap={capacity},{backend}]"
    report = reports["batched"]

    # -- shed is its own budget: never auth failures or dead letters --
    for name, rep in reports.items():
        if rep.auth_failures or rep.dead_lettered:
            raise ExperimentError(
                f"{label}: {name} counted shed traffic elsewhere "
                f"(auth_failures={rep.auth_failures}, "
                f"dead_lettered={rep.dead_lettered})"
            )
        if rep.packets_done + rep.shed != offered:
            raise ExperimentError(
                f"{label}: {name} lost packets silently "
                f"({rep.packets_done} done + {rep.shed} shed != "
                f"{offered} offered)"
            )
        if rep.queue_peak() > capacity:
            raise ExperimentError(
                f"{label}: {name} queue grew past its watermark "
                f"({rep.queue_peak()} > {capacity})"
            )

    # -- shed set identical across dataplanes and repeats --------------
    if reports["batched"].shed_packets != reports["pipelined"].shed_packets:
        raise ExperimentError(
            f"{label}: shed sets differ between batched and pipelined"
        )
    if repeat.shed_packets != report.shed_packets:
        raise ExperimentError(f"{label}: shed set not reproducible")

    # -- admitted packets byte-identical to the unthrottled run --------
    shed_set = set(report.shed_packets)
    for name, (got_bytes, got_order) in throttled.items():
        for key, (payload, tag) in got_bytes.items():
            if key not in base_bytes:
                raise ExperimentError(
                    f"{label}: {name} completed unknown packet {key}"
                )
            if (payload, tag) != base_bytes[key]:
                raise ExperimentError(
                    f"{label}: {name} packet {key} differs from the "
                    "unthrottled bytes"
                )
        for channel_id, base_seq in base_order.items():
            expected = [
                s for s in base_seq if (channel_id, s) not in shed_set
            ]
            if got_order.get(channel_id, []) != expected:
                raise ExperimentError(
                    f"{label}: {name} channel {channel_id} completion "
                    "order is not the unthrottled order minus the shed"
                )

    # -- the SLA: control protected, bulk absorbs ----------------------
    violations = report.check_sla(OVERLOAD_SLA)
    if violations:
        raise ExperimentError(f"{label}: SLA broken: {violations}")
    if report.shed and report.shed_by_class.get(0, 0):
        raise ExperimentError(
            f"{label}: control-class traffic was shed "
            f"({report.shed_by_class})"
        )

    overload_factor = (
        base_report.total_cycles / report.total_cycles
        if report.total_cycles
        else 0.0
    )
    return {
        "offered": offered,
        "admitted": report.packets_done,
        "shed": report.shed,
        "shed_bulk": report.shed_by_class.get(2, 0),
        "shed_interactive": report.shed_by_class.get(1, 0),
        "shed_control": report.shed_by_class.get(0, 0),
        "deferrals": report.deferrals,
        "backpressure_signals": report.backpressure_signals,
        "queue_peak": report.queue_peak(),
        "shed_identical": True,
        "bytes_identical": True,
        "order_preserved": True,
        "sla_holds": True,
        "control_p99_us": round(report.class_percentile_us(0, 0.99), 3),
        "bulk_drop_fraction": round(report.drop_fraction(2), 6),
        "total_cycles": report.total_cycles,
        "baseline_cycles": base_report.total_cycles,
        "overload_factor": round(overload_factor, 3),
    }


@register(
    name="overload_sweep",
    title="Overload protection: arrival x capacity x backend",
    description="A three-class workload offered over capacity on bounded "
    "channels, throttled by admission control; hard-fails unless shed "
    "packets stay out of the auth-failure and dead-letter budgets, the "
    "shed set reproduces across dataplanes and repeats, admitted "
    "packets match the unthrottled bytes and order, and the SLA holds "
    "(control protected, bulk absorbs the shedding).",
    grid={
        "arrival": list(ARRIVALS),
        "capacity": [4, 8],
        "backend": ["inline", "process"],
    },
    quick_grid={
        "arrival": ["saturating", "bursty"],
        "capacity": [4],
        "backend": ["inline", "process"],
    },
    tags=("overload", "admission", "sla", "radio"),
    timing_metrics=("total_cycles", "baseline_cycles", "overload_factor"),
)
def overload_sweep(params, seed, quick):
    """One overload cell (see :func:`run_overload_cell`)."""
    return run_overload_cell(
        params["arrival"],
        params["capacity"],
        params["backend"],
        seed,
        packets=24 if quick else 40,
    )
