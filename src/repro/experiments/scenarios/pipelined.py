"""The pipelined (async submit/reap) dataplane as a sweepable scenario.

Runs the same multi-channel radio workload twice — once on the
synchronous batched dataplane, once pipelined
(``WorkloadSpec(dataplane="pipelined")`` → ``Mccp.dispatch_jobs_async``
→ per-channel in-flight queues) — and pins the async path's determinism
contract: payloads, tags, per-channel fan-out order, completion-cycle
stamps and the final simulated time must be byte-identical to the
synchronous run.  The digest equality is deterministic (a baseline
comparison fails hard on it); the wall-clock seconds and the derived
overlap speedup are timing metrics, so drift warns.  CI's dedicated
warn-level pipelined check lives in ``benchmarks/gate_backends.py``;
this scenario records the same invariant across a backend x depth x
channel-count grid inside every sweep artifact.
"""

from __future__ import annotations

import hashlib
import time

from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

#: CCM-heavy rotation with a GCM lane, like the ``radio_batch`` sweep.
_ROTATION = (
    (RadioStandard.WIFI, TrafficPattern.SATURATING),
    (RadioStandard.WIMAX, TrafficPattern.SATURATING),
    (RadioStandard.SATCOM, TrafficPattern.BURSTY),
    (RadioStandard.TACTICAL_VOICE, TrafficPattern.CBR),
)


def _configs(channels: int, packets: int, seed: int):
    configs = []
    for index in range(channels):
        standard, pattern = _ROTATION[index % len(_ROTATION)]
        key_bytes = 32 if standard is RadioStandard.SATCOM else 16
        configs.append(
            ChannelConfig(
                standard,
                deterministic_bytes(key_bytes, seed + index),
                pattern,
                packets=packets,
            )
        )
    return configs


def _run(spec_kwargs: dict, seed: int):
    """One workload run: (report, transcript digest, wall seconds)."""
    platform = SdrPlatform(core_count=4, seed=seed)
    start = time.perf_counter()
    report = platform.run_workload(WorkloadSpec(**spec_kwargs))
    wall = time.perf_counter() - start
    digest = hashlib.sha256()
    # Group fan-out order per channel: the determinism contract is
    # in-order delivery *within* each channel (cross-channel
    # interleaving may legally shift when reaps are deferred), so the
    # digest walks each channel's transfers in the order they were
    # fanned out, channels in id order.
    per_channel: dict = {}
    for transfer in platform.comm.completed.values():
        per_channel.setdefault(transfer.channel_id, []).append(transfer)
    for channel_id in sorted(per_channel):
        for transfer in per_channel[channel_id]:
            digest.update(
                f"{channel_id}:{transfer.sequence}:{transfer.ok}:".encode()
            )
            digest.update(transfer.payload)
            digest.update(transfer.tag or b"")
            if transfer.job is not None:
                digest.update(str(transfer.job.completed_cycle).encode())
    digest.update(str(report.total_cycles).encode())
    return report, digest.hexdigest()[:32], wall


@register(
    name="pipelined_dataplane",
    title="Pipelined dataplane: async submit/reap vs synchronous batched",
    description="Multi-channel CCM/GCM radio traffic through the async "
    "submit/reap dataplane, swept over backend, pipeline depth and "
    "channel count; the transcript digest (bytes, per-channel order, "
    "cycle stamps, total cycles) must equal the synchronous batched "
    "run's, while wall-clock overlap is a timing metric.",
    grid={
        "backend": ["inline", "process"],
        "depth": [1, 2, 4],
        "channels": [2, 4],
    },
    quick_grid={"backend": ["process"], "depth": [2], "channels": [4]},
    tags=("radio", "dataplane", "pipeline", "timing"),
    timing_metrics=(
        "batched_seconds",
        "pipelined_seconds",
        "wall_speedup",
    ),
)
def pipelined_dataplane(params, seed, quick):
    """One grid point: batched vs pipelined, digest-equal, timed."""
    packets = 8 if quick else 24
    common = {
        "configs": tuple(_configs(params["channels"], packets, seed)),
        "flush_policy": FlushPolicy(coalesce_limit=8, flush_deadline=4096),
        "backend": params["backend"],
        "rx_fraction": 0.3,
        "corrupt_rate": 0.1,
    }
    batched_report, batched_digest, batched_wall = _run(
        {**common, "dataplane": "batched"}, seed
    )
    piped_report, piped_digest, piped_wall = _run(
        {
            **common,
            "dataplane": "pipelined",
            "pipeline_depth": params["depth"],
        },
        seed,
    )
    return {
        "packets_done": piped_report.packets_done,
        "payload_bytes": piped_report.payload_bytes,
        "total_cycles": piped_report.total_cycles,
        "auth_failures": piped_report.auth_failures,
        "batches": piped_report.batches,
        "pipeline_in_flight_peak": piped_report.pipeline_in_flight_peak,
        "digests_match": piped_digest == batched_digest,
        "cycles_match": piped_report.total_cycles
        == batched_report.total_cycles,
        "output_digest": piped_digest,
        "batched_seconds": round(batched_wall, 4),
        "pipelined_seconds": round(piped_wall, 4),
        "wall_speedup": round(batched_wall / piped_wall, 3)
        if piped_wall
        else 0.0,
    }
