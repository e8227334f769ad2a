"""The batched radio dataplane as a sweepable scenario.

Drives realistic multi-channel radio traffic end to end through the
coalescing pipeline — ``WorkloadSpec(dataplane="batched")``
→ per-channel job queues → :class:`repro.mccp.channel.FlushPolicy` →
:mod:`repro.crypto.fast.batch` — sweeping the three knobs that shape
it: coalesce width, channel count and the sim-time idle deadline.
Every secured packet is cross-checked against the sequential one-call
fast APIs, and the metrics are simulated-cycle deterministic, so a
baseline comparison fails hard on any divergence: this is the
sweep-level twin of ``tests/radio/test_dataplane.py``.
"""

from __future__ import annotations

import hashlib

from repro.core.params import Algorithm
from repro.crypto.fast.bulk import ccm_seal, gcm_seal
from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

#: CCM-heavy channel rotation (the paper's WiFi/WiMax traffic is CCM;
#: SATCOM/voice add the GCM lanes and the small-packet tail).
_ROTATION = (
    (RadioStandard.WIFI, TrafficPattern.SATURATING),
    (RadioStandard.WIMAX, TrafficPattern.SATURATING),
    (RadioStandard.SATCOM, TrafficPattern.BURSTY),
    (RadioStandard.TACTICAL_VOICE, TrafficPattern.CBR),
)


@register(
    name="radio_batch",
    title="Batched radio dataplane: coalesce width x channels x deadline",
    description="Multi-channel CCM/GCM radio traffic through the "
    "job-coalescing pipeline, swept over flush-policy knobs and "
    "verified packet-by-packet against the sequential fast path.",
    grid={
        "coalesce": [1, 8, 32],
        "channels": [4, 8],
        "deadline": [0, 4096, 32768],
    },
    quick_grid={"coalesce": [1, 32], "channels": [8], "deadline": [4096]},
    tags=("radio", "batch", "dataplane"),
)
def radio_batch(params, seed, quick):
    """One flush-policy point: run, verify, report coalescing stats."""
    packets = 8 if quick else 24
    configs = []
    for index in range(params["channels"]):
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
    platform = SdrPlatform(core_count=4, seed=seed)
    report = platform.run_workload(
        WorkloadSpec(
            configs,
            dataplane="batched",
            flush_policy=FlushPolicy(
                coalesce_limit=params["coalesce"],
                flush_deadline=params["deadline"],
            ),
        )
    )

    channels = platform.mccp.scheduler.channels
    digest = hashlib.sha256()
    matches = 0
    transfers = sorted(
        (t for t in platform.comm.completed.values() if t.job is not None),
        key=lambda t: (t.channel_id, t.sequence),
    )
    for transfer in transfers:
        job = transfer.job
        channel = channels[transfer.channel_id]
        key = platform.mccp.key_memory.fetch_for_scheduler(channel.key_id)
        seal = gcm_seal if channel.algorithm is Algorithm.GCM else ccm_seal
        expected = seal(key, job.nonce, job.data, job.aad, channel.tag_length)
        matches += transfer.ok and (transfer.payload, transfer.tag) == expected
        digest.update(transfer.payload)
        digest.update(transfer.tag or b"")

    return {
        "packets_done": report.packets_done,
        "payload_bytes": report.payload_bytes,
        "total_cycles": report.total_cycles,
        "latency_mean_us": round(report.mean_latency_us(), 2),
        "latency_max_us": round(report.max_latency_us(), 2),
        "core_submits": report.core_submits,
        "batches": report.batches,
        "mean_batch_width": round(report.mean_batch_width(), 2),
        "queue_peak": report.queue_peak(),
        "flush_size": report.flush_causes.get("size", 0),
        "flush_deadline": report.flush_causes.get("deadline", 0),
        "flush_forced": report.flush_causes.get("forced", 0),
        "matches_sequential": matches == report.packets_done,
        "output_digest": digest.hexdigest()[:32],
    }
