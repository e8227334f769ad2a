"""Full-platform scenarios: scheduling, scaling, mapping, mixed radio.

Everything here drives :class:`repro.radio.sdr_platform.SdrPlatform`
(or the raw MCCP) end to end, so the metrics are simulated-cycle
deterministic: same params + seed = same numbers, serial or parallel.
"""

from __future__ import annotations

from repro.analysis.latency import latency_stats
from repro.core.params import Algorithm, Direction
from repro.errors import NoResourceError
from repro.experiments.scenario import register
from repro.experiments.scenarios._util import CLOCK_HZ, deterministic_bytes
from repro.mccp.mccp import Mccp
from repro.radio.comm_controller import CommController
from repro.radio.packet import Packet
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.sched import FirstIdlePolicy, PriorityReservePolicy, RoundRobinPolicy
from repro.sim.kernel import Delay, Simulator

_POLICIES = {
    "first_idle": FirstIdlePolicy,
    "round_robin": RoundRobinPolicy,
    "priority_reserve": lambda: PriorityReservePolicy(reserved_cores=1),
}

#: Saturating bulk channels sharing the device with the voice channel,
#: one per core.
_BULK_CHANNELS = 4


def _report_metrics(report, latencies=None):
    stats = latency_stats(latencies if latencies is not None else report.latencies)
    return {
        "aggregate_mbps": round(report.throughput_mbps(), 2),
        "packets_done": report.packets_done,
        "payload_bytes": report.payload_bytes,
        "total_cycles": report.total_cycles,
        "latency_mean_us": round(stats.mean_us, 2),
        "latency_p99_us": round(stats.p99_us, 2),
    }


@register(
    name="scheduling_policies",
    title="Scheduling policies under mixed voice + bulk load",
    description="First-idle vs round-robin vs priority-reserve on a "
    "latency-critical voice channel sharing the MCCP with bulk traffic.",
    grid={"policy": ["first_idle", "round_robin", "priority_reserve"]},
    tags=("scheduling",),
)
def scheduling_policies(params, seed, quick):
    """One policy's aggregate throughput and voice-channel latency.

    Four saturating bulk channels are provisioned ahead of the voice
    channel, so they can hold every core when a voice packet arrives,
    and voice latency counts from the packet's creation: the wait for
    a core is the part a mapping policy changes.
    """
    voice_packets, bulk_packets = (3, 2) if quick else (6, 5)
    platform = SdrPlatform(core_count=4, policy=_POLICIES[params["policy"]](), seed=seed)
    configs = [
        *[
            ChannelConfig(
                RadioStandard.WIMAX,
                bytes(16),
                TrafficPattern.SATURATING,
                packets=bulk_packets,
                priority=2,
            )
            for _ in range(_BULK_CHANNELS)
        ],
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE,
            bytes(16),
            TrafficPattern.CBR,
            packets=voice_packets,
            priority=0,
        ),
    ]
    report = platform.run_workload(WorkloadSpec(configs))
    voice = [
        t.download_done_cycle - t.job.created_cycle
        for t in platform.comm.completed.values()
        if t.channel_id == _BULK_CHANNELS
    ]
    metrics = _report_metrics(report)
    voice_stats = latency_stats(voice)
    metrics["voice_mean_us"] = round(voice_stats.mean_us, 2)
    metrics["voice_p99_us"] = round(voice_stats.p99_us, 2)
    return metrics


@register(
    name="core_scaling",
    title="Core-count scalability, saturating GCM load",
    description="Aggregate throughput on 1..8-core devices under one "
    "saturating AES-256-GCM channel per core.",
    grid={"cores": [1, 2, 4, 8]},
    quick_grid={"cores": [1, 2, 4]},
    tags=("scaling",),
)
def core_scaling(params, seed, quick):
    """Saturating per-core GCM traffic on an N-core device."""
    cores = params["cores"]
    packets = 3 if quick else 6
    platform = SdrPlatform(core_count=cores, seed=seed)
    configs = [
        ChannelConfig(
            RadioStandard.SATCOM,
            bytes(32),
            TrafficPattern.SATURATING,
            packets=packets,
        )
        for _ in range(cores)
    ]
    report = platform.run_workload(WorkloadSpec(configs))
    return _report_metrics(report)


@register(
    name="ablation_mapping",
    title="CCM mapping ablation: 4x1 vs 2x2 cores",
    description="Section VII.A's throughput/latency trade-off, measured "
    "with identical 2 KB CCM packets on a 4-core device.",
    grid={"mapping": ["4x1", "2x2"]},
    tags=("ablation",),
)
def ablation_mapping(params, seed, quick):
    """One mapping's aggregate throughput and mean packet latency."""
    two_core = params["mapping"] == "2x2"
    packet_count = 2 if quick else 4
    payload = deterministic_bytes(2048, seed)
    key = bytes(range(16))
    sim = Simulator()
    mccp = Mccp(sim, core_count=4)
    mccp.load_session_key(0, key)
    channel = mccp.open_channel(Algorithm.CCM, 0, tag_length=8)
    comm = CommController(sim, mccp, seed=seed & 0xFFFF)
    done_events = []
    for i in range(packet_count):
        event = sim.event(f"p{i}")
        done_events.append(event)

        def proc(event=event, i=i):
            while True:
                try:
                    transfer = yield from comm.process_packet(
                        channel,
                        Packet(0, b"", payload, sequence=i, created_cycle=sim.now),
                        Direction.ENCRYPT,
                        two_core=two_core,
                    )
                    break
                except NoResourceError:
                    yield Delay(50)
            event.trigger(transfer)

        sim.add_process(proc())
    for event in done_events:
        sim.run_until_event(event, limit=200_000_000)
    latencies = list(comm.latencies)
    mean_latency = sum(latencies) / len(latencies)
    return {
        "aggregate_mbps": round(
            packet_count * 2048 * 8 * CLOCK_HZ / sim.now / 1e6, 2
        ),
        "mean_latency_us": round(mean_latency / CLOCK_HZ * 1e6, 2),
        "packets_done": len(latencies),
        "total_cycles": sim.now,
    }


#: Channel mixes for the heterogeneous-traffic scenario; each entry is
#: (standard, pattern, packets-weight) — packet sizes range 160 B
#: (voice GCM) through 640 B (UMTS CTR) to 2048 B (SATCOM GCM).
_MIXES = {
    "balanced": (
        (RadioStandard.WIFI, TrafficPattern.SATURATING, 1.0),
        (RadioStandard.WIMAX, TrafficPattern.BURSTY, 1.0),
        (RadioStandard.UMTS_LIKE, TrafficPattern.CBR, 1.0),
        (RadioStandard.SATCOM, TrafficPattern.SATURATING, 1.0),
        (RadioStandard.TACTICAL_VOICE, TrafficPattern.CBR, 1.0),
    ),
    "bulk_heavy": (
        (RadioStandard.SATCOM, TrafficPattern.SATURATING, 2.0),
        (RadioStandard.WIMAX, TrafficPattern.SATURATING, 2.0),
        (RadioStandard.TACTICAL_VOICE, TrafficPattern.CBR, 0.5),
    ),
    "small_packet": (
        (RadioStandard.TACTICAL_VOICE, TrafficPattern.CBR, 2.0),
        (RadioStandard.UMTS_LIKE, TrafficPattern.CBR, 2.0),
        (RadioStandard.WIFI, TrafficPattern.BURSTY, 1.0),
    ),
}


@register(
    name="mixed_channel_radio",
    title="Mixed-channel radio traffic, heterogeneous packet sizes",
    description="Concurrent channels spanning CCM/GCM/CTR standards with "
    "160 B..2048 B payloads sharing four cores.",
    grid={"mix": ["balanced", "bulk_heavy", "small_packet"]},
    tags=("radio", "workload"),
)
def mixed_channel_radio(params, seed, quick):
    """One channel mix replayed to completion on a 4-core device."""
    base_packets = 3 if quick else 6
    platform = SdrPlatform(core_count=4, seed=seed)
    configs = []
    for standard, pattern, weight in _MIXES[params["mix"]]:
        packets = max(1, int(base_packets * weight))
        configs.append(
            ChannelConfig(
                standard,
                deterministic_bytes(
                    32 if standard is RadioStandard.SATCOM else 16,
                    seed + len(configs),
                ),
                pattern,
                packets=packets,
                priority=0 if standard is RadioStandard.TACTICAL_VOICE else 1,
            )
        )
    report = platform.run_workload(WorkloadSpec(configs))
    metrics = _report_metrics(report)
    metrics["channels"] = len(configs)
    return metrics
