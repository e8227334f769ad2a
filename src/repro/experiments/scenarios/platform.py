"""Full-platform scenarios: scheduling, scaling and the CCM mapping.

Everything here drives :class:`repro.radio.sdr_platform.SdrPlatform`
(or the raw MCCP) end to end, so the metrics are simulated-cycle
deterministic: the same arguments give the same numbers.
``tests/experiments/test_paper_claims.py`` asserts the paper's claims
on them.
"""

from __future__ import annotations

from repro.analysis.latency import latency_stats
from repro.core.params import Algorithm, Direction
from repro.errors import NoResourceError
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


def _report_metrics(report):
    stats = latency_stats(report.latencies)
    return {
        "aggregate_mbps": round(report.throughput_mbps(), 2),
        "packets_done": report.packets_done,
        "payload_bytes": report.payload_bytes,
        "total_cycles": report.total_cycles,
        "latency_mean_us": round(stats.mean_us, 2),
        "latency_p99_us": round(stats.p99_us, 2),
    }


def scheduling_policies(policy: str):
    """One policy's aggregate throughput and voice-channel latency.

    Four saturating bulk channels are provisioned ahead of the voice
    channel, so they can hold every core when a voice packet arrives,
    and voice latency counts from the packet's creation: the wait for
    a core is the part a mapping policy changes.
    """
    platform = SdrPlatform(core_count=4, policy=_POLICIES[policy]())
    configs = [
        *[
            ChannelConfig(
                RadioStandard.WIMAX,
                bytes(16),
                TrafficPattern.SATURATING,
                packets=5,
                priority=2,
            )
            for _ in range(_BULK_CHANNELS)
        ],
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE,
            bytes(16),
            TrafficPattern.CBR,
            packets=6,
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


def core_scaling(cores: int):
    """Saturating per-core GCM traffic on an N-core device."""
    platform = SdrPlatform(core_count=cores)
    configs = [
        ChannelConfig(
            RadioStandard.SATCOM,
            bytes(32),
            TrafficPattern.SATURATING,
            packets=6,
        )
        for _ in range(cores)
    ]
    report = platform.run_workload(WorkloadSpec(configs))
    return _report_metrics(report)


def ablation_mapping(mapping: str):
    """One mapping's aggregate throughput and mean packet latency."""
    two_core = mapping == "2x2"
    packet_count = 4
    payload = deterministic_bytes(2048, 0)
    key = bytes(range(16))
    sim = Simulator()
    mccp = Mccp(sim, core_count=4)
    mccp.load_session_key(0, key)
    channel = mccp.open_channel(Algorithm.CCM, 0, tag_length=8)
    comm = CommController(sim, mccp)
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
