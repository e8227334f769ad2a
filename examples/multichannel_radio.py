"""Multi-channel, multi-standard radio — the paper's motivating scenario.

Four concurrent channels with different standards (WiFi-style AES-CCM,
WiMax-style AES-CCM, UMTS-style AES-CTR, SATCOM AES-256-GCM) share the
four cryptographic cores; a latency-critical tactical-voice channel
rides along at priority 0.  Prints per-channel and aggregate results.

The same workload then replays through the batched dataplane
(``dataplane="batched"``): packets become jobs, same-key jobs coalesce
per channel under a flush policy (size threshold + idle deadline), and
the multi-packet batch engine secures whole batches at once — same
bytes, one dispatch per batch instead of one per packet.

Run:  python examples/multichannel_radio.py
"""

from repro import ChannelConfig, SdrPlatform
from repro.analysis.latency import latency_stats
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import WorkloadSpec
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficPattern


def _configs():
    return [
        ChannelConfig(RadioStandard.WIFI, bytes(range(16)), TrafficPattern.SATURATING, packets=5),
        ChannelConfig(RadioStandard.WIMAX, bytes(range(1, 17)), TrafficPattern.BURSTY, packets=5),
        ChannelConfig(RadioStandard.UMTS_LIKE, bytes(range(2, 18)), TrafficPattern.CBR, packets=5),
        ChannelConfig(RadioStandard.SATCOM, bytes(range(32)), TrafficPattern.SATURATING, packets=5),
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE, bytes(range(3, 19)), TrafficPattern.CBR,
            packets=4, priority=0,
        ),
    ]


def main() -> None:
    platform = SdrPlatform(core_count=4, seed=42)
    configs = _configs()
    report = platform.run_workload(WorkloadSpec(configs))

    print("channel results")
    print("---------------")
    for config in configs:
        profile = STANDARD_PROFILES[config.standard]
        print(
            f"  {config.standard.value:<7} {profile.algorithm.name:<8} "
            f"AES-{profile.key_bits:<4} {config.packets} packets of "
            f"{profile.payload_bytes} B"
        )

    stats = latency_stats(report.latencies)
    print()
    print(f"packets processed : {report.packets_done}")
    print(f"payload moved     : {report.payload_bytes} bytes")
    print(f"total cycles      : {report.total_cycles}")
    print(f"aggregate rate    : {report.throughput_mbps():.1f} Mbps @ 190 MHz")
    print(f"latency mean/p99  : {stats.mean_us:.1f} / {stats.p99_us:.1f} us")
    print()
    util = [
        f"core{core.index}={core.tasks_completed}"
        for core in platform.mccp.cores
    ]
    print("tasks per core    :", ", ".join(util))

    # The same traffic through the batched dataplane: CCM/GCM channels
    # coalesce through the multi-packet batch engine (the CTR channel
    # transparently rides the cores path at width 1).
    batched = SdrPlatform(core_count=4, seed=42)
    breport = batched.run_workload(
        WorkloadSpec(
            _configs(),
            dataplane="batched",
            flush_policy=FlushPolicy(coalesce_limit=8, flush_deadline=4096),
        )
    )
    bstats = latency_stats(breport.latencies)
    print()
    print("batched dataplane")
    print("-----------------")
    print(f"packets processed : {breport.packets_done} (core submits: {breport.core_submits})")
    print(f"batch dispatches  : {breport.batches} (mean width {breport.mean_batch_width():.1f})")
    print(f"flush causes      : {breport.flush_causes}")
    print(f"queue peak        : {breport.queue_peak()} jobs")
    print(f"latency mean/p99  : {bstats.mean_us:.1f} / {bstats.p99_us:.1f} us")


if __name__ == "__main__":
    main()
