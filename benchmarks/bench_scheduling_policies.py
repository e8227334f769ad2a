"""E9 — section VIII's scheduling study (implemented future work).

Mixed workload: one latency-critical voice channel (priority 0) against
three saturating bulk channels.  Compares the paper's first-idle policy
with round-robin and priority-reservation on voice p99 latency.
"""

from repro.analysis.latency import latency_stats
from repro.analysis.tables import render_table
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.sched import FirstIdlePolicy, PriorityReservePolicy, RoundRobinPolicy


def _run(policy):
    plat = SdrPlatform(core_count=4, policy=policy, seed=9)
    configs = [
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE,
            bytes(16),
            TrafficPattern.CBR,
            packets=6,
            priority=0,
        ),
        *[
            ChannelConfig(
                RadioStandard.WIMAX,
                bytes(16),
                TrafficPattern.SATURATING,
                packets=5,
                priority=2,
            )
            for _ in range(3)
        ],
    ]
    report = plat.run_workload(WorkloadSpec(configs))
    voice_chan = 0
    voice_latencies = [
        t.download_done_cycle - t.request.submit_cycle
        for t in plat.comm.completed.values()
        if t.request.channel_id == voice_chan
    ]
    return report, latency_stats(voice_latencies)


def test_bench_scheduling_policies(benchmark):
    policies = {
        "first-idle (paper)": FirstIdlePolicy(),
        "round-robin": RoundRobinPolicy(),
        "priority-reserve": PriorityReservePolicy(reserved_cores=1),
    }
    rows = []
    stats = {}
    for name, policy in policies.items():
        report, voice = _run(policy)
        stats[name] = (report, voice)
        rows.append(
            (
                name,
                f"{report.throughput_mbps():.0f}",
                f"{voice.mean_us:.1f}",
                f"{voice.p99_us:.1f}",
            )
        )
    print()
    print(
        render_table(
            ["policy", "aggregate Mbps", "voice mean us", "voice p99 us"],
            rows,
            title="E9: scheduling policies under mixed voice + bulk load",
        )
    )
    # Reserving a core must not degrade voice latency relative to
    # first-idle, and every policy must complete the workload.
    fi_voice = stats["first-idle (paper)"][1]
    pr_voice = stats["priority-reserve"][1]
    assert pr_voice.p99_us <= fi_voice.p99_us * 1.10
    for name, (report, _) in stats.items():
        assert report.packets_done == 21, name
    benchmark(lambda: _run(FirstIdlePolicy()))
