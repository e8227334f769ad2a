"""E8 — core-count scalability (section III.A: "the number of embedded
crypto-cores may vary").

Saturating GCM traffic on 1/2/4/6/8-core devices; aggregate throughput
should scale near-linearly until another resource binds.
"""

from repro.analysis.tables import render_table
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern


def _throughput(core_count: int, packets: int = 6) -> float:
    plat = SdrPlatform(core_count=core_count, seed=4)
    configs = [
        ChannelConfig(
            RadioStandard.SATCOM,
            bytes(32),
            TrafficPattern.SATURATING,
            packets=packets,
        )
        for _ in range(core_count)
    ]
    report = plat.run_workload(WorkloadSpec(configs))
    return report.throughput_mbps()


def test_bench_core_scaling(benchmark):
    results = {}
    for cores in (1, 2, 4, 8):
        results[cores] = _throughput(cores)
    rows = [
        (c, f"{results[c]:.0f}", f"{results[c] / results[1]:.2f}x")
        for c in sorted(results)
    ]
    print()
    print(
        render_table(
            ["cores", "aggregate Mbps (AES-256-GCM)", "speedup vs 1 core"],
            rows,
            title="E8: core-count scaling, saturating multi-channel load",
        )
    )
    # Near-linear scaling through the paper's 4-core point.
    assert results[2] > 1.7 * results[1]
    assert results[4] > 3.2 * results[1]
    assert results[8] > results[4]
    benchmark(lambda: _throughput(2, packets=3))
