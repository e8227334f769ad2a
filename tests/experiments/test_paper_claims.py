"""The paper's measured figures, checked on the simulated device.

Each test below runs the full grid of a paper scenario and asserts one
published claim against its cells:

- Table II's 2 KB-packet column and the abstract's 1.7 Gbps headline;
- near-linear core-count scaling (section III.A);
- the scheduling study's voice latency (section VIII);
- section VII.A's CCM 4x1-vs-2x2 throughput/latency trade-off.

The theoretical column, Table III and Table IV are model figures with
no device run; ``tests/analysis/test_analysis.py`` and
``tests/reconfig/test_reconfig.py`` check them, and
``tests/core/test_timing_periods.py`` checks the loop periods.
"""

import pytest

from repro.analysis.throughput import (
    PAPER_MAX_THROUGHPUT_MBPS,
    PAPER_TABLE2,
    theoretical_mbps,
)
from repro.experiments.scenarios._util import KEYS, packet_mbps
from repro.experiments.scenarios.platform import (
    ablation_mapping,
    core_scaling,
    scheduling_policies,
)
from repro.experiments.scenarios.tables import TABLE2_CONFIGS, table2_throughput

#: Table II row -> (the measured one-packet config, packets in flight).
#: The 4x1 and 2x2 rows run whole packets side by side on disjoint
#: cores, so they are exact multiples of a one-packet cell.
TABLE2_ROWS = {
    "gcm_1": ("gcm_1", 1),
    "gcm_4x1": ("gcm_1", 4),
    "ccm_1": ("ccm_1", 1),
    "ccm_4x1": ("ccm_1", 4),
    "ccm_2": ("ccm_2", 1),
    "ccm_2x2": ("ccm_2", 2),
}


@pytest.fixture(scope="module")
def table2_cycles():
    """(config, key_bits) -> cycles of one 2 KB packet, every measured cell."""
    return {
        (config, key_bits): table2_throughput(config, key_bits)["cycles"]
        for config in TABLE2_CONFIGS
        for key_bits in KEYS
    }


def table2_mbps(table2_cycles, config: str, key_bits: int) -> float:
    base, packets = TABLE2_ROWS[config]
    return packets * packet_mbps(2048, table2_cycles[(base, key_bits)])


@pytest.mark.parametrize("config,key_bits", sorted(PAPER_TABLE2))
def test_table2_packet_column(table2_cycles, config, key_bits):
    """Each 2 KB-packet cell sits at or up to 12% above the paper's and
    never above theory.

    The model is faster than the prototype on every cell (+3.4% to
    +10.8%): its firmware spends fewer cycles per packet outside the
    block loop (set-up, final block and tag) than the paper's, whose
    pre- and post-loop code differs in detail.  A one-sided bound makes
    a published value entered too high fail, where a symmetric 12%
    let most such typos pass.
    """
    measured = table2_mbps(table2_cycles, config, key_bits)
    _, paper_packet = PAPER_TABLE2[(config, key_bits)]
    assert paper_packet <= measured <= 1.12 * paper_packet
    assert measured <= theoretical_mbps(config, key_bits) * 1.001


def test_headline_throughput_above_1_7_gbps(table2_cycles):
    """The abstract's 1.7 Gbps: four cores each sealing 2 KB GCM-128
    packets."""
    assert table2_mbps(table2_cycles, "gcm_4x1", 128) > PAPER_MAX_THROUGHPUT_MBPS


def test_core_scaling_is_near_linear():
    mbps = {cores: core_scaling(cores)["aggregate_mbps"] for cores in (1, 2, 4, 8)}
    assert mbps[2] > 1.7 * mbps[1]
    assert mbps[4] > 3.2 * mbps[1]
    assert mbps[8] > mbps[4]


def test_priority_reserve_keeps_voice_latency():
    """Every policy completes the mixed load, and reserving a core for
    the voice channel lowers its p99 below first-idle's, where the
    voice packets wait for a core the bulk channels hold."""
    policies = {
        policy: scheduling_policies(policy)
        for policy in ("first_idle", "round_robin", "priority_reserve")
    }
    for policy, metrics in policies.items():
        assert metrics["packets_done"] == 26, policy
    reserved = policies["priority_reserve"]["voice_p99_us"]
    assert reserved < policies["first_idle"]["voice_p99_us"]


def test_ccm_4x1_trades_latency_for_throughput():
    """Section VII.A: 4x1 wins throughput, and its latency is "almost
    two times greater" than 2x2's."""
    one_core, two_core = ablation_mapping("4x1"), ablation_mapping("2x2")
    assert one_core["aggregate_mbps"] > two_core["aggregate_mbps"]
    assert two_core["mean_latency_us"] < 0.75 * one_core["mean_latency_us"]
    ratio = one_core["mean_latency_us"] / two_core["mean_latency_us"]
    assert ratio == pytest.approx(2.0, rel=0.35)
