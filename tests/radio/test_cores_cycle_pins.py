"""Absolute cycle pins for the cycle-level ``cores`` dataplane.

Other tests pin the device model's figures only relative to each other
(batched == pipelined) or through the sweep baseline's tolerance.  This
one pins exact simulated cycles for a small ``gcm_4x1``-style workload,
so any change to the controller, the CU, the FIFOs or the kernel's event
order that moves a single completion cycle, or the end of a single
download, fails here.
"""

import hashlib

from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

#: 4 x GCM-256 SATCOM channels, 2 packets each, a quarter of them rx.
TOTAL_CYCLES = 18044
TRANSFERS_SHA256 = "448bf3bae204e59b3d7ab77e98fd5e03e58b83a541068ebb660fdda1befabead"


def test_cores_dataplane_cycles_are_pinned():
    configs = [
        ChannelConfig(
            RadioStandard.SATCOM,
            bytes([index + 1]) * 32,
            TrafficPattern.SATURATING,
            packets=2,
        )
        for index in range(4)
    ]
    platform = SdrPlatform(seed=1)
    report = platform.run_workload(
        WorkloadSpec(configs, dataplane="cores", rx_fraction=0.25)
    )
    rows = sorted(
        (t.channel_id, t.sequence, t.ok, t.download_done_cycle, t.download_end_cycle)
        for t in platform.comm.completed.values()
    )
    assert len(rows) == report.packets_done == 8
    assert report.total_cycles == TOTAL_CYCLES
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TRANSFERS_SHA256
