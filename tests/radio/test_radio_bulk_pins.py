"""Byte-identity pins for a ``radio_bulk``-shaped batched replay.

The batched dataplane's outputs are otherwise pinned only relative to
other paths (batched == cores == sequential one-call APIs).  This test
pins the exact simulated cycles and a digest of every output for a small
replay with the perfbench ``radio_bulk`` channel mix, with rx traffic,
losses and corrupted tags, so any change to traffic generation, the rx
decisions' rng draw order, the rx pre-seal or the batch engines that
moves a byte or a cycle fails here.
"""

import hashlib
import random

import pytest

from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficGenerator, TrafficPattern

#: perfbench's radio mix: 2 x WIFI CCM, 2 x WIMAX CCM, 2 x SATCOM GCM.
STANDARDS = (
    RadioStandard.WIFI,
    RadioStandard.WIFI,
    RadioStandard.WIMAX,
    RadioStandard.WIMAX,
    RadioStandard.SATCOM,
    RadioStandard.SATCOM,
)
#: 6 x 8 packets, 10 of them rx: 1 lost in transit and 3 with corrupted
#: tags.
TOTAL_CYCLES = 8331
TRANSFERS_SHA256 = "2a031453e06f80b6bc5b7c80e2608350cf9b563d4e3e28ce9ce66f62515c4c6e"


def test_radio_bulk_outputs_are_pinned():
    configs = [
        ChannelConfig(
            standard,
            bytes([index + 1]) * (STANDARD_PROFILES[standard].key_bits // 8),
            TrafficPattern.SATURATING,
            packets=8,
        )
        for index, standard in enumerate(STANDARDS)
    ]
    platform = SdrPlatform(seed=1)
    report = platform.run_workload(
        WorkloadSpec(
            configs,
            dataplane="batched",
            rx_fraction=0.25,
            loss_rate=0.3,
            corrupt_rate=0.3,
        )
    )
    rows = sorted(
        (t.channel_id, t.sequence, t.ok, t.payload, t.tag)
        for t in platform.comm.completed.values()
    )
    assert report.rx_lost > 0 and report.auth_failures > 0
    assert len(rows) == report.packets_done == 6 * 8 - report.rx_lost
    assert report.total_cycles == TOTAL_CYCLES
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TRANSFERS_SHA256


def _payload_reference(rng: random.Random, size: int) -> bytes:
    """One ``getrandbits(8)`` call per byte (the historical generator)."""
    return bytes(rng.getrandbits(8) for _ in range(size))


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 2048])
def test_payload_matches_per_byte_draws(size):
    profile = STANDARD_PROFILES[RadioStandard.WIFI]
    for seed in range(50):
        generator = TrafficGenerator(0, profile, seed=seed)
        reference = random.Random()
        reference.setstate(generator._rng.getstate())
        assert generator._payload(size) == _payload_reference(reference, size)
        assert generator._rng.getstate() == reference.getstate()
