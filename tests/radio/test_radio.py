"""Radio substrate: formatting invariants, packets, traffic, platform."""

import pytest

from repro import ChannelConfig, Direction, SdrPlatform
from repro.radio.sdr_platform import WorkloadSpec
from repro.core.params import Algorithm
from repro.errors import NonceError, ProtocolError
from repro.radio import (
    format_ccm_single,
    format_ccm_two_core,
    format_ctr,
    format_gcm,
    format_task,
    format_whirlpool,
    parse_output,
)
from repro.radio.formatting import expected_output_words, format_cbc_mac
from repro.radio.packet import MAX_PAYLOAD_BYTES, Packet, SecuredPacket
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficGenerator, TrafficPattern


def test_gcm_layout_and_counts(rb):
    task = format_gcm(128, rb(12), rb(20), rb(100), Direction.ENCRYPT)
    # zero | J0 | 2 AAD | 7 data | length = 12 blocks
    assert len(task.input_blocks) == 12
    assert task.params.aad_blocks == 2
    assert task.params.data_blocks == 7
    assert task.params.final_block_bytes == 4
    assert task.input_blocks[0] == bytes(16)
    assert task.input_blocks[1][-4:] == b"\x00\x00\x00\x01"
    # length block encodes bit lengths
    assert task.input_blocks[-1] == (160).to_bytes(8, "big") + (800).to_bytes(8, "big")


def test_gcm_decrypt_requires_tag(rb):
    with pytest.raises(ProtocolError):
        format_gcm(128, rb(12), b"", rb(16), Direction.DECRYPT)


def test_ccm_single_layout(rb):
    nonce = rb(13)
    task = format_ccm_single(128, nonce, rb(8), rb(32), Direction.ENCRYPT, 8)
    # B0 | 1 AAD | A1 | 2 data | A0
    assert len(task.input_blocks) == 6
    b0 = task.input_blocks[0]
    assert b0[0] & 0x40  # AAD present flag
    assert b0[1:14] == nonce
    a1 = task.input_blocks[2]
    assert a1[0] == 1 and a1[-2:] == b"\x00\x01"
    a0 = task.input_blocks[-1]
    assert a0[-2:] == b"\x00\x00"


def test_ccm_two_core_split_shares_params(rb):
    mac, ctr = format_ccm_two_core(128, rb(13), rb(10), rb(64), Direction.ENCRYPT, 8)
    assert mac.params.role.name == "MAC" and ctr.params.role.name == "CTR"
    assert mac.params.data_blocks == ctr.params.data_blocks == 4
    # encrypt: MAC core receives the plaintext through its own FIFO
    assert len(mac.input_blocks) == 1 + 1 + 4


def test_nonce_length_enforced(rb):
    with pytest.raises(NonceError):
        format_gcm(128, rb(11), b"", b"", Direction.ENCRYPT)
    with pytest.raises(NonceError):
        format_ccm_single(128, rb(12), b"", b"", Direction.ENCRYPT)
    with pytest.raises(NonceError):
        format_ctr(128, rb(15), b"")


def test_format_task_dispatch(rb):
    t = format_task(Algorithm.WHIRLPOOL, 128, Direction.ENCRYPT, data=rb(10))
    assert t.params.algorithm is Algorithm.WHIRLPOOL
    pair = format_task(
        Algorithm.CCM, 128, Direction.ENCRYPT, nonce=rb(13), data=rb(16), two_core=True
    )
    assert isinstance(pair, tuple) and len(pair) == 2


def test_whirlpool_padding_block_counts(rb):
    for n in (0, 31, 32, 33, 64):
        task = format_whirlpool(rb(n))
        assert len(task.input_blocks) % 4 == 0
        assert task.params.data_blocks == len(task.input_blocks) // 4


# (task, payload slice, tag slice or None) over the drained stream: the
# payload is the first payload_bytes, the tag sits after the padded data.
PARSE_CASES = {
    "gcm_encrypt": (
        lambda rb: format_gcm(128, rb(12), rb(5), rb(20), Direction.ENCRYPT, 12),
        (0, 20),
        (32, 44),
    ),
    "gcm_decrypt": (
        lambda rb: format_gcm(128, rb(12), b"", rb(20), Direction.DECRYPT, tag=rb(16)),
        (0, 20),
        None,
    ),
    "ccm_encrypt": (
        lambda rb: format_ccm_single(128, rb(13), rb(4), rb(33), Direction.ENCRYPT, 8),
        (0, 33),
        (48, 56),
    ),
    "ctr": (lambda rb: format_ctr(128, rb(16), rb(40)), (0, 40), None),
    "cbc_mac_generate": (
        lambda rb: format_cbc_mac(128, rb(32), Direction.ENCRYPT, 8),
        (0, 0),
        (0, 8),
    ),
    "cbc_mac_verify": (
        lambda rb: format_cbc_mac(128, rb(32), Direction.DECRYPT, 8, rb(8)),
        (0, 0),
        None,
    ),
    "whirlpool": (lambda rb: format_whirlpool(rb(10)), (0, 64), None),
}


@pytest.mark.parametrize("case", list(PARSE_CASES))
def test_parse_output_splits_the_drained_stream(rb, case):
    make, payload_at, tag_at = PARSE_CASES[case]
    task = make(rb)
    stream = bytes(range(4 * expected_output_words(task)))
    payload, tag = parse_output(task, stream)
    assert payload == stream[slice(*payload_at)]
    assert tag == (stream[slice(*tag_at)] if tag_at else None)


def test_packet_limits(rb):
    with pytest.raises(ProtocolError):
        Packet(0, b"", bytes(MAX_PAYLOAD_BYTES + 1))
    p = Packet(0, rb(4), rb(10), priority=0)
    assert p.total_bytes == 14
    s = SecuredPacket(0, b"h", b"cc", b"tt", b"n")
    assert s.total_bytes == 5


def test_standard_profiles_sane():
    for profile in STANDARD_PROFILES.values():
        assert profile.payload_bytes <= MAX_PAYLOAD_BYTES
        assert profile.key_bits in (128, 192, 256)
        assert profile.nominal_rate_mbps > 0


@pytest.mark.parametrize("pattern", list(TrafficPattern), ids=lambda p: p.value)
def test_traffic_generators_deterministic(pattern):
    profile = STANDARD_PROFILES[RadioStandard.WIFI]
    a = TrafficGenerator(1, profile, pattern, seed=5).generate(6)
    b = TrafficGenerator(1, profile, pattern, seed=5).generate(6)
    assert [(g.arrival_cycle, g.packet.payload) for g in a] == [
        (g.arrival_cycle, g.packet.payload) for g in b
    ]
    arrivals = [g.arrival_cycle for g in a]
    assert arrivals == sorted(arrivals)


def test_platform_multichannel_workload():
    plat = SdrPlatform(core_count=4, seed=3)
    cfgs = [
        ChannelConfig(RadioStandard.WIFI, bytes(16), TrafficPattern.SATURATING, packets=3),
        ChannelConfig(RadioStandard.UMTS_LIKE, bytes(16), TrafficPattern.SATURATING, packets=3),
    ]
    report = plat.run_workload(WorkloadSpec(cfgs))
    assert report.packets_done == 6
    assert report.throughput_mbps() > 0
    assert len(report.per_channel_bytes) == 2
    assert report.mean_latency_us() > 0
    assert report.max_latency_us() >= report.mean_latency_us()
