"""Receive-side workload generation (rx_fraction / loss / corruption).

The platform plays the peer radio: an rx packet arrives pre-sealed
under the channel key and deterministic per-(channel, sequence) nonce,
the channel model may lose it or corrupt its tag, and the dataplane
must decrypt survivors, reject forgeries per-packet, and tally
everything in :class:`WorkloadReport`.  Decisions derive only from
(seed, channel, sequence), so the same mixed workload replays
identically through both dataplanes and every execution backend.
"""

import pytest

from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

_MIXED = (
    RadioStandard.TACTICAL_VOICE,
    RadioStandard.WIFI,
    RadioStandard.SATCOM,
    RadioStandard.WIMAX,
)


def _configs(channels=4, packets=12, **kwargs):
    configs = []
    for index in range(channels):
        standard = _MIXED[index % len(_MIXED)]
        key = bytes(32) if standard is RadioStandard.SATCOM else bytes(16)
        configs.append(
            ChannelConfig(
                standard, key, TrafficPattern.SATURATING, packets=packets,
                **kwargs,
            )
        )
    return configs


def _run(configs, dataplane, **kwargs):
    platform = SdrPlatform(core_count=4, seed=23)
    report = platform.run_workload(
        WorkloadSpec(
            configs,
            dataplane=dataplane,
            flush_policy=FlushPolicy(coalesce_limit=8, flush_deadline=4096),
            **kwargs,
        )
    )
    transfers = {
        (t.channel_id, t.sequence): (t.payload, t.tag, t.ok)
        for t in platform.comm.completed.values()
    }
    return platform, report, transfers


def test_rx_traffic_replays_identically_on_both_dataplanes():
    kwargs = dict(rx_fraction=0.5, loss_rate=0.2, corrupt_rate=0.3)
    _, batched, batched_bytes = _run(_configs(), "batched", **kwargs)
    _, cores, cores_bytes = _run(_configs(), "cores", **kwargs)
    assert batched_bytes == cores_bytes
    assert batched.rx_packets == cores.rx_packets > 0
    assert batched.rx_lost == cores.rx_lost > 0
    assert batched.auth_failures == cores.auth_failures > 0
    assert (
        batched.packets_done
        == cores.packets_done
        == 4 * 12 - batched.rx_lost
    )


def test_rx_decrypts_release_the_original_payload():
    platform, report, transfers = _run(
        _configs(channels=2, packets=16), "batched", rx_fraction=0.6
    )
    assert report.rx_lost == 0 and report.auth_failures == 0
    assert report.rx_packets > 0
    decrypts = [
        t for t in platform.comm.completed.values()
        if t.job is not None and t.job.direction.name == "DECRYPT"
    ]
    assert len(decrypts) == report.rx_packets
    # Decrypt completions carry the recovered plaintext, no tag.
    for transfer in decrypts:
        assert transfer.ok and transfer.tag is None
        assert len(transfer.payload) == len(transfer.job.data)


def test_corrupted_tags_fail_auth_without_disturbing_batchmates():
    platform, report, _ = _run(
        _configs(channels=2, packets=16), "batched",
        rx_fraction=1.0, corrupt_rate=0.25,
    )
    assert report.rx_packets == 32
    assert 0 < report.auth_failures < 32
    assert report.auth_failures == platform.comm.auth_failures
    ok_payloads = [
        t for t in platform.comm.completed.values()
        if t.ok and t.job is not None
    ]
    failed = [t for t in platform.comm.completed.values() if not t.ok]
    assert len(failed) == report.auth_failures
    assert all(t.payload == b"" for t in failed)
    assert all(len(t.payload) > 0 for t in ok_payloads)
    # Per-channel auth_failures counters add up to the report's tally.
    channels = platform.mccp.scheduler.channels.values()
    assert sum(c.auth_failures for c in channels) == report.auth_failures


def test_full_loss_processes_nothing_but_counts_everything():
    _, report, transfers = _run(
        _configs(channels=1, packets=8), "batched",
        rx_fraction=1.0, loss_rate=1.0,
    )
    assert report.rx_packets == report.rx_lost == 8
    assert report.packets_done == 0 and not transfers
    assert report.auth_failures == 0


def test_run_level_rx_knobs_apply_to_every_channel():
    """The rx mix is one run-wide setting: every channel receives it."""
    _, report, transfers = _run(
        _configs(channels=3, packets=6), "batched",
        rx_fraction=1.0, loss_rate=1.0,
    )
    assert report.rx_packets == report.rx_lost == 18
    assert report.packets_done == 0 and not transfers


def test_ctr_channels_ignore_rx_and_keep_transmitting():
    """Non-AEAD channels have no tag to verify; rx does not apply."""
    configs = [
        ChannelConfig(
            RadioStandard.UMTS_LIKE, bytes(16), TrafficPattern.SATURATING,
            packets=6,
        )
    ]
    platform, report, _ = _run(
        configs, "cores", rx_fraction=1.0, corrupt_rate=1.0
    )
    assert report.rx_packets == 0 and report.auth_failures == 0
    assert report.packets_done == 6


@pytest.mark.parametrize(
    "bad",
    [
        {"rx_fraction": 1.5},
        {"rx_fraction": -0.1},
        {"rx_fraction": 0.5, "loss_rate": 5.0},
        {"rx_fraction": 0.5, "corrupt_rate": -2.0},
    ],
)
def test_rx_rates_outside_unit_interval_are_rejected(bad):
    """A typo'd probability (5.0 meaning 0.5) must fail loudly, not
    silently lose every packet."""
    platform = SdrPlatform(core_count=4, seed=23)
    bad_knob = next(k for k, v in bad.items() if not 0.0 <= v <= 1.0)
    with pytest.raises(ValueError, match=bad_knob):
        platform.run_workload(WorkloadSpec(_configs(channels=1, packets=2), **bad))


def test_rx_workloads_agree_across_backends():
    """rx workloads under every backend agree byte-for-byte."""
    kwargs = dict(rx_fraction=0.5, corrupt_rate=0.5)
    _, inline_report, inline_bytes = _run(_configs(), "batched", **kwargs)
    _, report, transfers = _run(
        _configs(), "batched", backend="process:2", **kwargs
    )
    assert transfers == inline_bytes
    assert report.auth_failures == inline_report.auth_failures
    assert report.rx_packets == inline_report.rx_packets


@pytest.mark.parametrize("dataplane", ["cores", "batched"])
def test_workload_report_latency_excludes_lost_packets(dataplane):
    _, report, _ = _run(
        _configs(channels=2, packets=10), dataplane,
        rx_fraction=0.5, loss_rate=0.5,
    )
    assert len(report.latencies) == report.packets_done
    assert report.packets_done == 20 - report.rx_lost
