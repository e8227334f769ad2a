"""A channel's flush policy: two static knobs that move latency, not bytes.

``FlushPolicy`` sets when queued jobs dispatch (``coalesce_limit``,
``flush_deadline``).  On each traffic profile below, every static policy
secures the same bytes in the same simulated cycles; a shorter deadline
only shortens the time a packet waits for batch-mates.  The pinned
figures are README's "Choosing a flush policy" table.
"""

import hashlib

import pytest

from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern

SEED = 7

#: From the lowest-latency to the widest batching.
POLICIES = {
    "narrow": FlushPolicy(coalesce_limit=4, flush_deadline=512),
    "default": FlushPolicy(),
    "wide": FlushPolicy(coalesce_limit=128, flush_deadline=32768),
}

#: profile -> (cycles under every policy, mean latency us per policy).
README_TABLE = {
    "steady": (476_409, (6.81, 43.86, 162.43)),
    "bursty": (908_777, (23.56, 69.22, 186.44)),
    "mixed": (57_000_132, (497.81, 567.25, 764.53)),
}


def _profile(name):
    if name == "steady":
        return [
            ChannelConfig(RadioStandard.WIFI, deterministic_bytes(16, SEED + i),
                          TrafficPattern.CBR, packets=12)
            for i in range(4)
        ]
    if name == "bursty":
        return [
            ChannelConfig(
                RadioStandard.WIFI if i % 2 else RadioStandard.WIMAX,
                deterministic_bytes(16, SEED + i),
                TrafficPattern.BURSTY,
                packets=24,
            )
            for i in range(4)
        ]
    # Sustained 2 KB bulk sharing the platform with control-class voice.
    return [
        ChannelConfig(RadioStandard.SATCOM, deterministic_bytes(32, SEED + i),
                      TrafficPattern.SATURATING, packets=192)
        for i in range(2)
    ] + [
        ChannelConfig(
            RadioStandard.TACTICAL_VOICE, deterministic_bytes(16, SEED + 10 + i),
            TrafficPattern.CBR, packets=16, priority=0,
        )
        for i in range(2)
    ]


def _run(profile, policy):
    """Replay one profile; returns (report, digest of every secured packet)."""
    platform = SdrPlatform(core_count=4, seed=SEED)
    report = platform.run_workload(
        WorkloadSpec(
            configs=_profile(profile), dataplane="batched",
            flush_policy=policy, backend="inline",
        )
    )
    digest = hashlib.sha256()
    for transfer in sorted(
        (t for t in platform.comm.completed.values() if t.job is not None),
        key=lambda t: (t.channel_id, t.sequence),
    ):
        digest.update(transfer.payload)
        digest.update(transfer.tag or b"")
    return report, digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(README_TABLE))
def profile_runs(request):
    runs = {name: _run(request.param, policy) for name, policy in POLICIES.items()}
    return request.param, runs


def test_static_policies_secure_the_same_bytes_in_the_same_cycles(profile_runs):
    profile, runs = profile_runs
    cycles, _ = README_TABLE[profile]
    assert len({digest for _, digest in runs.values()}) == 1
    assert {report.total_cycles for report, _ in runs.values()} == {cycles}
    done = {report.packets_done for report, _ in runs.values()}
    assert len(done) == 1 and done.pop() > 0


def test_a_shorter_deadline_lowers_mean_latency(profile_runs):
    profile, runs = profile_runs
    _, pinned = README_TABLE[profile]
    latency = tuple(round(runs[name][0].mean_latency_us(), 2) for name in POLICIES)
    assert latency == pinned
    assert list(latency) == sorted(latency)


def test_every_channel_runs_the_specs_policy():
    policy = POLICIES["narrow"]
    platform = SdrPlatform(core_count=4, seed=SEED)
    platform.run_workload(
        WorkloadSpec(_profile("steady"), dataplane="batched", flush_policy=policy,
                     backend="inline")
    )
    channels = list(platform.mccp.scheduler.channels.values())
    assert channels and all(channel.flush_policy is policy for channel in channels)

