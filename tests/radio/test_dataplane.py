"""End-to-end batched dataplane: equivalence, flush policy, isolation.

The acceptance contract of the dataplane refactor: routing radio
traffic through the job-coalescing pipeline must produce *byte-
identical* secured packets to the packet-at-a-time core path — across
GCM/CCM channel mixes, ragged payloads and auth-failure injection —
while never touching the per-packet submit path, and the flush policy
(size threshold + sim-time idle deadline) must bound how long a queued
job can wait.
"""

from dataclasses import replace

import pytest

from repro.core.params import Algorithm, Direction
from repro.crypto.fast.bulk import ccm_seal, gcm_seal
from repro.mccp.channel import FlushPolicy
from repro.mccp.mccp import Mccp
from repro.radio.packet import Packet
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.sim.kernel import Simulator
from stepped_models import step_platform

KEY = bytes(range(16))

#: Batchable-only mix (no CTR): GCM voice/satcom + CCM wifi/wimax.
_MIXED_STANDARDS = (
    RadioStandard.TACTICAL_VOICE,
    RadioStandard.WIFI,
    RadioStandard.SATCOM,
    RadioStandard.WIMAX,
)


def _mixed_configs(channels: int, packets: int):
    configs = []
    for index in range(channels):
        standard = _MIXED_STANDARDS[index % len(_MIXED_STANDARDS)]
        key = bytes(32) if standard is RadioStandard.SATCOM else bytes(16)
        configs.append(
            ChannelConfig(
                standard, key, TrafficPattern.SATURATING, packets=packets
            )
        )
    return configs


def _secured_bytes(platform):
    """(channel, sequence) -> (payload, tag) for every completion."""
    return {
        (t.channel_id, t.sequence): (t.payload, t.tag)
        for t in platform.comm.completed.values()
    }


def _run(configs, dataplane, seed=11, **kwargs):
    platform = SdrPlatform(core_count=4, seed=seed)
    report = platform.run_workload(
        WorkloadSpec(configs, dataplane=dataplane, **kwargs)
    )
    return platform, report


def _assert_matches_sequential(platform):
    """Every secured packet equals the sequential one-call fast path
    (itself pinned byte-identical to the reference and core paths);
    returns how many were checked."""
    channels = platform.mccp.scheduler.channels
    checked = 0
    for transfer in platform.comm.completed.values():
        job = transfer.job
        channel = channels[transfer.channel_id]
        key = platform.mccp.key_memory.fetch_for_scheduler(channel.key_id)
        seal = gcm_seal if channel.algorithm is Algorithm.GCM else ccm_seal
        expected = seal(key, job.nonce, job.data, job.aad, channel.tag_length)
        assert transfer.ok and (transfer.payload, transfer.tag) == expected
        checked += 1
    return checked


def _comm_setup(algorithm=Algorithm.GCM, tag_length=16, policy=None):
    from repro.radio.comm_controller import CommController

    sim = Simulator()
    mccp = Mccp(sim)
    mccp.load_session_key(0, KEY)
    channel = mccp.open_channel(algorithm, 0, tag_length=tag_length)
    if policy is not None:
        channel.flush_policy = policy
    comm = CommController(sim, mccp, seed=5)
    return sim, mccp, channel, comm


# -- byte equivalence against the cycle-accurate core path ---------------------


def test_batched_matches_core_path_across_channel_mix():
    """Same workload, both dataplanes: identical bytes and counters."""
    configs = _mixed_configs(channels=8, packets=8)
    cores_platform, cores_report = _run(configs, "cores")
    batched_platform, batched_report = _run(
        configs,
        "batched",
        flush_policy=FlushPolicy(coalesce_limit=8, flush_deadline=4096),
    )
    assert _secured_bytes(batched_platform) == _secured_bytes(cores_platform)
    assert batched_report.packets_done == cores_report.packets_done == 64
    assert batched_report.payload_bytes == cores_report.payload_bytes
    # The removed per-packet submit path must never run.
    assert batched_report.core_submits == 0
    assert cores_report.core_submits == 64
    assert batched_report.batches > 0
    assert batched_report.queue_peak() > 1


def test_batched_at_acceptance_scale_stays_off_the_core_path():
    """8 channels x 64 packets, coalesce width 32, zero core submits."""
    configs = _mixed_configs(channels=8, packets=64)
    platform, report = _run(
        configs,
        "batched",
        flush_policy=FlushPolicy(coalesce_limit=32, flush_deadline=8192),
    )
    assert report.packets_done == 512
    assert report.core_submits == 0
    assert platform.mccp.scheduler.requests_submitted == 0
    assert report.batches >= 512 // 32
    assert sum(report.flush_causes.values()) == report.batches
    assert _assert_matches_sequential(platform) == 512


def test_ctr_channels_fall_back_to_the_cores_engine():
    """Non-batchable channels ride the same pipeline at width 1."""
    configs = _mixed_configs(channels=2, packets=4) + [
        ChannelConfig(
            RadioStandard.UMTS_LIKE,
            bytes(16),
            TrafficPattern.SATURATING,
            packets=4,
        )
    ]
    platform, report = _run(configs, "batched")
    assert report.packets_done == 12
    assert report.core_submits == 4  # the CTR channel only
    assert platform.mccp.scheduler.channels[2].stats.get("batches", 0) == 0


def test_two_core_ccm_falls_back_to_the_cores_engine():
    configs = [
        ChannelConfig(
            RadioStandard.WIFI,
            bytes(16),
            TrafficPattern.SATURATING,
            packets=3,
            two_core_ccm=True,
        )
    ]
    _, report = _run(configs, "batched")
    assert report.packets_done == 3
    assert report.core_submits == 3


def test_two_core_ccm_on_one_core_is_rejected():
    """No core pair ever frees on one core: the replay must not retry
    until its cycle limit.  The flag means nothing on a GCM channel."""
    configs = [
        ChannelConfig(RadioStandard.SATCOM, bytes(32), packets=1, two_core_ccm=True),
        ChannelConfig(RadioStandard.WIFI, bytes(16), packets=1, two_core_ccm=True),
    ]
    platform = SdrPlatform(core_count=1)
    with pytest.raises(ValueError, match=r"channel 1 \(WIFI\) splits CCM over two cores"):
        platform.run_workload(WorkloadSpec(configs, limit=2_000_000))
    report = SdrPlatform(core_count=1).run_workload(WorkloadSpec(configs[:1]))
    assert report.packets_done == 1


def _completions_per_channel(platform):
    """Each channel's ``(sequence, direction, ok, payload, tag, download
    cycle)`` in completion order."""
    rows = {}
    for t in platform.comm.completed.values():
        rows.setdefault(t.channel_id, []).append(
            (t.sequence, t.job.direction, t.ok, t.payload, t.tag, t.download_done_cycle)
        )
    return rows


@pytest.mark.parametrize("seed", [1, 2, 7, 13])
def test_one_core_rx_replay_reuses_the_core_on_the_download_end_cycle(seed):
    """On one core a decrypt's download ends on the cycle the next
    packet finds the core idle, and that packet's download starts before
    the first one's ``done`` has fired: the second run must not be
    refused.  The replay matches the stepped model cycle for cycle and
    the batched dataplane byte for byte."""
    configs = [
        ChannelConfig(
            RadioStandard.SATCOM, bytes([1, i + 1]) * 16, TrafficPattern.SATURATING,
            packets=2, payload_bytes=size,
        )
        for i, size in enumerate((2048, 256))
    ]
    replays = {}
    for arm in ("cores", "stepped", "batched"):
        platform = SdrPlatform(seed=seed, core_count=1)
        if arm == "stepped":
            step_platform(platform)
        platform.run_workload(WorkloadSpec(
            configs, dataplane="batched" if arm == "batched" else "cores",
            backend="inline", rx_fraction=0.25,
        ))
        replays[arm] = _completions_per_channel(platform)
    rows = [row for channel in replays["cores"].values() for row in channel]
    assert len(rows) == 4 and any(row[1] is Direction.DECRYPT for row in rows)
    assert replays["cores"] == replays["stepped"]

    def bytes_only(replay):
        return {channel: [row[:5] for row in rows] for channel, rows in replay.items()}

    assert bytes_only(replays["cores"]) == bytes_only(replays["batched"])


# -- ragged payloads and auth-failure injection --------------------------------


@pytest.mark.parametrize("algorithm,tag_length,nbytes", [
    (Algorithm.GCM, 16, 12),
    (Algorithm.CCM, 8, 13),
])
def test_ragged_roundtrip_with_tamper_injection(algorithm, tag_length, nbytes, rb):
    """Seal ragged packets, reopen with one forged tag mid-batch."""
    sim, mccp, channel, comm = _comm_setup(
        algorithm, tag_length, FlushPolicy(coalesce_limit=4, flush_deadline=None)
    )
    sizes = (1, 16, 48, 333, 1024, 2048, 7, 100)
    packets = [
        Packet(channel.channel_id, rb(12), rb(size), sequence=i)
        for i, size in enumerate(sizes)
    ]
    finished = sim.event("sealed")

    def seal_proc():
        jobs = [comm.submit_job(channel, p) for p in packets]
        yield from comm.flush_now(channel)
        finished.trigger(jobs)

    sim.add_process(seal_proc())
    jobs = sim.run_until_event(finished)
    sealed = [job.transfer for job in jobs]
    for packet, transfer in zip(packets, sealed):
        assert transfer.ok and len(transfer.tag) == tag_length
        assert len(transfer.payload) == len(packet.payload)

    tampered = 3
    reopened = sim.event("opened")

    def open_proc():
        jobs = []
        for i, (packet, transfer) in enumerate(zip(packets, sealed)):
            jobs.append(
                comm.submit_job(
                    channel,
                    Packet(
                        channel.channel_id,
                        packet.header,
                        transfer.payload,
                        sequence=packet.sequence,
                    ),
                    direction=Direction.DECRYPT,
                    nonce=comm.nonce_for(channel, packet.sequence),
                    tag=bytes(tag_length) if i == tampered else transfer.tag,
                )
            )
        yield from comm.flush_now(channel)
        reopened.trigger(jobs)

    sim.add_process(open_proc())
    open_jobs = sim.run_until_event(reopened)
    for i, (packet, job) in enumerate(zip(packets, open_jobs)):
        if i == tampered:
            assert not job.transfer.ok and job.transfer.payload == b""
        else:
            # Failed lanes must not perturb surviving lanes' outputs.
            assert job.transfer.ok
            assert job.transfer.payload == packet.payload
    assert channel.auth_failures == 1
    assert comm.auth_failures == 1
    assert len(comm.latencies) == 2 * len(packets)


# -- flush policy ---------------------------------------------------------------


def test_size_threshold_dispatches_without_explicit_flush():
    sim, _, channel, comm = _comm_setup(
        policy=FlushPolicy(coalesce_limit=4, flush_deadline=None)
    )
    jobs = []

    def proc():
        for i in range(4):
            jobs.append(comm.submit_job(channel, Packet(0, b"", b"x" * 32, sequence=i)))
        return
        yield  # pragma: no cover - makes this a generator

    sim.add_process(proc())
    sim.run()
    assert all(job.transfer is not None and job.transfer.ok for job in jobs)
    assert channel.stats["flush_size"] == 1
    assert channel.pending_count == 0


def test_idle_deadline_flushes_underfilled_batch():
    deadline = 600
    sim, _, channel, comm = _comm_setup(
        policy=FlushPolicy(coalesce_limit=32, flush_deadline=deadline)
    )
    jobs = []

    def proc():
        for i in range(3):
            jobs.append(comm.submit_job(channel, Packet(0, b"", b"y" * 64, sequence=i)))
        return
        yield  # pragma: no cover

    sim.add_process(proc())
    sim.run()
    assert all(job.transfer is not None for job in jobs)
    assert channel.stats["flush_deadline"] == 1
    # The batch left no earlier than the deadline, and the oldest job
    # waited at least the full deadline before dispatch began.
    assert all(job.completed_cycle >= deadline for job in jobs)


def test_size_only_policy_waits_for_explicit_drain():
    sim, _, channel, comm = _comm_setup(
        policy=FlushPolicy(coalesce_limit=8, flush_deadline=None)
    )
    jobs = []

    def enqueue_proc():
        for i in range(3):
            jobs.append(comm.submit_job(channel, Packet(0, b"", b"z" * 16, sequence=i)))
        return
        yield  # pragma: no cover

    sim.add_process(enqueue_proc())
    sim.run()
    assert channel.pending_count == 3
    assert all(job.transfer is None for job in jobs)

    def drain_proc():
        yield from comm.flush_now(channel)

    sim.add_process(drain_proc())
    sim.run()
    assert channel.pending_count == 0
    assert all(job.transfer is not None for job in jobs)
    assert channel.stats["flush_forced"] == 1


def test_deadline_zero_dispatches_on_the_enqueue_cycle():
    sim, _, channel, comm = _comm_setup(
        policy=FlushPolicy(coalesce_limit=32, flush_deadline=0)
    )
    jobs = []

    def proc():
        jobs.append(comm.submit_job(channel, Packet(0, b"", b"q" * 16)))
        return
        yield  # pragma: no cover

    sim.add_process(proc())
    sim.run()
    (job,) = jobs
    assert job.transfer is not None and job.transfer.ok
    assert channel.stats["flush_deadline"] == 1


def test_process_packet_is_the_width1_pipeline(rb):
    """The per-packet helper rides the same job abstraction."""
    sim, mccp, channel, comm = _comm_setup()
    done = sim.event("done")

    def proc():
        transfer = yield from comm.process_packet(
            channel, Packet(0, rb(8), rb(100), sequence=9)
        )
        done.trigger(transfer)

    sim.add_process(proc())
    transfer = sim.run_until_event(done, limit=10_000_000)
    assert transfer.ok
    assert transfer.job is not None and transfer.job.via_cores
    assert transfer.channel_id == channel.channel_id
    assert transfer.sequence == 9
    assert transfer.request is not None
    assert comm.completed[transfer.request.request_id] is transfer


def test_flush_policy_validation():
    with pytest.raises(ValueError):
        FlushPolicy(coalesce_limit=8, flush_deadline=-1)
    policy = FlushPolicy(coalesce_limit=0)
    assert policy.coalesce_limit == 1  # clamped


@pytest.mark.parametrize("coalesce,deadline", [(4, 2048), (1, 0), (32, 32768)])
def test_workload_report_dataplane_stats(coalesce, deadline):
    """From width-1 dispatches with no idle wait to wide batches with a
    long one: the stats add up and every packet equals the one-call
    fast path."""
    configs = _mixed_configs(channels=4, packets=8)
    platform, report = _run(
        configs,
        "batched",
        flush_policy=FlushPolicy(coalesce_limit=coalesce, flush_deadline=deadline),
    )
    assert _assert_matches_sequential(platform) == report.packets_done == 32
    assert report.core_submits == 0
    assert set(report.per_channel_queue_peak) == {0, 1, 2, 3}
    assert report.queue_peak() >= 1
    assert report.batches == sum(report.per_channel_batches.values())
    assert report.mean_batch_width() > 0
    assert report.backpressure_retries == 0


def test_nonce_spaces_are_disjoint_at_default_seed():
    """nonce_for must never collide with the next_nonce counter on a
    shared key — GCM/CCM nonce reuse would be catastrophic."""
    sim, _, channel, comm = _comm_setup()
    counter_nonces = {comm.next_nonce(channel.algorithm) for _ in range(64)}
    deterministic = {comm.nonce_for(channel, seq) for seq in range(64)}
    assert not counter_nonces & deterministic
    # Marker bit: every deterministic nonce has the top bit set.
    assert all(n[0] & 0x80 for n in deterministic)
    assert all(not n[0] & 0x80 for n in counter_nonces)


def test_reused_platform_reports_per_run_counters():
    """A second run_workload on one platform must not inherit the
    first run's submits/latencies (cores-then-batched comparison)."""
    platform = SdrPlatform(core_count=4, seed=2)
    configs = _mixed_configs(channels=2, packets=4)
    first = platform.run_workload(WorkloadSpec(configs, dataplane="cores"))
    assert first.core_submits == 8 and len(first.latencies) == 8
    second = platform.run_workload(
        WorkloadSpec(_mixed_configs(channels=2, packets=4), dataplane="batched")
    )
    assert second.core_submits == 0
    assert second.backpressure_retries == 0
    assert len(second.latencies) == 8
    assert second.mean_batch_width() > 0


def test_reused_platform_replays_its_workload():
    """A second run on one platform starts its arrivals, its cycle
    budget and its cycle count at the run's start, so it reports what a
    fresh platform does.  The budget covers one run (3,179 cycles) but
    not two back to back."""
    spec = WorkloadSpec(
        _mixed_configs(channels=2, packets=4), dataplane="batched", limit=3_400
    )
    fresh = SdrPlatform(core_count=4, seed=2).run_workload(spec)
    platform = SdrPlatform(core_count=4, seed=2)
    platform.run_workload(spec)
    again = platform.run_workload(
        replace(spec, configs=_mixed_configs(channels=2, packets=4))
    )
    assert again.total_cycles == fresh.total_cycles
    assert sorted(again.latencies) == sorted(fresh.latencies)
    assert again.throughput_mbps() == fresh.throughput_mbps()


# -- execution backends ---------------------------------------------------------


def test_backends_byte_identical_and_identically_ordered():
    """Acceptance: the 8-channel mixed GCM/CCM workload produces the
    same secured bytes AND the same CompletedTransfer ordering under
    inline and process execution (rx traffic included, so the seal/open
    split genuinely exercises both directions)."""
    from repro.crypto.fast.exec import ProcessPoolBackend

    def run(backend):
        platform = SdrPlatform(core_count=4, seed=11)
        report = platform.run_workload(
            WorkloadSpec(
                _mixed_configs(channels=8, packets=8),
                dataplane="batched",
                flush_policy=FlushPolicy(coalesce_limit=8, flush_deadline=4096),
                backend=backend,
                rx_fraction=0.4,
                corrupt_rate=0.2,
            )
        )
        order = [
            (t.channel_id, t.sequence)
            for t in platform.comm.completed.values()
        ]
        return report, order, _secured_bytes(platform)

    inline_report, inline_order, inline_bytes = run(None)
    process_backend = ProcessPoolBackend(workers=2)
    try:
        report, order, secured = run(process_backend)
        assert secured == inline_bytes
        assert order == inline_order
        assert report.total_cycles == inline_report.total_cycles
        assert report.auth_failures == inline_report.auth_failures
        assert report.core_submits == 0
    finally:
        process_backend.close()
    assert inline_report.auth_failures > 0  # the split saw both sweeps


def test_run_workload_backend_is_scoped_to_the_run():
    platform = SdrPlatform(core_count=4, seed=3)
    assert platform.comm.backend is None
    platform.run_workload(
        WorkloadSpec(
            _mixed_configs(channels=2, packets=4),
            dataplane="batched",
            backend="process:2",
        )
    )
    assert platform.comm.backend is None  # restored after the run


def test_close_refused_while_batch_in_flight():
    """A popped batch mid-dispatch must still block channel teardown:
    the jobs have left `pending` but their completions haven't fired,
    and closing in that window would silently drop them."""
    from repro.errors import ChannelError

    sim, mccp, channel, comm = _comm_setup(
        policy=FlushPolicy(coalesce_limit=2, flush_deadline=None)
    )

    def enqueue():
        comm.submit_job(channel, Packet(0, b"", b"a" * 64, sequence=0))
        comm.submit_job(channel, Packet(0, b"", b"b" * 64, sequence=1))
        return
        yield  # pragma: no cover

    sim.add_process(enqueue())
    # The size-triggered drain pops the batch, then yields simulated
    # control/transfer time; stop inside that window.
    sim.run(until=5)
    assert channel.pending_count == 0 and channel.in_flight == 2
    with pytest.raises(ChannelError, match="in flight"):
        mccp.close_channel(channel.channel_id)
    sim.run()
    assert channel.in_flight == 0
    mccp.close_channel(channel.channel_id)
