"""In-flight CCM dispatches resolve together.

``Mccp`` keeps the batch-engine handles of its in-flight dispatches.
The first collection that still has to compute resolves every inline
CCM one in a single multi-key engine call
(``batch.resolve_together``), whose CBC-MAC chains share one lane
sweep.  Fusion may only move wall-clock work: every dispatch returns
exactly what it returns resolved alone, a poisoned packet still
quarantines alone, an engine error still surfaces at its own
dispatch's collection, GCM and arena dispatches never fuse, and a
drain interrupted after submitting leaks no arena generation.
"""

import hashlib
import random

import pytest

from repro.core.params import Algorithm, Direction
from repro.crypto.fast import batch
from repro.crypto.fast.bulk import ccm_seal, gcm_seal
from repro.crypto.fast.exec import ProcessPoolBackend
from repro.mccp.channel import PacketJob
from repro.mccp.mccp import Mccp
from repro.radio.comm_controller import CommController
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, set_fault_plan
from repro.sim.kernel import Simulator

#: Key memory: three AES-128 keys, one AES-256 key, one GCM key.
KEYS = (bytes([1]) * 16, bytes([2]) * 16, bytes([3]) * 16, bytes([4]) * 32, bytes([5]) * 16)
#: Five CCM channels (key 1 shared by two) and one GCM channel.
CHANNELS = (
    (Algorithm.CCM, 0, 16),
    (Algorithm.CCM, 1, 8),
    (Algorithm.CCM, 1, 12),
    (Algorithm.CCM, 2, 4),
    (Algorithm.CCM, 3, 16),
    (Algorithm.GCM, 4, 16),
)
CCM_CHANNELS = sum(algorithm is Algorithm.CCM for algorithm, _, _ in CHANNELS)


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture
def groups_seen(monkeypatch):
    """Group counts of every multi-key engine call, and what it raised."""
    seen = []
    engine = batch._ccm_seal_open_groups

    def spy(groups):
        try:
            result = engine(groups)
        except Exception as exc:
            seen.append((len(groups), type(exc).__name__))
            raise
        seen.append((len(groups), None))
        return result

    monkeypatch.setattr(batch, "_ccm_seal_open_groups", spy)
    return seen


def _nonce(channel, sequence):
    size = 13 if channel.algorithm is Algorithm.CCM else 12
    return (channel.channel_id << 16 | sequence + 1).to_bytes(size, "big")


def _device(packets=6):
    """A device with every channel's batch queued (mixed directions)."""
    device = Mccp(Simulator())
    for key_id, key in enumerate(KEYS):
        device.load_session_key(key_id, key)
    channels = []
    for algorithm, key_id, tag_length in CHANNELS:
        channel = device.open_channel(algorithm, key_id, tag_length)
        channels.append(channel)
        rng = random.Random(channel.channel_id)
        seal = ccm_seal if algorithm is Algorithm.CCM else gcm_seal
        for sequence in range(packets):
            nonce = _nonce(channel, sequence)
            data = rng.randbytes(rng.choice((0, 17, 64, 300)))
            if sequence % 3 != 2:
                device.enqueue_packet(channel.channel_id, data, b"hdr", nonce=nonce)
                continue
            ciphertext, tag = seal(KEYS[key_id], nonce, data, b"hdr", tag_length)
            if sequence % 6 == 5:
                tag = bytes(tag_length)  # forged
            device.enqueue_packet(
                channel.channel_id, ciphertext, b"hdr",
                Direction.DECRYPT, nonce=nonce, tag=tag,
            )
    return device, channels


def _rows(results):
    return [(r.ok, r.payload, r.tag, r.error) for r in results]


def _run(fused, plan=None, extra_job=None):
    """Dispatch every channel's batch; *fused* submits all, then collects.

    Unfused, each dispatch is collected before the next is submitted,
    so it always resolves alone.  *extra_job* ``(index, job)`` appends
    a job to one channel's batch after the queue's checks.
    """
    device, channels = _device()
    batches = [channel.take_batch() for channel in channels]
    if extra_job is not None:
        index, job = extra_job
        job.channel_id = channels[index].channel_id
        batches[index].append(job)
    previous = set_fault_plan(plan)
    try:
        if fused:
            handles = [
                device.dispatch_jobs_async(channel.channel_id, jobs)
                for channel, jobs in zip(channels, batches)
            ]
            results = [handle.result() for handle in handles]
        else:
            results = [
                device.dispatch_jobs(channel.channel_id, jobs)
                for channel, jobs in zip(channels, batches)
            ]
    finally:
        set_fault_plan(previous)
    counters = [
        (c.packets_processed, c.bytes_processed, c.auth_failures, dict(c.stats),
         [job.nonce for job in c.dead_letters])
        for c in channels
    ]
    return [_rows(r) for r in results], counters


def test_fused_members_return_their_solo_results(groups_seen):
    solo, solo_counters = _run(fused=False)
    assert {count for count, _ in groups_seen} == {1}
    groups_seen.clear()
    fused, fused_counters = _run(fused=True)
    assert fused == solo
    assert fused_counters == solo_counters
    # One engine call for every CCM dispatch; the others found theirs done.
    assert groups_seen == [(CCM_CHANNELS, None)]
    assert any(not ok for rows in fused for ok, _p, _t, _e in rows)


def test_poisoned_member_quarantines_alone(groups_seen):
    clean, _ = _run(fused=False)
    device, channels = _device()
    victim_channel, victim_sequence = 2, 1
    victim = _nonce(channels[victim_channel], victim_sequence)

    def plan():
        faults = FaultPlan(seed=3)
        faults.poison(victim)
        return faults

    solo, solo_counters = _run(fused=False, plan=plan())
    groups_seen.clear()
    fused, fused_counters = _run(fused=True, plan=plan())
    assert fused == solo
    assert fused_counters == solo_counters
    # The poisoned dispatch sat out; the rest fused.
    assert groups_seen[0] == (CCM_CHANNELS - 1, None)
    dead = [
        (index, nonce)
        for index, (*_, dead_letters) in enumerate(fused_counters)
        for nonce in dead_letters
    ]
    assert dead == [(victim_channel, victim)]
    for index, rows in enumerate(fused):
        for sequence, row in enumerate(rows):
            if (index, sequence) == (victim_channel, victim_sequence):
                assert row[0] is False and "injected" in row[3]
            else:
                assert row == clean[index][sequence]


def test_engine_error_surfaces_at_its_own_collection(groups_seen):
    def bad_job():
        # A 6-byte CCM nonce: the queue would refuse it, the engine raises.
        return PacketJob(Direction.ENCRYPT, b"\x07" * 6, b"payload", b"hdr")

    clean, _ = _run(fused=False)
    solo, solo_counters = _run(fused=False, extra_job=(1, bad_job()))
    groups_seen.clear()
    fused, fused_counters = _run(fused=True, extra_job=(1, bad_job()))
    assert groups_seen[0] == (CCM_CHANNELS, "NonceError")
    assert fused == solo
    assert fused_counters == solo_counters
    assert fused[1][-1][0] is False and "nonce" in fused[1][-1][3].lower()
    assert fused[1][:-1] == clean[1]
    assert fused[:1] + fused[2:] == clean[:1] + clean[2:]


def _packets(count, seed):
    rng = random.Random(seed)
    return [
        ((seed << 8 | index + 1).to_bytes(12, "big"), rng.randbytes(64), b"a")
        for index in range(count)
    ]


def test_gcm_and_arena_handles_do_not_fuse(process_backend, monkeypatch):
    if process_backend.dispatch_arena() is None:
        pytest.skip(f"process backend runs inline: {process_backend.inline_reason}")
    key = KEYS[0]
    whole_calls = []
    whole = batch._seal_open_whole
    monkeypatch.setattr(
        batch, "_seal_open_whole",
        lambda *args: whole_calls.append(args[0]) or whole(*args),
    )
    ccm_packets = [[(n[:13], d, a)] for n, d, a in _packets(2, 3)]
    gcm = batch.seal_open_submit("gcm", key, _packets(4, 1), [])
    arena = batch.seal_open_submit(
        "ccm", key, [(n[:13], d, a) for n, d, a in _packets(16, 2)], [],
        backend=process_backend,
    )
    ccm = [batch.seal_open_submit("ccm", key, seals, []) for seals in ccm_packets]
    assert [h.fusable for h in (gcm, arena, *ccm)] == [False, False, True, True]
    batch.resolve_together([gcm, arena, *ccm])
    assert not any(h.fusable for h in ccm)
    fused = [h.result() for h in ccm]
    assert whole_calls == []  # resolved together, not one by one
    sealed, _ = gcm.result()
    assert whole_calls == ["gcm"]  # the GCM handle resolved alone
    arena.result()
    assert process_backend.dispatch_arena().live_generations == 0
    assert sealed == batch.gcm_seal_many(key, _packets(4, 1))
    assert fused == [batch.seal_open_many("ccm", key, seals, []) for seals in ccm_packets]


def test_interrupted_drain_releases_its_arena_generation(process_backend):
    arena = process_backend.dispatch_arena()
    if arena is None:
        pytest.skip(f"process backend runs inline: {process_backend.inline_reason}")
    sim = Simulator()
    device = Mccp(sim, backend=process_backend)
    device.load_session_key(0, KEYS[0])
    channel = device.open_channel(Algorithm.CCM, 0)
    for sequence in range(16):
        device.enqueue_packet(
            channel.channel_id, bytes(100), nonce=_nonce(channel, sequence)
        )
    comm = CommController(sim, device, backend=process_backend)
    drain = comm._drain_channel(channel, force=True, cause="forced")
    next(drain)  # submitted; asleep in the control charge
    assert channel.in_flight == 16 and arena.live_generations == 1
    drain.close()
    assert channel.in_flight == 0
    assert arena.live_generations == 0
    assert not any(handle.fusable for handle in device._in_flight)


def _perfbench_key(seed, index, standard):
    size = STANDARD_PROFILES[standard].key_bits // 8
    return hashlib.sha256(f"perfbench-key|{seed}|{index}".encode()).digest()[:size]


def test_radio_bulk_shaped_replay_runs_three_mac_sweeps(monkeypatch):
    """perfbench's radio_bulk input (seed 1): 1 rx pre-seal + 2 rounds."""
    standards = (RadioStandard.WIFI,) * 2 + (RadioStandard.WIMAX,) * 2 + (
        RadioStandard.SATCOM,
    ) * 2
    configs = [
        ChannelConfig(
            standard, _perfbench_key(1, index, standard),
            TrafficPattern.SATURATING, packets=64,
        )
        for index, standard in enumerate(standards)
    ]
    sweeps = []
    for name in ("_cbc_mac_lanes_vector", "_cbc_mac_lanes_scalar"):
        engine = getattr(batch, name)

        def counting(schedules, messages, iv, engine=engine):
            sweeps.append(max(len(message) // 16 for message in messages))
            return engine(schedules, messages, iv)

        monkeypatch.setattr(batch, name, counting)
    report = SdrPlatform(seed=1).run_workload(
        WorkloadSpec(
            configs, dataplane="batched", backend="inline",
            rx_fraction=0.25, corrupt_rate=0.02,
        )
    )
    assert report.packets_done == 6 * 64
    assert len(sweeps) == 3
    assert sum(sweeps) <= 400
