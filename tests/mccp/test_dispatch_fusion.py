"""Deferred dispatches resolve together at one barrier.

An inline dispatch computes nothing when submitted.  The barrier — a
``DispatchHandle.gather`` handle over the run's deferred dispatches,
or ``batch.resolve_deferred`` one layer down — computes all of them in
one engine call (``batch._seal_open_whole``), whose CBC-MAC chains,
counter runs and GHASH lanes are shared across keys and modes.  The
barrier may only move wall-clock work: every dispatch returns exactly
what it returns resolved alone, a poisoned packet still quarantines
alone, an engine error still surfaces at its own dispatch's
collection, arena dispatches are never deferred, and a drain
interrupted after submitting leaks no arena generation.
"""

import hashlib
import random

import pytest

from repro.core.params import Algorithm, Direction
from repro.crypto.fast import batch
from repro.crypto.fast.bulk import ccm_seal, gcm_seal
from repro.crypto.fast.exec import ProcessPoolBackend
from repro.mccp.channel import PacketJob
from repro.mccp.mccp import DispatchHandle, Mccp
from repro.radio.comm_controller import CommController
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, set_fault_plan
from repro.sim.kernel import Simulator
from tests.conftest import enqueue

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


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture
def groups_seen(monkeypatch):
    """Dispatch counts of every engine call, and what it raised."""
    seen = []
    engine = batch._seal_open_whole

    def spy(dispatches):
        try:
            result = engine(dispatches)
        except Exception as exc:
            seen.append((len(dispatches), type(exc).__name__))
            raise
        seen.append((len(dispatches), None))
        return result

    monkeypatch.setattr(batch, "_seal_open_whole", spy)
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
                enqueue(device, channel.channel_id, data, b"hdr", nonce=nonce)
                continue
            ciphertext, tag = seal(KEYS[key_id], nonce, data, b"hdr", tag_length)
            if sequence % 6 == 5:
                tag = bytes(tag_length)  # forged
            enqueue(
                device, channel.channel_id, ciphertext, b"hdr",
                Direction.DECRYPT, nonce=nonce, tag=tag,
            )
    return device, channels


def _rows(results):
    return [(r.ok, r.payload, r.tag, r.error) for r in results]


def _run(fused, plan=None, extra_job=None):
    """Dispatch every channel's batch; *fused* submits all, then the
    barrier collects them.

    Unfused, each dispatch is collected before the next is submitted,
    so it always resolves alone.  *extra_job* ``(index, job)`` appends
    a job to one channel's batch after the queue's checks.  The plan
    is active only while the batches are submitted: which packets
    quarantine is decided there.  Arena dispatches are never deferred,
    so every dispatch names the inline backend instead of taking the
    process-wide default.
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
                device.dispatch_jobs_async(channel.channel_id, jobs, "inline")
                for channel, jobs in zip(channels, batches)
            ]
        else:
            results = [
                device.dispatch_jobs_async(channel.channel_id, jobs, "inline").result()
                for channel, jobs in zip(channels, batches)
            ]
    finally:
        set_fault_plan(previous)
    if fused:
        gathered = DispatchHandle.gather(handles).result()
        results = [handle.result() for handle in handles]
        assert gathered == [row for rows in results for row in rows]
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
    # One engine call for every dispatch, CCM and GCM alike.
    assert groups_seen == [(len(CHANNELS), None)]
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
    # The poisoned packet was set aside at submission; every dispatch,
    # its own included, joined the one engine call.
    assert groups_seen == [(len(CHANNELS), None)]
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
    # The shared call raised; every dispatch then computed alone.
    assert groups_seen[0] == (len(CHANNELS), "NonceError")
    assert len(groups_seen) > len(CHANNELS)
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


def test_gcm_joins_the_barrier_and_arena_handles_stay_out(process_backend, monkeypatch):
    if process_backend.dispatch_arena() is None:
        pytest.skip(f"process backend runs inline: {process_backend.inline_reason}")
    key = KEYS[0]
    whole_calls = []
    whole = batch._seal_open_whole
    monkeypatch.setattr(
        batch, "_seal_open_whole",
        lambda dispatches: whole_calls.append(
            [mode for mode, *_ in dispatches]
        ) or whole(dispatches),
    )
    ccm_packets = [[(n[:13], d, a)] for n, d, a in _packets(2, 3)]
    gcm = batch.seal_open_submit("gcm", key, _packets(4, 1), [])
    arena = batch.seal_open_submit(
        "ccm", key, [(n[:13], d, a) for n, d, a in _packets(16, 2)], [],
        backend=process_backend,
    )
    ccm = [batch.seal_open_submit("ccm", key, seals, []) for seals in ccm_packets]
    assert [h.deferred for h in (gcm, arena, *ccm)] == [True, False, True, True]
    batch.resolve_deferred([gcm, arena, *ccm])
    assert not any(h.deferred for h in (gcm, *ccm))
    assert whole_calls == [["gcm", "ccm", "ccm"]]  # one call, both modes
    sealed, _ = gcm.result()
    fused = [h.result() for h in ccm]
    assert len(whole_calls) == 1  # nothing resolved again
    arena.result()
    assert process_backend.dispatch_arena().live_generations == 0
    assert sealed == batch.gcm_seal_many(key, _packets(4, 1))
    assert fused == [batch.seal_open_many("ccm", key, seals, []) for seals in ccm_packets]


def test_interrupted_drain_releases_its_arena_generation(process_backend):
    arena = process_backend.dispatch_arena()
    if arena is None:
        pytest.skip(f"process backend runs inline: {process_backend.inline_reason}")
    sim = Simulator()
    device = Mccp(sim)
    device.load_session_key(0, KEYS[0])
    channel = device.open_channel(Algorithm.CCM, 0)
    for sequence in range(16):
        enqueue(device, channel.channel_id, bytes(100), nonce=_nonce(channel, sequence))
    comm = CommController(sim, device, backend=process_backend)
    drain = comm._drain_channel(channel, force=True, cause="forced")
    next(drain)  # submitted; asleep in the control charge
    assert channel.in_flight == 16 and arena.live_generations == 1
    drain.close()
    assert channel.in_flight == 0
    assert arena.live_generations == 0
    assert comm._unresolved == []  # nothing left for a barrier to compute


def _perfbench_key(seed, index, standard):
    size = STANDARD_PROFILES[standard].key_bits // 8
    return hashlib.sha256(f"perfbench-key|{seed}|{index}".encode()).digest()[:size]


def test_radio_bulk_shaped_replay_runs_two_mac_sweeps(monkeypatch):
    """perfbench's radio_bulk input (seed 1): 1 rx pre-seal + 1 barrier."""
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
    assert len(sweeps) == 2
    assert sum(sweeps) <= 400
