"""The MCCP batched submission path (enqueue -> coalesce -> dispatch).

The channel layer's batch path must produce exactly the reference
crypto, honour the per-channel coalescing knob, keep per-packet auth
failures isolated, and account statistics the way the per-packet path
does.
"""

import random
from dataclasses import FrozenInstanceError

import pytest

from repro.core.params import Algorithm, Direction
from repro.crypto.modes.ccm import ccm_encrypt
from repro.crypto.modes.gcm import gcm_encrypt
from repro.crypto.modes.gmac import gmac
from repro.errors import ChannelError, ProtocolError
from repro.mccp.channel import DEFAULT_COALESCE_LIMIT, FlushPolicy
from repro.mccp.mccp import Mccp
from repro.sim.kernel import Simulator
from tests.conftest import drain, enqueue


@pytest.fixture
def mccp():
    device = Mccp(Simulator())
    device.load_session_key(1, bytes(range(16)))
    return device


KEY = bytes(range(16))


def _nonce(index: int, nbytes: int) -> bytes:
    return (index + 1).to_bytes(nbytes, "big")


@pytest.mark.parametrize(
    "algorithm,key_bytes,tag_length,nonce_bytes",
    [(Algorithm.GCM, 16, 16, 12), (Algorithm.CCM, 24, 8, 13), (Algorithm.CCM, 32, 8, 13)],
    ids=["gcm-128", "ccm-192", "ccm-256"],
)
def test_batch_matches_reference_and_coalesces(algorithm, key_bytes, tag_length, nonce_bytes):
    key = bytes(range(key_bytes))
    device = Mccp(Simulator())
    device.load_session_key(1, key)
    channel = device.open_channel(algorithm, 1, tag_length=tag_length)
    channel.flush_policy = FlushPolicy(coalesce_limit=4)
    rng = random.Random(0xA0)
    payloads = [rng.randbytes(rng.choice((0, 60, 300, 2048))) for _ in range(11)]
    for index, payload in enumerate(payloads):
        depth = enqueue(
            device, channel.channel_id, payload, b"hdr", nonce=_nonce(index, nonce_bytes)
        )
        assert depth == index + 1
    assert channel.pending_count == 11
    results = drain(device, channel.channel_id)
    assert channel.pending_count == 0
    assert channel.stats["batches"] == 3  # 4 + 4 + 3 under the knob
    encrypt = gcm_encrypt if algorithm is Algorithm.GCM else ccm_encrypt
    for index, (payload, result) in enumerate(zip(payloads, results)):
        nonce = _nonce(index, nonce_bytes)
        expected = encrypt(key, nonce, payload, b"hdr", tag_length, False)
        assert result.ok and (result.payload, result.tag) == expected
    assert channel.packets_processed == 11
    assert channel.bytes_processed == sum(len(p) for p in payloads)


def test_decrypt_batch_isolates_tampered_packet(mccp):
    channel = mccp.open_channel(Algorithm.CCM, 1, tag_length=8)
    rng = random.Random(0xA1)
    payloads = [rng.randbytes(rng.randrange(1, 400)) for _ in range(9)]
    for index, payload in enumerate(payloads):
        enqueue(mccp, channel.channel_id, payload, nonce=_nonce(index, 13))
    sealed = drain(mccp, channel.channel_id)
    for index, result in enumerate(sealed):
        enqueue(
            mccp, channel.channel_id,
            result.payload,
            direction=Direction.DECRYPT,
            nonce=_nonce(index, 13),
            tag=bytes(8) if index == 4 else result.tag,
        )
    opened = drain(mccp, channel.channel_id)
    for index, (payload, result) in enumerate(zip(payloads, opened)):
        if index == 4:
            assert not result.ok and result.payload == b""
        else:
            assert result.ok and result.payload == payload
    assert channel.auth_failures == 1


def test_mixed_direction_batch_keeps_submission_order(mccp):
    channel = mccp.open_channel(Algorithm.GCM, 1)
    plaintext = b"interleaved"
    ct, tag = gcm_encrypt(KEY, _nonce(100, 12), plaintext, b"", 16, True)
    enqueue(mccp, channel.channel_id, b"first", nonce=_nonce(0, 12))
    enqueue(
        mccp, channel.channel_id,
        ct,
        direction=Direction.DECRYPT,
        nonce=_nonce(100, 12),
        tag=tag,
    )
    enqueue(mccp, channel.channel_id, b"third", nonce=_nonce(2, 12))
    first, second, third = drain(mccp, channel.channel_id)
    assert (first.payload, first.tag) == gcm_encrypt(
        KEY, _nonce(0, 12), b"first", b"", 16, False
    )
    assert second.ok and second.payload == plaintext and second.tag is None
    assert (third.payload, third.tag) == gcm_encrypt(
        KEY, _nonce(2, 12), b"third", b"", 16, False
    )


def test_gmac_rides_gcm_with_empty_payload(mccp):
    channel = mccp.open_channel(Algorithm.GCM, 1)
    aad = b"authenticated-only data"
    enqueue(mccp, channel.channel_id, b"", aad, nonce=_nonce(0, 12))
    (result,) = drain(mccp, channel.channel_id)
    assert result.payload == b""
    assert result.tag == gmac(KEY, _nonce(0, 12), aad)


def test_enqueue_validation(mccp):
    channel = mccp.open_channel(Algorithm.GCM, 1)
    with pytest.raises(ChannelError):
        enqueue(mccp, 99, b"x", nonce=bytes(12))
    with pytest.raises(ProtocolError):
        enqueue(mccp, channel.channel_id, b"x")  # no nonce
    with pytest.raises(ProtocolError):
        enqueue(
            mccp, channel.channel_id, b"x", direction=Direction.DECRYPT, nonce=bytes(12)
        )  # no tag
    ctr_channel = mccp.open_channel(Algorithm.CTR, 1)
    with pytest.raises(ProtocolError):
        enqueue(mccp, ctr_channel.channel_id, b"x", nonce=bytes(16))


def test_enqueue_rejects_truncated_decrypt_tag(mccp):
    """A forger must not get to pick a shorter (weaker) tag length."""
    channel = mccp.open_channel(Algorithm.GCM, 1)
    ciphertext, tag = gcm_encrypt(KEY, bytes(12), b"payload", b"", 16, False)
    with pytest.raises(ProtocolError, match="16-byte tags, got 4"):
        enqueue(
            mccp, channel.channel_id,
            ciphertext,
            direction=Direction.DECRYPT,
            nonce=bytes(12),
            tag=tag[:4],  # 4 is itself a valid GCM tag length
        )
    assert channel.pending_count == 0


def test_enqueue_rejects_invalid_gcm_channel_tag_length(mccp):
    """open_channel accepts any tag_length; the batch path must refuse
    it at enqueue rather than lose the batch to a flush-time TagError."""
    channel = mccp.open_channel(Algorithm.GCM, 1, tag_length=5)
    with pytest.raises(ProtocolError, match="tag length 5"):
        enqueue(mccp, channel.channel_id, b"x", nonce=bytes(12))
    assert channel.pending_count == 0


def test_enqueue_rejects_malformed_ccm_packets_before_queueing(mccp):
    """Bad sizes must surface at enqueue; a flush-time error would drop
    the whole already-popped batch."""
    channel = mccp.open_channel(Algorithm.CCM, 1, tag_length=8)
    enqueue(mccp, channel.channel_id, b"ok", nonce=_nonce(0, 13))
    with pytest.raises(Exception, match="[Nn]once"):
        enqueue(mccp, channel.channel_id, b"x", nonce=bytes(16))
    with pytest.raises(Exception, match="payload"):
        # 13-byte nonce leaves a 2-byte length field: 64 KiB max payload.
        enqueue(mccp, channel.channel_id, bytes(70000), nonce=_nonce(1, 13))
    assert channel.pending_count == 1  # rejected packets never queued
    results = drain(mccp, channel.channel_id)
    assert len(results) == 1 and results[0].ok


def test_close_rejects_pending_batch_packets(mccp):
    channel = mccp.open_channel(Algorithm.GCM, 1)
    enqueue(mccp, channel.channel_id, b"x", nonce=bytes(12))
    with pytest.raises(ChannelError, match="queued for batched dispatch"):
        mccp.close_channel(channel.channel_id)
    drain(mccp, channel.channel_id)
    mccp.close_channel(channel.channel_id)


def test_enqueue_job_and_dispatch_jobs_async_stamp_results(mccp):
    """The job-level API the communication controller drives."""
    from repro.mccp.channel import PacketJob

    channel = mccp.open_channel(Algorithm.GCM, 1)
    jobs = [
        PacketJob(
            direction=Direction.ENCRYPT,
            nonce=_nonce(i, 12),
            data=bytes([i]) * 20,
            sequence=i,
        )
        for i in range(3)
    ]
    for job in jobs:
        mccp.enqueue_job(channel.channel_id, job)
        assert job.channel_id == channel.channel_id
    batch = channel.take_batch()
    results = mccp.dispatch_jobs_async(channel.channel_id, batch).result()
    for job, result in zip(jobs, results):
        assert job.result is result and result.ok
        expected = gcm_encrypt(KEY, job.nonce, job.data, b"", 16, False)
        assert (result.payload, result.tag) == expected
    assert channel.stats["batches"] == 1
    assert channel.stats["queue_peak"] == 3


def test_dispatch_handle_collects_once(mccp):
    """result() stamps, counts and calls back once; later drains and
    late callbacks see the same results."""
    channel = mccp.open_channel(Algorithm.GCM, 1)
    for i in range(3):
        enqueue(mccp, channel.channel_id, bytes([i]) * 20, nonce=_nonce(i, 12))
    handle = mccp.dispatch_jobs_async(channel.channel_id, channel.take_batch())
    heard = []
    handle.add_done_callback(heard.append)
    assert heard == []
    results = handle.result()
    assert handle.result() is results
    assert heard == [results]
    handle.add_done_callback(heard.append)  # already collected: called now
    assert heard == [results, results]
    assert channel.stats["batches"] == 1


def test_discarded_dispatch_stamps_nothing(mccp):
    from repro.mccp.channel import PacketJob

    channel = mccp.open_channel(Algorithm.GCM, 1)
    jobs = [
        PacketJob(direction=Direction.ENCRYPT, nonce=_nonce(i, 12), data=b"x" * 8)
        for i in range(2)
    ]
    for job in jobs:
        mccp.enqueue_job(channel.channel_id, job)
    handle = mccp.dispatch_jobs_async(channel.channel_id, channel.take_batch())
    handle.discard()
    assert all(job.result is None for job in jobs)
    assert channel.stats["batches"] == 0


def test_coalesce_limit_property_tracks_flush_policy(mccp):
    channel = mccp.open_channel(Algorithm.GCM, 1)
    assert channel.coalesce_limit == DEFAULT_COALESCE_LIMIT
    channel.flush_policy = FlushPolicy(coalesce_limit=4, flush_deadline=123)
    assert channel.coalesce_limit == 4
    channel.flush_policy = FlushPolicy(coalesce_limit=0)  # "dispatch immediately"
    assert channel.coalesce_limit == 1
    with pytest.raises(ValueError, match="coalesce_limit must be >= 0"):
        FlushPolicy(coalesce_limit=-3)


@pytest.mark.parametrize("field", ["coalesce_limit", "flush_deadline"])
def test_flush_policy_is_frozen(field):
    """A policy holds for the whole run, so channels may share one."""
    policy = FlushPolicy(coalesce_limit=4, flush_deadline=123)
    with pytest.raises(FrozenInstanceError):
        setattr(policy, field, 9)
    assert policy == FlushPolicy(coalesce_limit=4, flush_deadline=123)
