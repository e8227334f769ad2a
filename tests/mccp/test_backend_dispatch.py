"""Backend plumbing through the MCCP batched submission path.

``Mccp.dispatch_jobs_async`` must produce identical results and
result ordering whichever execution backend carries the sweeps —
including the mixed seal+open single-pass dispatch.
"""

import random

import pytest

from repro.core.params import Algorithm, Direction
from repro.crypto.fast.exec import ProcessPoolBackend
from repro.crypto.modes.gcm import gcm_encrypt
from repro.mccp.mccp import Mccp
from repro.sim.kernel import Simulator
from tests.conftest import drain, enqueue

KEY = bytes(range(16))


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture(params=["process"])
def pooled_backend(request, process_backend):
    return process_backend


def _device():
    device = Mccp(Simulator())
    device.load_session_key(1, KEY)
    return device


def _enqueue_mixed(device, channel, count=24, seed=0xD15):
    """Interleaved ENCRYPT/DECRYPT traffic; returns expected payloads."""
    rng = random.Random(seed)
    expected = []
    for index in range(count):
        nonce = (index + 1).to_bytes(12, "big")
        payload = rng.randbytes(rng.choice((0, 33, 256, 2048)))
        if index % 3 == 2:
            ciphertext, tag = gcm_encrypt(KEY, nonce, payload, b"", 16, True)
            forged = index % 6 == 5
            enqueue(
                device, channel.channel_id,
                ciphertext,
                direction=Direction.DECRYPT,
                nonce=nonce,
                tag=bytes(16) if forged else tag,
            )
            expected.append((False, b"") if forged else (True, payload))
        else:
            enqueue(device, channel.channel_id, payload, nonce=nonce)
            expected.append(
                (True, gcm_encrypt(KEY, nonce, payload, b"", 16, True))
            )
    return expected


def _flatten(results):
    return [(r.ok, r.payload, r.tag) for r in results]


def test_mixed_direction_dispatch_matches_inline(pooled_backend):
    inline_device = _device()
    channel = inline_device.open_channel(Algorithm.GCM, 1)
    _enqueue_mixed(inline_device, channel)
    inline = _flatten(drain(inline_device, channel.channel_id, "inline"))

    device = _device()
    channel = device.open_channel(Algorithm.GCM, 1)
    expected = _enqueue_mixed(device, channel)
    results = drain(device, channel.channel_id, pooled_backend)
    assert _flatten(results) == inline
    for (ok, payload), result in zip(expected, results):
        assert result.ok is ok
        if not ok:
            assert result.payload == b""
        elif isinstance(payload, tuple):
            assert (result.payload, result.tag) == payload
        else:
            assert result.payload == payload


def test_multi_channel_drain_on_process_backend_matches_inline(process_backend):
    def run(backend):
        device = _device()
        channels = [
            device.open_channel(Algorithm.GCM, 1),
            device.open_channel(Algorithm.CCM, 1, tag_length=8),
            device.open_channel(Algorithm.GCM, 1),
        ]
        rng = random.Random(0xF1)
        for channel in channels:
            nbytes = 13 if channel.algorithm is Algorithm.CCM else 12
            for index in range(10):
                enqueue(
                    device, channel.channel_id,
                    rng.randbytes(rng.choice((16, 300, 2048))),
                    nonce=(index + 1).to_bytes(nbytes, "big"),
                )
        results = [
            _flatten(drain(device, channel.channel_id, backend))
            for channel in channels
        ]
        for channel in channels:
            assert channel.pending_count == 0
            assert channel.stats["batches"] >= 1
        return results

    assert run(process_backend) == run("inline")
