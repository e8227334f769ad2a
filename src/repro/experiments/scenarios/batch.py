"""The batched AEAD path as a sweepable scenario.

Drives the multi-packet fast path end to end through the MCCP channel
layer — ``enqueue_packet`` -> coalescing queue -> ``flush_channel`` ->
:mod:`repro.crypto.fast.batch` — and cross-checks every output against
the reference (``use_fast=False``) one-call implementations.  All
metrics are deterministic, so a baseline comparison fails hard on any
batch/sequential/reference divergence: this is the sweep-level twin of
``tests/crypto/test_batch_aead.py``.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.params import Algorithm, Direction
from repro.crypto import ccm_encrypt, gcm_encrypt
from repro.experiments.scenario import register
from repro.mccp.mccp import Mccp
from repro.sim.kernel import Simulator

#: Ragged packet sizes the batches mix (bytes).
_BATCH_SIZES = (0, 48, 256, 1024, 2048)


@register(
    name="batch_aead",
    title="Batched AEAD through the MCCP channel layer",
    description="Coalesced multi-packet GCM/CCM/GMAC dispatch with "
    "ragged length mixes, verified packet-by-packet against the "
    "reference path, plus a tamper-detection round trip.",
    grid={"mode": ["gcm", "ccm", "gmac"], "packets": [8, 32]},
    quick_grid={"mode": ["gcm", "ccm", "gmac"], "packets": [8]},
    tags=("crypto", "batch", "mccp"),
)
def batch_aead(params, seed, quick):
    """One coalesced batch per mode: seal, verify, reopen, tamper."""
    mode = params["mode"]
    count = params["packets"]
    rng = random.Random(seed)
    key = bytes(rng.getrandbits(8) for _ in range(rng.choice([16, 24, 32])))

    sim = Simulator()
    mccp = Mccp(sim)
    mccp.load_session_key(0, key)
    algorithm = Algorithm.CCM if mode == "ccm" else Algorithm.GCM
    channel = mccp.open_channel(algorithm, 0, tag_length=8 if mode == "ccm" else 16)
    channel.coalesce_limit = max(1, count // 2)  # force >1 dispatch per flush

    nonce_bytes = 13 if mode == "ccm" else 12
    packets = []
    for index in range(count):
        size = rng.choice(_BATCH_SIZES)
        if mode == "gmac":
            payload = b""
        else:
            payload = bytes(rng.getrandbits(8) for _ in range(size))
        aad = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 48)))
        nonce = (index + 1).to_bytes(nonce_bytes, "big")
        packets.append((nonce, payload, aad))
        mccp.enqueue_packet(channel.channel_id, payload, aad, nonce=nonce)

    results = mccp.flush_channel(channel.channel_id)
    reference_fn = ccm_encrypt if mode == "ccm" else gcm_encrypt
    digest = hashlib.sha256()
    matches = 0
    total_bytes = 0
    for (nonce, payload, aad), result in zip(packets, results):
        expected = reference_fn(key, nonce, payload, aad, channel.tag_length, False)
        matches += result.ok and (result.payload, result.tag) == expected
        total_bytes += len(payload)
        digest.update(result.payload)
        digest.update(result.tag)

    # Round-trip the sealed batch, with one tampered tag in the middle.
    tampered = count // 2
    for index, ((nonce, payload, aad), result) in enumerate(zip(packets, results)):
        mccp.enqueue_packet(
            channel.channel_id,
            result.payload,
            aad,
            direction=Direction.DECRYPT,
            nonce=nonce,
            tag=bytes(len(result.tag)) if index == tampered else result.tag,
        )
    reopened = mccp.flush_channel(channel.channel_id)
    roundtrip = sum(
        r.ok and r.payload == payload for (_, payload, _), r in zip(packets, reopened)
    )
    return {
        "packets": count,
        "bytes_processed": total_bytes,
        "batch_matches_reference": matches == count,
        "roundtrip_ok": roundtrip == count - 1,
        "tamper_detected": not reopened[tampered].ok,
        "auth_failures": channel.auth_failures,
        "dispatches": channel.stats["batches"],
        "output_digest": digest.hexdigest()[:32],
    }
