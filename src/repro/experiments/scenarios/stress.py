"""Stress scenarios: mode mixes, key churn, reconfiguration under load.

The new workloads ISSUE 2 calls for — none existed as benchmarks.  All
three are simulated-cycle or gold-model deterministic, so they double
as regression gates: the ``output_digest`` / ``*_ok`` metrics must be
bit-identical between a run and its baseline.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.crypto_core import CryptoCore
from repro.core.harness import run_task
from repro.core.params import Algorithm, Direction
from repro.crypto import ccm_encrypt, gcm_decrypt, gcm_encrypt, whirlpool
from repro.crypto.aes import expand_key
from repro.experiments.scenario import register
from repro.experiments.scenarios._util import deterministic_bytes
from repro.mccp.mccp import Mccp
from repro.radio import format_gcm, format_whirlpool, parse_output
from repro.radio.comm_controller import CommController
from repro.radio.packet import Packet
from repro.reconfig import BitstreamStore, ReconfigManager, StoreKind
from repro.sim.kernel import Simulator
from repro.unit.timing import DEFAULT_TIMING

#: Heterogeneous message sizes for the mode-mix sweep (bytes).
_MODE_MIX_SIZES = (64, 256, 1024, 2048)


@register(
    name="mode_mix",
    title="CCM/GCM/GMAC mode mixes, fast vs reference cross-check",
    description="Randomized message batches per mode with heterogeneous "
    "sizes and key widths; every fast-path output is checked against the "
    "reference path and folded into a deterministic digest.",
    grid={"mode": ["gcm", "ccm", "gmac", "mixed"]},
    tags=("crypto", "stress"),
)
def mode_mix(params, seed, quick):
    """One mode's batch: fast/reference equality + output digest."""
    mode = params["mode"]
    rng = random.Random(seed)
    messages = 4 if quick else 12
    digest = hashlib.sha256()
    matches = 0
    total_bytes = 0
    for index in range(messages):
        this_mode = (
            rng.choice(["gcm", "ccm", "gmac"]) if mode == "mixed" else mode
        )
        key = bytes(rng.getrandbits(8) for _ in range(rng.choice([16, 24, 32])))
        aad = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 32)))
        size = rng.choice(_MODE_MIX_SIZES)
        payload = bytes(rng.getrandbits(8) for _ in range(size))
        total_bytes += size
        if this_mode == "gcm":
            iv = bytes(rng.getrandbits(8) for _ in range(12))
            fast = gcm_encrypt(key, iv, payload, aad, 16, True)
            reference = gcm_encrypt(key, iv, payload, aad, 16, False)
            roundtrip = gcm_decrypt(key, iv, fast[0], fast[1], aad) == payload
        elif this_mode == "ccm":
            nonce = bytes(rng.getrandbits(8) for _ in range(13))
            fast = ccm_encrypt(key, nonce, payload, aad, 8, True)
            reference = ccm_encrypt(key, nonce, payload, aad, 8, False)
            roundtrip = True
        else:  # gmac: authentication only, empty plaintext
            iv = bytes(rng.getrandbits(8) for _ in range(12))
            fast = gcm_encrypt(key, iv, b"", payload, 16, True)
            reference = gcm_encrypt(key, iv, b"", payload, 16, False)
            roundtrip = True
        matches += fast == reference and roundtrip
        digest.update(fast[0])
        digest.update(fast[1])
    return {
        "messages": messages,
        "bytes_processed": total_bytes,
        "fast_matches_reference": matches == messages,
        "output_digest": digest.hexdigest()[:32],
    }


@register(
    name="key_churn",
    title="Key-churn stress: fresh session keys every packet",
    description="Cycles session keys through the key memory, re-opening "
    "a channel per key and verifying each secured packet against the "
    "gold model — the key scheduler's worst case.",
    grid={"cores": [2, 4]},
    quick_grid={"cores": [2]},
    tags=("stress", "keys"),
)
def key_churn(params, seed, quick):
    """N rounds of load-key / open / encrypt / verify / close."""
    sim = Simulator()
    mccp = Mccp(sim, core_count=params["cores"])
    comm = CommController(sim, mccp, seed=0)
    rounds = 6 if quick else 24
    verified = 0
    for index in range(rounds):
        key_id = index % mccp.key_memory.slots
        key = deterministic_bytes(16, seed + index)
        mccp.load_session_key(key_id, key)
        channel = mccp.open_channel(Algorithm.GCM, key_id)
        payload = deterministic_bytes(256 + (index % 4) * 256, seed ^ index)
        packet = Packet(
            channel.channel_id,
            b"hdr",
            payload,
            sequence=index,
            created_cycle=sim.now,
        )
        secured = comm.secure_packet_sync(channel, packet)
        # The controller derives nonces from its counter (seed 0): the
        # index-th packet used nonce index+1, so the gold model can
        # independently authenticate what the device produced.
        nonce = (index + 1).to_bytes(12, "big")
        plaintext = gcm_decrypt(
            key, nonce, secured.ciphertext, secured.tag, packet.header
        )
        verified += plaintext == payload
        mccp.close_channel(channel.channel_id)
    return {
        "key_loads": rounds,
        "packets_done": rounds,
        "all_verified": verified == rounds,
        "total_cycles": sim.now,
    }


@register(
    name="reconfig_under_load",
    title="Reconfiguration storm while traffic continues",
    description="Alternates one core's personality AES<->Whirlpool while "
    "the neighbour core keeps encrypting verified GCM packets; counts "
    "cached reloads and checks the reconfigured unit's digests.",
    grid={"swaps": [2, 6]},
    quick_grid={"swaps": [2]},
    tags=("reconfig", "stress"),
)
def reconfig_under_load(params, seed, quick):
    """A storm of *swaps* personality swaps under live traffic."""
    swaps = params["swaps"]
    packets_per_swap = 2 if quick else 4
    key = bytes(range(16))
    payload = deterministic_bytes(512, seed)
    message = deterministic_bytes(777, seed + 1)
    sim = Simulator()
    cores = [CryptoCore(sim, DEFAULT_TIMING, index=i) for i in range(2)]
    manager = ReconfigManager(sim, cores, BitstreamStore(StoreKind.COMPACT_FLASH))
    cores[1].key_cache.install(expand_key(key), 128)

    packets = 0
    traffic_ok = True
    hashes_ok = True
    cached_swaps = 0
    reconfig_cycles = 0
    for swap in range(swaps):
        module = "whirlpool" if swap % 2 == 0 else "aes"
        start = sim.now
        done = manager.reconfigure(0, module)
        # Traffic on core 1 *during* core 0's reconfiguration.
        for _ in range(packets_per_swap):
            iv = packets.to_bytes(12, "big")
            task = format_gcm(128, iv, b"", payload, Direction.ENCRYPT)
            run = run_task(sim, cores[1], task)
            ct, tag = parse_output(task, run.output)
            traffic_ok &= (ct, tag) == gcm_encrypt(key, iv, payload, b"")
            packets += 1
        record = sim.run_until_event(done)
        reconfig_cycles += sim.now - start
        cached_swaps += bool(record.cached)
        if module == "whirlpool":
            hash_task = format_whirlpool(message)
            hash_run = run_task(sim, cores[0], hash_task)
            hashes_ok &= hash_run.output[:64] == whirlpool(message)
    return {
        "cached_swaps": cached_swaps,
        "packets_during_reconfig": packets,
        "traffic_ok": traffic_ok,
        "whirlpool_hashes_ok": hashes_ok,
        "total_cycles": sim.now,
        "reconfig_ms": round(reconfig_cycles / 190e6 * 1000, 2),
    }
