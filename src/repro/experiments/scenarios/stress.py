"""Stress scenarios: mode mixes, key churn, reconfiguration under load.

Each scenario checks every output it produces against the gold model
and raises :class:`repro.errors.ExperimentError` on the first one that
differs; ``tests/experiments/test_stress_scenarios.py`` and
``tests/reconfig/test_reconfig.py`` run each one's full grid.  The
metrics it returns are simulated-cycle or gold-model deterministic.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.crypto_core import CryptoCore
from repro.core.harness import run_task
from repro.core.params import Algorithm, Direction
from repro.crypto import ccm_encrypt, gcm_decrypt, gcm_encrypt, whirlpool
from repro.crypto.aes import expand_key
from repro.errors import ExperimentError
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


def mode_mix(mode: str, seed: int):
    """One mode's batch of randomized messages with heterogeneous sizes
    and key widths: every fast-path output must equal the reference
    path's, and the outputs fold into a digest."""
    rng = random.Random(seed)
    messages = 12
    digest = hashlib.sha256()
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
        elif this_mode == "ccm":
            nonce = bytes(rng.getrandbits(8) for _ in range(13))
            fast = ccm_encrypt(key, nonce, payload, aad, 8, True)
            reference = ccm_encrypt(key, nonce, payload, aad, 8, False)
        else:  # gmac: authentication only, empty plaintext
            iv = bytes(rng.getrandbits(8) for _ in range(12))
            fast = gcm_encrypt(key, iv, b"", payload, 16, True)
            reference = gcm_encrypt(key, iv, b"", payload, 16, False)
        if fast != reference:
            raise ExperimentError(
                f"mode_mix[{mode}]: {this_mode} message {index} is not the reference"
            )
        if this_mode == "gcm" and gcm_decrypt(key, iv, fast[0], fast[1], aad) != payload:
            raise ExperimentError(f"mode_mix[{mode}]: gcm message {index} does not open")
        digest.update(fast[0])
        digest.update(fast[1])
    return {
        "messages": messages,
        "bytes_processed": total_bytes,
        "output_digest": digest.hexdigest()[:32],
    }


def key_churn(cores: int):
    """Key-churn stress, the key scheduler's worst case: 24 rounds of
    load a fresh session key / open a channel / seal one packet on the
    device / compare it with the gold model / close."""
    sim = Simulator()
    mccp = Mccp(sim, core_count=cores)
    comm = CommController(sim, mccp)
    rounds = 24
    for index in range(rounds):
        key_id = index % mccp.key_memory.slots
        key = deterministic_bytes(16, index)
        mccp.load_session_key(key_id, key)
        channel = mccp.open_channel(Algorithm.GCM, key_id)
        payload = deterministic_bytes(256 + (index % 4) * 256, index)
        packet = Packet(
            channel.channel_id,
            b"hdr",
            payload,
            sequence=index,
            created_cycle=sim.now,
        )
        secured = comm.secure_packet_sync(channel, packet)
        # The controller derives nonces from its counter: the index-th
        # packet used nonce index+1, so the gold model can reproduce
        # what the device produced.
        nonce = (index + 1).to_bytes(12, "big")
        gold = gcm_encrypt(key, nonce, payload, packet.header)
        if (secured.ciphertext, secured.tag) != gold:
            raise ExperimentError(f"key_churn: round {index} is not the gold model")
        mccp.close_channel(channel.channel_id)
    return {
        "key_loads": rounds,
        "packets_done": rounds,
        "total_cycles": sim.now,
    }


def reconfig_under_load(swaps: int):
    """A storm of *swaps* personality swaps under live traffic.

    Core 0 alternates AES <-> Whirlpool while core 1 keeps sealing GCM
    packets; every packet and every digest of the reconfigured unit is
    checked against the gold model, and cached reloads are counted.
    """
    packets_per_swap = 4
    key = bytes(range(16))
    payload = deterministic_bytes(512, 0)
    message = deterministic_bytes(777, 1)
    sim = Simulator()
    cores = [CryptoCore(sim, DEFAULT_TIMING, index=i) for i in range(2)]
    manager = ReconfigManager(sim, cores, BitstreamStore(StoreKind.COMPACT_FLASH))
    cores[1].key_cache.install(expand_key(key), 128)

    packets = 0
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
            if parse_output(task, run.output) != gcm_encrypt(key, iv, payload, b""):
                raise ExperimentError(
                    f"reconfig_under_load: packet {packets} is not the gold model"
                )
            packets += 1
        record = sim.run_until_event(done)
        reconfig_cycles += sim.now - start
        cached_swaps += bool(record.cached)
        if module == "whirlpool":
            hash_task = format_whirlpool(message)
            hash_run = run_task(sim, cores[0], hash_task)
            if hash_run.output[:64] != whirlpool(message):
                raise ExperimentError(
                    f"reconfig_under_load: swap {swap} digest is not the gold model"
                )
    return {
        "cached_swaps": cached_swaps,
        "packets_during_reconfig": packets,
        "total_cycles": sim.now,
        "reconfig_ms": round(reconfig_cycles / 190e6 * 1000, 2),
    }
