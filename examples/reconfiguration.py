"""Partial reconfiguration demo (paper section VII.B / Table IV).

Swaps one core's Cryptographic Unit from AES to Whirlpool at run time,
hashes a message on the reconfigured core while another core keeps
encrypting (the paper's "reconfiguration of one part does not prevent
others to work"), then swaps back — comparing CompactFlash and cached
(RAM-class) bitstream load times.

Run:  python examples/reconfiguration.py
"""

from repro import Direction, Simulator
from repro.core.crypto_core import CryptoCore
from repro.core.harness import run_task
from repro.crypto import gcm_encrypt, whirlpool
from repro.crypto.aes import expand_key
from repro.radio import format_gcm, format_whirlpool, parse_output
from repro.reconfig import BitstreamStore, ReconfigManager, StoreKind
from repro.unit.timing import DEFAULT_TIMING

KEY = bytes(range(16))
MESSAGE = b"firmware image v2.1 for field update " * 40


def main() -> None:
    sim = Simulator()
    cores = [CryptoCore(sim, DEFAULT_TIMING, index=i) for i in range(2)]
    manager = ReconfigManager(sim, cores, BitstreamStore(StoreKind.COMPACT_FLASH))

    # Reconfigure core 0 to Whirlpool while core 1 encrypts a packet.
    done = manager.reconfigure(0, "whirlpool")
    cores[1].key_cache.install(expand_key(KEY), 128)
    task = format_gcm(128, bytes(12), b"", b"traffic continues" * 8, Direction.ENCRYPT)
    run = run_task(sim, cores[1], task)
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == gcm_encrypt(KEY, bytes(12), b"traffic continues" * 8, b"")
    print(f"core 1 encrypted {len(ct)} bytes *during* core 0's reconfiguration")

    record = sim.run_until_event(done)
    print(
        f"core 0 -> Whirlpool: {record.seconds * 1000:.0f} ms from CompactFlash "
        f"(paper Table IV: 416 ms)"
    )

    # Hash on the reconfigured unit and check against the gold model.
    hash_task = format_whirlpool(MESSAGE)
    hrun = run_task(sim, cores[0], hash_task)
    digest = hrun.output[:64]
    assert digest == whirlpool(MESSAGE)
    print(f"Whirlpool digest on reconfigured CU: {digest.hex()[:32]}… (matches gold)")

    # Swap back; then a cached reload shows why bitstream caching matters.
    back = manager.reconfigure_sync(0, "aes")
    print(f"core 0 -> AES: {back.seconds * 1000:.0f} ms (paper: 380 ms)")
    cached = manager.reconfigure_sync(0, "whirlpool")
    print(
        f"core 0 -> Whirlpool again (cached bitstream): "
        f"{cached.seconds * 1000:.0f} ms (paper RAM figure: 69 ms)"
    )


if __name__ == "__main__":
    main()
