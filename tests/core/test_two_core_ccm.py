"""Two-core CCM split: correctness, inter-core traffic, steady state."""

import pytest

from repro.core.crypto_core import CryptoCore
from repro.core.params import Direction
from repro.crypto import ccm_encrypt
from repro.crypto.aes import expand_key
from repro.mccp.crossbar import Crossbar
from repro.radio import expected_output_words, format_ccm_two_core, parse_output
from repro.sim.kernel import Simulator
from repro.unit.timing import DEFAULT_TIMING
from repro.utils.bits import words32_to_bytes

KEY = bytes(range(16))


def run_pair(mac_task, ctr_task, key=KEY):
    """Both tasks through the crossbar; decrypt output is read only
    after the CTR core reports OK (after a failure, only what the purge
    left)."""
    sim = Simulator()
    c0 = CryptoCore(sim, DEFAULT_TIMING, index=0)
    c1 = CryptoCore(sim, DEFAULT_TIMING, index=1)
    c0.unit.ic_out = c1.unit.ic_in
    c1.unit.ic_out = c0.unit.ic_in
    for core in (c0, c1):
        core.key_cache.install(expand_key(key), 8 * len(key))
    crossbar = Crossbar(DEFAULT_TIMING)
    runs = [crossbar.upload_blocks(c0, mac_task.input_blocks),
            crossbar.upload_blocks(c1, ctr_task.input_blocks)]
    sink, nwords = [], expected_output_words(ctr_task)
    deferred = ctr_task.params.direction is Direction.DECRYPT
    if not deferred:
        runs.append(crossbar.download_words(c1, sink, nwords))
    d0 = c0.assign_task(mac_task.params)
    d1 = c1.assign_task(ctr_task.params)
    r1 = sim.run_until_event(d1, limit=60_000_000)
    sim.run_until_event(d0, limit=60_000_000)
    if deferred:
        # After an authentication failure the purge must have left
        # nothing; whatever is left is downloaded, so a leak shows.
        left = nwords if r1.ok else len(c1.out_fifo)
        if left:
            runs.append(crossbar.download_words(c1, sink, left))
    for run in runs:
        sim.run_until_event(run.done, limit=60_000_000)
    return r1, words32_to_bytes(sink), (c0, c1, sim)


@pytest.mark.parametrize("size,aad", [(32, 0), (100, 20), (2048, 16)], ids=str)
def test_two_core_encrypt_matches_gold(size, aad, rb):
    nonce, header, data = rb(13), rb(aad), rb(size)
    mac_task, ctr_task = format_ccm_two_core(
        128, nonce, header, data, Direction.ENCRYPT, 8
    )
    r1, output, _ = run_pair(mac_task, ctr_task)
    ct, tag = parse_output(ctr_task, output)
    assert (ct, tag) == ccm_encrypt(KEY, nonce, data, header, 8)


def test_two_core_decrypt_roundtrip_and_tamper(rb):
    nonce, header, data = rb(13), rb(12), rb(600)
    ct, tag = ccm_encrypt(KEY, nonce, data, header, 8)
    mac_task, ctr_task = format_ccm_two_core(
        128, nonce, header, ct, Direction.DECRYPT, 8, tag
    )
    r1, output, _ = run_pair(mac_task, ctr_task)
    pt, _ = parse_output(ctr_task, output)
    assert r1.ok and pt == data

    mac_task, ctr_task = format_ccm_two_core(
        128, nonce, header, ct, Direction.DECRYPT, 8, bytes(8)
    )
    r1, output, _ = run_pair(mac_task, ctr_task)
    assert r1.auth_failed and output == b""


def test_intercore_transfer_counts(rb):
    nonce, data = rb(13), rb(320)  # 20 blocks
    mac_task, ctr_task = format_ccm_two_core(
        128, nonce, b"", data, Direction.DECRYPT, 8,
        ccm_encrypt(KEY, nonce, data, b"", 8)[1],
    )
    # decrypt: CTR forwards every pt block; MAC forwards the final MAC.
    ct, tag = ccm_encrypt(KEY, nonce, data, b"", 8)
    mac_task, ctr_task = format_ccm_two_core(
        128, nonce, b"", ct, Direction.DECRYPT, 8, tag
    )
    r1, _, (c0, c1, _) = run_pair(mac_task, ctr_task)
    assert r1.ok
    assert c0.unit.ic_in.transfers == 20  # pt blocks into the MAC core
    assert c1.unit.ic_in.transfers == 1   # the MAC into the CTR core
