"""Device-vs-gold: every mode, both directions, on the simulated core.

These are the central integration tests: formatted packets run through
the full microarchitectural model (controller + firmware + CU) and the
outputs must be bit-exact against :mod:`repro.crypto`.
"""

import pytest

from repro.core.params import Direction
from repro.crypto import AES, cbc_mac, ccm_encrypt, gcm_encrypt, whirlpool
from repro.crypto.modes.ctr import ctr_xcrypt
from repro.radio import (
    format_cbc_mac,
    format_ccm_single,
    format_ctr,
    format_gcm,
    format_whirlpool,
    parse_output,
)
from tests.conftest import run_single_core

KEY = bytes(range(16))
KEY24 = bytes(range(24))
KEY32 = bytes(range(32))


@pytest.mark.parametrize("key", [KEY, KEY24, KEY32], ids=["k128", "k192", "k256"])
@pytest.mark.parametrize("size", [16, 48, 100, 2048], ids=str)
def test_gcm_encrypt_matches_gold(key, size, rb):
    iv, aad, data = rb(12), rb(20), rb(size)
    task = format_gcm(8 * len(key), iv, aad, data, Direction.ENCRYPT)
    run, _, _ = run_single_core(task, key)
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == gcm_encrypt(key, iv, data, aad)


@pytest.mark.parametrize("size", [0, 1, 15, 17, 255], ids=str)
def test_gcm_partial_blocks_and_gmac(size, rb):
    iv, aad, data = rb(12), rb(33), rb(size)
    task = format_gcm(128, iv, aad, data, Direction.ENCRYPT)
    run, _, _ = run_single_core(task, KEY)
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == gcm_encrypt(KEY, iv, data, aad)


def test_gcm_decrypt_and_purge_on_tamper(rb):
    iv, aad, data = rb(12), rb(10), rb(300)
    ct, tag = gcm_encrypt(KEY, iv, data, aad)
    task = format_gcm(128, iv, aad, ct, Direction.DECRYPT, 16, tag)
    run, core, _ = run_single_core(task, KEY)
    pt, _ = parse_output(task, run.output)
    assert run.result.ok and pt == data

    bad = bytes([tag[0] ^ 1]) + tag[1:]
    task = format_gcm(128, iv, aad, ct, Direction.DECRYPT, 16, bad)
    run, core, _ = run_single_core(task, KEY)
    assert run.result.auth_failed
    assert run.output == b""  # FIFO purged: no plaintext leaks
    assert core.out_fifo.purge_count == 1


def test_gcm_truncated_tag(rb):
    iv, data = rb(12), rb(64)
    task = format_gcm(128, iv, b"", data, Direction.ENCRYPT, tag_length=8)
    run, _, _ = run_single_core(task, KEY)
    _, tag = parse_output(task, run.output)
    assert tag == gcm_encrypt(KEY, iv, data, b"", tag_length=8)[1]


@pytest.mark.parametrize("size", [16, 33, 256], ids=str)
def test_ctr_matches_gold(size, rb):
    icb = rb(14) + bytes(2)
    data = rb(size)
    task = format_ctr(128, icb, data)
    run, _, _ = run_single_core(task, KEY)
    out, _ = parse_output(task, run.output)
    assert out == ctr_xcrypt(AES(KEY), icb, data)


def test_ctr_is_self_inverse_via_device(rb):
    icb = rb(14) + bytes(2)
    data = rb(90)
    task = format_ctr(128, icb, data)
    run, _, _ = run_single_core(task, KEY)
    ct, _ = parse_output(task, run.output)
    task2 = format_ctr(128, icb, ct)
    run2, _, _ = run_single_core(task2, KEY)
    pt, _ = parse_output(task2, run2.output)
    assert pt == data


@pytest.mark.parametrize("blocks", [1, 2, 7], ids=str)
def test_cbc_mac_generate_and_verify(blocks, rb):
    msg = rb(16 * blocks)
    task = format_cbc_mac(128, msg, Direction.ENCRYPT)
    run, _, _ = run_single_core(task, KEY)
    _, tag = parse_output(task, run.output)
    assert tag == cbc_mac(AES(KEY), msg)

    vtask = format_cbc_mac(128, msg, Direction.DECRYPT, expected_tag=tag)
    vrun, _, _ = run_single_core(vtask, KEY)
    assert vrun.result.ok

    bad = format_cbc_mac(128, msg, Direction.DECRYPT, expected_tag=bytes(16))
    brun, _, _ = run_single_core(bad, KEY)
    assert brun.result.auth_failed


@pytest.mark.parametrize("key", [KEY, KEY24, KEY32], ids=["k128", "k192", "k256"])
@pytest.mark.parametrize("size,aad", [(64, 0), (100, 25), (2048, 16)], ids=str)
def test_ccm_single_core_encrypt(key, size, aad, rb):
    nonce, header, data = rb(13), rb(aad), rb(size)
    task = format_ccm_single(8 * len(key), nonce, header, data, Direction.ENCRYPT, 8)
    run, _, _ = run_single_core(task, key)
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == ccm_encrypt(key, nonce, data, header, 8)


def test_ccm_single_core_decrypt_and_tamper(rb):
    nonce, header, data = rb(13), rb(21), rb(500)
    ct, tag = ccm_encrypt(KEY, nonce, data, header, 8)
    task = format_ccm_single(128, nonce, header, ct, Direction.DECRYPT, 8, tag)
    run, _, _ = run_single_core(task, KEY)
    pt, _ = parse_output(task, run.output)
    assert run.result.ok and pt == data

    task = format_ccm_single(128, nonce, header, ct, Direction.DECRYPT, 8, bytes(8))
    run, core, _ = run_single_core(task, KEY)
    assert run.result.auth_failed and run.output == b""


def test_ccm_no_payload_mac_only(rb):
    nonce, header = rb(13), rb(40)
    task = format_ccm_single(128, nonce, header, b"", Direction.ENCRYPT, 16)
    run, _, _ = run_single_core(task, KEY)
    _, tag = parse_output(task, run.output)
    assert tag == ccm_encrypt(KEY, nonce, b"", header, 16)[1]


@pytest.mark.parametrize("size", [0, 10, 64, 200], ids=str)
def test_whirlpool_personality(size, rb):
    msg = rb(size)
    task = format_whirlpool(msg)
    from repro.core.crypto_core import CryptoCore
    from repro.core.harness import run_task
    from repro.sim.kernel import Simulator
    from repro.unit.timing import DEFAULT_TIMING

    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING)
    core.use_whirlpool_personality(True)
    run = run_task(sim, core, task)
    assert run.output[:64] == whirlpool(msg)


def test_personality_swaps_between_tasks_reach_the_loaded_unit(rb):
    """CTR, then Whirlpool, then CTR again on one core: after each swap
    the controller's CU issues go to the personality now loaded."""
    from repro.core.crypto_core import CryptoCore
    from repro.core.harness import run_task
    from repro.crypto.aes import expand_key
    from repro.sim.kernel import Simulator
    from repro.unit.timing import DEFAULT_TIMING

    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING)
    core.key_cache.install(expand_key(KEY), 128)
    icb, data, msg = rb(14) + bytes(2), rb(48), rb(100)
    for whirlpool_loaded in (False, True, False):
        core.use_whirlpool_personality(whirlpool_loaded)
        if whirlpool_loaded:
            assert run_task(sim, core, format_whirlpool(msg)).output[:64] == whirlpool(msg)
        else:
            task = format_ctr(128, icb, data)
            out, _ = parse_output(task, run_task(sim, core, task).output)
            assert out == ctr_xcrypt(AES(KEY), icb, data)
