"""Property test: random packets through the device equal the gold model.

The strongest single invariant in the repository: for arbitrary
payload/AAD shapes and key sizes, the microarchitectural simulation
(firmware on the 8-bit controller driving the CU) produces byte-exact
GCM/CCM/CTR results.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import Direction
from repro.crypto import AES, ccm_encrypt, gcm_encrypt
from repro.crypto.modes.ctr import ctr_xcrypt
from repro.radio import format_ccm_single, format_ctr, format_gcm, parse_output

from tests.conftest import run_single_core

keys = st.sampled_from([bytes(range(16)), bytes(range(24)), bytes(range(32))])
payloads = st.binary(min_size=0, max_size=120)
aads = st.binary(min_size=0, max_size=40)


@given(keys, payloads, aads, st.binary(min_size=12, max_size=12))
@settings(max_examples=12, deadline=None)
def test_gcm_device_equals_gold(key, data, aad, iv):
    task = format_gcm(8 * len(key), iv, aad, data, Direction.ENCRYPT)
    run, _, _ = run_single_core(task, key)
    assert run.result.ok
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == gcm_encrypt(key, iv, data, aad)


@given(keys, payloads, aads, st.binary(min_size=13, max_size=13))
@settings(max_examples=12, deadline=None)
def test_ccm_device_equals_gold(key, data, aad, nonce):
    task = format_ccm_single(8 * len(key), nonce, aad, data, Direction.ENCRYPT, 8)
    run, _, _ = run_single_core(task, key)
    assert run.result.ok
    ct, tag = parse_output(task, run.output)
    assert (ct, tag) == ccm_encrypt(key, nonce, data, aad, 8)


@given(keys, payloads, st.binary(min_size=14, max_size=14))
@settings(max_examples=12, deadline=None)
def test_ctr_device_equals_gold(key, data, prefix):
    icb = prefix + bytes(2)
    task = format_ctr(8 * len(key), icb, data)
    run, _, _ = run_single_core(task, key)
    assert run.result.ok
    out, _ = parse_output(task, run.output)
    assert out == ctr_xcrypt(AES(key), icb, data)


@given(keys, payloads, aads, st.binary(min_size=12, max_size=12))
@settings(max_examples=8, deadline=None)
def test_gcm_device_decrypt_roundtrip(key, data, aad, iv):
    ct, tag = gcm_encrypt(key, iv, data, aad)
    task = format_gcm(8 * len(key), iv, aad, ct, Direction.DECRYPT, 16, tag)
    run, _, _ = run_single_core(task, key)
    assert run.result.ok
    pt, _ = parse_output(task, run.output)
    assert pt == data
