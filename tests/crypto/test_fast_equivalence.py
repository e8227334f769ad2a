"""Engine vs reference: byte-identical on every path.

The T-table / tabulated-GHASH / bulk engine (:mod:`repro.crypto.fast`)
must be a pure restatement of the reference crypto (:mod:`repro.crypto`),
which runs none of its code.  This suite pins that down two ways: every
published and pinned vector through both, and a randomized matrix (200
message/key/nonce combinations across all three AES key sizes).
"""

import random

import pytest

from repro.crypto import testvectors as tv
from repro.crypto.aes import AES, expand_key
from repro.crypto.fast import (
    bulk,
    cbc_mac_fast,
    ccm_open,
    ccm_seal,
    ctr_stream,
    encrypt_block_tt,
    expand_key_cached,
    gcm_open,
    gcm_seal,
    ghash_blocks_hpower,
)
from repro.crypto.fast.aes_vector import HAVE_NUMPY, encrypt_blocks_vector
from repro.crypto.fast.bulk import ctr_xcrypt_bulk, ecb_encrypt_blocks
from repro.crypto.fast.gf128_tables import ghash_blocks_tabulated
from repro.crypto.ghash import GHash
from repro.crypto.modes.cbc_mac import cbc_mac
from repro.crypto.modes.ccm import ccm_decrypt, ccm_encrypt
from repro.crypto.modes.ctr import ctr_keystream, ctr_xcrypt
from repro.crypto.modes.gcm import gcm_decrypt, gcm_encrypt
from repro.crypto.modes.gmac import gmac, gmac_verify
from repro.errors import AuthenticationFailure, TagError

KEY_SIZES = (16, 24, 32)


# -- published / pinned vectors through the engine ------------------------


@pytest.mark.parametrize("vec", tv.aes_vectors(), ids=lambda v: v.key.hex()[:12])
def test_aes_vectors_fast(vec):
    assert encrypt_block_tt(vec.plaintext, expand_key(vec.key)) == vec.ciphertext
    assert encrypt_block_tt(vec.plaintext, expand_key_cached(vec.key)) == vec.ciphertext
    assert AES(vec.key).encrypt_block(vec.plaintext) == vec.ciphertext


@pytest.mark.parametrize("vec", tv.gcm_vectors(), ids=lambda v: v.iv.hex()[:12])
def test_gcm_vectors_fast(vec):
    ct, tag = gcm_seal(vec.key, vec.iv, vec.plaintext, vec.aad, len(vec.tag))
    assert (ct, tag) == (vec.ciphertext, vec.tag)
    assert gcm_open(vec.key, vec.iv, vec.ciphertext, vec.tag, vec.aad) == vec.plaintext


@pytest.mark.parametrize("vec", tv.ccm_vectors(), ids=lambda v: v.nonce.hex()[:12])
def test_ccm_vectors_fast(vec):
    ct, tag = ccm_seal(vec.key, vec.nonce, vec.plaintext, vec.aad, vec.tag_length)
    assert (ct, tag) == (vec.ciphertext, vec.tag)
    assert (
        ccm_open(vec.key, vec.nonce, vec.ciphertext, vec.tag, vec.aad)
        == vec.plaintext
    )


@pytest.mark.parametrize("vec", tv.ctr_vectors(), ids=lambda v: v.key.hex()[:12])
def test_ctr_vectors_fast(vec):
    assert (
        ctr_xcrypt_bulk(vec.key, vec.counter, vec.plaintext) == vec.ciphertext
    )


# -- randomized equivalence matrix: 200 combos, all key sizes -------------


def _combo(i: int):
    rng = random.Random(0x4D434350 + i)
    key = rng.randbytes(KEY_SIZES[i % 3])
    data = rng.randbytes(rng.randrange(0, 400))
    aad = rng.randbytes(rng.randrange(0, 48))
    return rng, key, data, aad


@pytest.mark.parametrize("i", range(0, 200, 4))
def test_random_gcm_equivalence(i):
    rng, key, data, aad = _combo(i)
    iv = rng.randbytes(12 if i % 2 else rng.randrange(1, 24))
    ref = gcm_encrypt(key, iv, data, aad)
    fast = gcm_seal(key, iv, data, aad)
    assert ref == fast
    assert gcm_decrypt(key, iv, fast[0], fast[1], aad) == data


@pytest.mark.parametrize("i", range(1, 200, 4))
def test_random_ccm_equivalence(i):
    rng, key, data, aad = _combo(i)
    nonce = rng.randbytes(rng.randrange(7, 14))
    tag_length = rng.choice((4, 6, 8, 10, 12, 14, 16))
    ref = ccm_encrypt(key, nonce, data, aad, tag_length)
    fast = ccm_seal(key, nonce, data, aad, tag_length)
    assert ref == fast
    assert ccm_decrypt(key, nonce, fast[0], fast[1], aad) == data


@pytest.mark.parametrize("i", range(2, 200, 4))
def test_random_ctr_equivalence(i):
    rng, key, data, _ = _combo(i)
    icb = rng.randbytes(16)
    inc_bits = rng.choice((8, 16, 32, 48, 64, 128))
    cipher = AES(key)
    ref = ctr_xcrypt(cipher, icb, data, inc_bits)
    assert ctr_xcrypt_bulk(key, icb, data, inc_bits) == ref
    nblocks = rng.randrange(0, 24)
    assert ctr_stream(key, icb, nblocks, inc_bits) == ctr_keystream(cipher, icb, nblocks, inc_bits)


@pytest.mark.parametrize("i", range(3, 200, 4))
def test_random_mac_and_ghash_equivalence(i):
    rng, key, data, aad = _combo(i)
    cipher = AES(key)
    blocks = rng.randbytes(16 * rng.randrange(1, 10))
    assert cbc_mac_fast(key, blocks) == cbc_mac(cipher, blocks)
    h = rng.randbytes(16)
    payload = rng.randbytes(16 * rng.randrange(1, 10))
    h_int = int.from_bytes(h, "big")
    hpower = ghash_blocks_hpower(h_int, 0, payload).to_bytes(16, "big")
    tabulated = ghash_blocks_tabulated(h_int, 0, payload).to_bytes(16, "big")
    ref_digest = GHash(h).update_blocks(payload).digest()
    digit_digest = GHash(h, digit_serial=True).update_blocks(payload).digest()
    assert hpower == tabulated == ref_digest == digit_digest
    iv = rng.randbytes(12)
    assert gmac(key, iv, aad) == bulk.gcm_seal(key, iv, b"", aad)[1]
    assert gmac_verify(key, iv, aad, gmac(key, iv, aad))


# -- counter wrap and vector/scalar boundary ------------------------------


def test_ctr_wraps_like_reference():
    key = bytes(range(16))
    cipher = AES(key)
    icb = b"\xff" * 16  # low field wraps immediately
    for inc_bits in (8, 16, 32, 64):
        assert ctr_stream(key, icb, 6, inc_bits) == ctr_keystream(cipher, icb, 6, inc_bits)


def test_scalar_and_vector_paths_agree():
    key = bytes(range(24))
    icb = bytes(range(16))
    # 1..3 blocks take the scalar path, larger runs the vector engine;
    # a prefix of the long run must equal the short runs exactly.
    long = ctr_stream(key, icb, 64)
    for n in (1, 2, 3, 5, 17):
        assert ctr_stream(key, icb, n) == long[: 16 * n]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-only path")
def test_ecb_bulk_matches_scalar():
    key = bytes(range(32))
    rks = expand_key_cached(key)
    blocks = bytes(range(256)) * 2  # 32 blocks
    expected = b"".join(
        encrypt_block_tt(blocks[i : i + 16], rks) for i in range(0, len(blocks), 16)
    )
    assert ecb_encrypt_blocks(key, blocks) == expected
    assert encrypt_blocks_vector(blocks, rks) == expected


# -- rejection and isolation ---------------------------------------------


def test_fast_open_rejects_bad_tag():
    key, iv = bytes(16), bytes(12)
    ct, tag = gcm_seal(key, iv, b"payload", b"aad")
    with pytest.raises(AuthenticationFailure):
        gcm_open(key, iv, ct, bytes(len(tag)), b"aad")
    nonce = bytes(13)
    ct, tag = ccm_seal(key, nonce, b"payload", b"aad", 8)
    with pytest.raises(AuthenticationFailure):
        ccm_open(key, nonce, ct, bytes(8), b"aad")


def test_fast_open_rejects_invalid_tag_lengths():
    # An empty tag must be rejected as invalid, never "verified" (a
    # zero-length expected tag would compare equal to anything empty).
    key, iv = bytes(16), bytes(12)
    ct, tag = gcm_seal(key, iv, b"payload")
    with pytest.raises(TagError):
        gcm_open(key, iv, ct, b"")
    with pytest.raises(TagError):
        gcm_open(key, iv, ct, tag + b"\x00")
    with pytest.raises(TagError):
        gcm_seal(key, iv, b"payload", tag_length=0)
    with pytest.raises(TagError):
        ccm_open(key, bytes(13), ct, b"")


def test_fast_ctr_rejects_invalid_inc_bits_like_reference():
    key, icb = bytes(16), bytes(16)
    cipher = AES(key)
    for inc_bits in (0, -8, 12, 136):
        with pytest.raises(ValueError):
            ctr_stream(key, icb, 4, inc_bits)
        with pytest.raises(ValueError):
            ctr_keystream(cipher, icb, 4, inc_bits)


def test_ccm_reference_path_never_calls_fast_mac(monkeypatch):
    # The reference CCM must run the whole chain, the CBC-MAC half
    # included, without engine code, or the gold model silently checks
    # the engine against itself.
    calls = []

    def spy(name):
        real = getattr(bulk, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("cbc_mac_fast", "ccm_seal", "ccm_open"):
        monkeypatch.setattr(bulk, name, spy(name))
    key, nonce = bytes(16), bytes(range(13))
    ct, tag = ccm_encrypt(key, nonce, b"payload" * 10, b"hdr", 8)
    assert ccm_decrypt(key, nonce, ct, tag, b"hdr") == b"payload" * 10
    assert not calls


def test_reference_modules_import_no_engine_code():
    """Nothing the reference modules hold comes from the engine, apart
    from the two GHASH kernels ``repro.crypto.ghash`` keeps for
    perfbench's layer table."""
    import importlib

    seam = {"ghash_blocks_hpower", "ghash_blocks_tabulated"}
    for name in ("aes", "gf128", "ghash", "modes.ctr", "modes.cbc_mac", "modes.ccm", "modes.gcm"):
        module = importlib.import_module(f"repro.crypto.{name}")
        engine = {
            attribute
            for attribute, value in vars(module).items()
            if (getattr(value, "__module__", None) or getattr(value, "__name__", "")).startswith(
                "repro.crypto.fast"
            )
        }
        assert engine == (seam if name == "ghash" else set()), name


def test_expand_key_cached_is_shared_and_correct():
    key = bytes(range(32))
    a = expand_key_cached(key)
    b = expand_key_cached(bytes(range(32)))
    assert a is b  # memoized
    assert [list(rk) for rk in a] == expand_key(key)
