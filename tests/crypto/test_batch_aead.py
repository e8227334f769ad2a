"""Batch AEAD engine: batch == sequential one-call == reference.

The batch APIs must be pure restatements of the sequential fast APIs
(which the existing equivalence suite already pins to the reference
path).  This suite drives randomized same-key batches across
GCM/CCM/GMAC, packet counts (including empty and single-packet
batches), ragged length mixes, scatter-gather inputs, and the H-power
GHASH fold in all three engines (vector, scalar fold, serial chain).
"""

import random

import pytest

from repro.crypto.fast.batch import (
    MIN_LANES,
    cbc_mac_many,
    ccm_open_many,
    ccm_seal_many,
    gather,
    gcm_open_many,
    gcm_seal_many,
    gmac_many,
)
from repro.crypto.fast.bulk import cbc_mac_fast, ccm_seal, gcm_seal
from repro.crypto.fast.ghash_hpower import (
    HAVE_NUMPY,
    _fold_python,
    ghash_blocks_hpower,
)
from repro.crypto.fast.gf128_tables import ghash_blocks_tabulated
from repro.crypto.modes.ccm import ccm_encrypt
from repro.crypto.modes.gcm import gcm_encrypt
from repro.crypto.modes.gmac import gmac
from repro.errors import BlockSizeError, NonceError, TagError

KEY_SIZES = (16, 24, 32)
#: Ragged payload sizes mixed within one batch.
SIZES = (0, 1, 15, 16, 17, 48, 300, 2048)


def _batch(i: int, nonce_bytes: int):
    rng = random.Random(0xBA7C4 + i)
    key = rng.randbytes(KEY_SIZES[i % 3])
    count = (0, 1, 2, MIN_LANES - 1, MIN_LANES, 13, 33)[i % 7]
    packets = [
        (
            rng.randbytes(nonce_bytes),
            rng.randbytes(rng.choice(SIZES)),
            rng.randbytes(rng.randrange(0, 40)),
        )
        for _ in range(count)
    ]
    return rng, key, packets


@pytest.mark.parametrize("i", range(0, 28, 2))
def test_gcm_batch_equivalence(i):
    rng, key, packets = _batch(i, 12)
    sealed = gcm_seal_many(key, packets)
    assert sealed == [gcm_seal(key, iv, d, a) for iv, d, a in packets]
    assert sealed == [
        gcm_encrypt(key, iv, d, a, 16) for iv, d, a in packets
    ]
    opened = gcm_open_many(
        key,
        [(iv, ct, tag, a) for (iv, d, a), (ct, tag) in zip(packets, sealed)],
    )
    assert opened == [d for _, d, _ in packets]


@pytest.mark.parametrize("i", range(1, 28, 2))
def test_ccm_batch_equivalence(i):
    rng, key, packets = _batch(i, 7 + i % 7)
    tag_length = rng.choice((4, 8, 12, 16))
    sealed = ccm_seal_many(key, packets, tag_length)
    assert sealed == [
        ccm_seal(key, nonce, d, a, tag_length) for nonce, d, a in packets
    ]
    assert sealed == [
        ccm_encrypt(key, nonce, d, a, tag_length)
        for nonce, d, a in packets
    ]
    opened = ccm_open_many(
        key,
        [(nonce, ct, tag, a) for (nonce, d, a), (ct, tag) in zip(packets, sealed)],
    )
    assert opened == [d for _, d, _ in packets]


def test_gmac_batch_equivalence():
    rng = random.Random(0x6AC)
    key = rng.randbytes(16)
    packets = [
        (rng.randbytes(12), rng.randbytes(rng.choice(SIZES))) for _ in range(17)
    ]
    assert gmac_many(key, packets) == [gmac(key, iv, aad) for iv, aad in packets]


def test_batch_auth_failures_are_isolated():
    rng = random.Random(0x150)
    key = rng.randbytes(16)
    packets = [(rng.randbytes(12), rng.randbytes(100), b"hdr") for _ in range(12)]
    sealed = gcm_seal_many(key, packets)
    tampered = [
        (iv, ct, bytes(len(tag)) if index in (3, 7) else tag, a)
        for index, ((iv, d, a), (ct, tag)) in enumerate(zip(packets, sealed))
    ]
    opened = gcm_open_many(key, tampered)
    for index, (result, (_, data, _)) in enumerate(zip(opened, packets)):
        assert result is None if index in (3, 7) else result == data

    nonces = [rng.randbytes(13) for _ in packets]
    csealed = ccm_seal_many(key, [(n, d, a) for n, (_, d, a) in zip(nonces, packets)], 8)
    ctampered = [
        (n, ct, bytes(8) if index == 0 else tag, a)
        for index, (n, (_, d, a), (ct, tag)) in enumerate(
            zip(nonces, packets, csealed)
        )
    ]
    copened = ccm_open_many(key, ctampered)
    assert copened[0] is None
    assert copened[1:] == [d for _, d, _ in packets[1:]]


def test_scatter_gather_inputs():
    rng = random.Random(0x56)
    key = rng.randbytes(24)
    packets = [(rng.randbytes(12), rng.randbytes(333), rng.randbytes(20))
               for _ in range(9)]
    flat = gcm_seal_many(key, packets)
    segmented = [
        (iv, [d[:100], d[100:100], d[100:]], (a[:3], a[3:]))
        for iv, d, a in packets
    ]
    assert gcm_seal_many(key, segmented) == flat
    assert gather([b"ab", b"", b"c"]) == b"abc" == gather(b"abc")
    assert gather(memoryview(b"xy")) == b"xy"


def test_empty_batches():
    key = bytes(16)
    assert gcm_seal_many(key, []) == []
    assert gcm_open_many(key, []) == []
    assert ccm_seal_many(key, []) == []
    assert ccm_open_many(key, []) == []
    assert cbc_mac_many(key, []) == []


def test_batch_validation_matches_sequential():
    key = bytes(16)
    with pytest.raises(TagError):
        gcm_seal_many(key, [(bytes(12), b"x")], tag_length=0)
    with pytest.raises(TagError):
        gcm_open_many(key, [(bytes(12), b"x", b"")])
    with pytest.raises(NonceError):
        gcm_seal_many(key, [(b"", b"x")])
    with pytest.raises(NonceError):
        ccm_seal_many(key, [(bytes(6), b"x")])
    with pytest.raises(TagError):
        ccm_open_many(key, [(bytes(13), b"x", bytes(5))])


# -- lane-parallel CBC-MAC -------------------------------------------------


@pytest.mark.parametrize("count", (1, 2, MIN_LANES, 23))
def test_cbc_mac_many_matches_scalar(count):
    rng = random.Random(0xCBC + count)
    key = rng.randbytes(KEY_SIZES[count % 3])
    messages = [rng.randbytes(16 * rng.randrange(1, 20)) for _ in range(count)]
    assert cbc_mac_many(key, messages) == [cbc_mac_fast(key, m) for m in messages]
    iv = rng.randbytes(16)
    assert cbc_mac_many(key, messages, iv) == [
        cbc_mac_fast(key, m, iv) for m in messages
    ]


def test_cbc_mac_many_rejects_bad_inputs():
    key = bytes(16)
    with pytest.raises(BlockSizeError):
        cbc_mac_many(key, [b"short"])
    with pytest.raises(BlockSizeError):
        cbc_mac_many(key, [bytes(16), b""])
    with pytest.raises(BlockSizeError):
        cbc_mac_many(key, [bytes(16)], iv=b"tiny")


def test_cbc_mac_many_identical_lane_lengths():
    # All-equal block counts exercise the no-retirement path.
    rng = random.Random(0xEE)
    key = rng.randbytes(16)
    messages = [rng.randbytes(64) for _ in range(MIN_LANES + 1)]
    assert cbc_mac_many(key, messages) == [cbc_mac_fast(key, m) for m in messages]


# -- H-power GHASH fold ----------------------------------------------------


@pytest.mark.parametrize("nblocks", (1, 15, 16, 17, 63, 64, 65, 128, 129, 200))
def test_hpower_fold_matches_serial_chain(nblocks):
    rng = random.Random(0x4907 + nblocks)
    h = rng.getrandbits(128)
    acc = rng.getrandbits(128) if nblocks % 2 else 0
    data = rng.randbytes(16 * nblocks)
    expected = ghash_blocks_tabulated(h, acc, data)
    assert ghash_blocks_hpower(h, acc, data) == expected
    # The scalar fold must agree too, at several fold widths.
    for fold in (2, 3, 8):
        assert _fold_python(h, acc, data, fold) == expected
    if HAVE_NUMPY:
        from repro.crypto.fast.ghash_hpower import _fold_vector

        for fold in (4, 64):
            assert _fold_vector(h, acc, data, fold) == expected


def test_hpower_split_absorbs_match_one_shot():
    # Split absorbs must equal one-shot absorbs across the fold
    # boundary (the accumulator chains through hpower calls).
    from repro.crypto.ghash import GHash

    rng = random.Random(0x3AA)
    h = rng.randbytes(16)
    data = rng.randbytes(16 * 70)
    h_int = int.from_bytes(h, "big")
    one_shot = ghash_blocks_hpower(h_int, 0, data)
    head = ghash_blocks_hpower(h_int, 0, data[: 16 * 3])
    split = ghash_blocks_hpower(h_int, head, data[16 * 3 :])
    reference = GHash(h).update_blocks(data).digest()
    assert one_shot.to_bytes(16, "big") == split.to_bytes(16, "big") == reference


# -- decrypt early-reject (verify-first GCM opens) -------------------------------


def _sealed_gcm_batch(count=10, seed=0xE4):
    rng = random.Random(seed)
    key = rng.randbytes(16)
    packets = [
        (
            rng.randbytes(12),
            rng.randbytes(rng.choice((64, 300, 1024, 2048))),
            rng.randbytes(16),
        )
        for _ in range(count)
    ]
    sealed = gcm_seal_many(key, packets)
    opens = [
        (iv, ct, tag, aad)
        for (iv, _, aad), (ct, tag) in zip(packets, sealed)
    ]
    return key, packets, opens


def test_gcm_open_many_failed_lanes_do_not_perturb_survivors():
    key, packets, opens = _sealed_gcm_batch()
    baseline = gcm_open_many(key, opens)
    assert all(pt is not None for pt in baseline)
    forged = [2, 5, 9]
    tampered = [
        (iv, ct, bytes(len(tag)) if i in forged else tag, aad)
        for i, (iv, ct, tag, aad) in enumerate(opens)
    ]
    opened = gcm_open_many(key, tampered)
    for i, (pt, (_, plaintext, _)) in enumerate(zip(opened, packets)):
        if i in forged:
            assert pt is None
        else:
            # Survivors decrypt exactly as in the all-valid batch even
            # though the forged lanes were dropped from the keystream
            # sweep (lane packing changed underneath them).
            assert pt == plaintext == baseline[i]


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector path exercises the fused sweep")
def test_gcm_open_many_skips_keystream_for_failed_lanes(monkeypatch):
    """Verify-first: forged packets never join the payload sweep."""
    from repro.crypto.fast import batch as batch_mod

    key, packets, opens = _sealed_gcm_batch(count=6, seed=0xE5)
    forged = {1, 4}
    tampered = [
        (iv, ct, bytes(len(tag)) if i in forged else tag, aad)
        for i, (iv, ct, tag, aad) in enumerate(opens)
    ]
    sweeps = []
    real = batch_mod._fused_keystream

    def spy(round_keys, specs):
        sweeps.append(list(specs))
        return real(round_keys, specs)

    monkeypatch.setattr(batch_mod, "_fused_keystream", spy)
    opened = batch_mod.gcm_open_many(key, tampered)
    assert [pt is None for pt in opened] == [i in forged for i in range(6)]
    # Sweep 1: one E(J_0) mask block per packet.  Sweep 2: payload
    # keystream for the four survivors only.
    assert len(sweeps) == 2
    assert [nblocks for _, _, nblocks in sweeps[0]] == [1] * 6
    survivor_blocks = [
        -(-len(ct) // 16)
        for i, (_, ct, _, _) in enumerate(tampered)
        if i not in forged
    ]
    assert [nblocks for _, _, nblocks in sweeps[1]] == survivor_blocks


def test_gcm_open_many_all_forged_runs_no_payload_sweep():
    key, _, opens = _sealed_gcm_batch(count=4, seed=0xE6)
    tampered = [(iv, ct, bytes(len(tag)), aad) for iv, ct, tag, aad in opens]
    assert gcm_open_many(key, tampered) == [None] * 4


def test_ccm_open_many_failed_lanes_do_not_perturb_survivors():
    rng = random.Random(0xE7)
    key = rng.randbytes(16)
    packets = [
        (rng.randbytes(13), rng.randbytes(rng.choice((32, 500, 2048))), rng.randbytes(8))
        for _ in range(9)
    ]
    sealed = ccm_seal_many(key, packets, 8)
    opens = [
        (nonce, ct, tag, aad)
        for (nonce, _, aad), (ct, tag) in zip(packets, sealed)
    ]
    baseline = ccm_open_many(key, opens)
    forged = {0, 8}
    tampered = [
        (nonce, ct, bytes(8) if i in forged else tag, aad)
        for i, (nonce, ct, tag, aad) in enumerate(opens)
    ]
    opened = ccm_open_many(key, tampered)
    for i, (pt, (_, plaintext, _)) in enumerate(zip(opened, packets)):
        if i in forged:
            assert pt is None
        else:
            assert pt == plaintext == baseline[i]
