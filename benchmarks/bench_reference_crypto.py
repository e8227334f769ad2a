"""Gold-model crypto microbenchmarks (pytest-benchmark proper).

Not a paper artifact — tracks the Python crypto kernels that every
simulation cycle ultimately calls.  Each hot path is benchmarked twice:
the pure-reference implementation (``use_fast=False`` — the readable,
hardware-mirroring code) and the fast engine (T-table AES, vectorised
bulk CTR, tabulated GHASH).  The pairing makes both regressions and the
fast-path speedup visible in one run:

    pytest benchmarks/bench_reference_crypto.py --benchmark-only

These are kernel microbenchmarks for local investigation only; the
repository's speed claims come from ``perfbench/`` (end-to-end replays
with a per-layer time split), and byte equality of the two paths is
pinned by ``tests/crypto/test_fast_equivalence.py``.
"""


from repro.crypto import AES, ccm_encrypt, gcm_encrypt, whirlpool
from repro.crypto.fast.bulk import ctr_xcrypt_bulk
from repro.crypto.fast.gf128_tables import gf128_mul_tabulated, ghash_tables
from repro.crypto.gf128 import gf128_mul
from repro.crypto.ghash import GHash
from repro.crypto.modes.ctr import ctr_xcrypt
from repro.experiments.scenarios._util import deterministic_bytes as db

KEY = bytes(range(16))
BLOCK = db(16, seed=11)
PACKET = db(2048, seed=12)
ICB = db(16, seed=16)
H = db(16, seed=17)


# -- AES single block ------------------------------------------------------


def test_bench_aes_block_reference(benchmark):
    cipher = AES(KEY, use_fast=False)
    out = benchmark(cipher.encrypt_block, BLOCK)
    assert len(out) == 16


def test_bench_aes_block_fast(benchmark):
    cipher = AES(KEY, use_fast=True)
    reference = AES(KEY, use_fast=False).encrypt_block(BLOCK)
    out = benchmark(cipher.encrypt_block, BLOCK)
    assert out == reference


# -- GF(2^128) multiply / GHASH -------------------------------------------


def test_bench_gf128_mul(benchmark):
    x = int.from_bytes(db(16, seed=13), "big")
    y = int.from_bytes(db(16, seed=14), "big")
    assert benchmark(gf128_mul, x, y) == gf128_mul(x, y)


def test_bench_gf128_mul_tabulated(benchmark):
    x = int.from_bytes(db(16, seed=13), "big")
    y = int.from_bytes(db(16, seed=14), "big")
    ghash_tables(y)  # build outside the timed region (memoized per subkey)
    assert benchmark(gf128_mul_tabulated, x, y) == gf128_mul(x, y)


def test_bench_ghash_2kb_reference(benchmark):
    def run():
        return GHash(H, use_fast=False).update_blocks(PACKET).digest()

    assert len(benchmark(run)) == 16


def test_bench_ghash_2kb_fast(benchmark):
    reference = GHash(H, use_fast=False).update_blocks(PACKET).digest()

    def run():
        return GHash(H, use_fast=True).update_blocks(PACKET).digest()

    assert benchmark(run) == reference


# -- AES-CTR bulk ----------------------------------------------------------


def test_bench_ctr_2kb_reference(benchmark):
    cipher = AES(KEY, use_fast=False)
    out = benchmark(ctr_xcrypt, cipher, ICB, PACKET, 16, False)
    assert len(out) == 2048


def test_bench_ctr_2kb_fast(benchmark):
    reference = ctr_xcrypt(AES(KEY, use_fast=False), ICB, PACKET, 16, False)
    out = benchmark(ctr_xcrypt_bulk, KEY, ICB, PACKET, 16)
    assert out == reference


# -- AEAD whole packets ----------------------------------------------------


def test_bench_gcm_2kb_reference(benchmark):
    ct, tag = benchmark(
        gcm_encrypt, KEY, db(12, seed=1), PACKET, b"", 16, False
    )
    assert len(ct) == 2048 and len(tag) == 16


def test_bench_gcm_2kb_packet(benchmark):
    ct, tag = benchmark(gcm_encrypt, KEY, db(12, seed=1), PACKET, b"")
    assert (ct, tag) == gcm_encrypt(KEY, db(12, seed=1), PACKET, b"", use_fast=False)


def test_bench_ccm_2kb_reference(benchmark):
    ct, tag = benchmark(
        ccm_encrypt, KEY, db(13, seed=1), PACKET, b"", 8, False
    )
    assert len(tag) == 8


def test_bench_ccm_2kb_packet(benchmark):
    ct, tag = benchmark(ccm_encrypt, KEY, db(13, seed=1), PACKET, b"", 8)
    assert (ct, tag) == ccm_encrypt(KEY, db(13, seed=1), PACKET, b"", 8, use_fast=False)


def test_bench_whirlpool_block(benchmark):
    digest = benchmark(whirlpool, db(64, seed=15))
    assert len(digest) == 64
