"""One-call bulk APIs: whole-message CTR, GCM, CCM and CBC-MAC.

The engine's per-packet entry points: the library API, the per-packet
oracle of the dataplane fuzzer and perfbench, and the AES core's
counter-run readahead call them by name.  Each call takes a raw key (memoized expansion) or a
pre-expanded schedule, runs the batched counter engine plus the
tabulated GHASH, and returns exactly the bytes the reference
implementations in :mod:`repro.crypto.modes` produce.

The block-at-a-time reference code remains the specification; this
module is only ever an accelerated restatement of it, and the
equivalence suite holds the two byte-identical on every vector.
"""

from __future__ import annotations

import hmac
from typing import Sequence, Tuple, Union

from repro.crypto.fast.aes_ttable import (
    encrypt_block_tt,
    encrypt_words_tt,
    expand_key_cached,
)
from repro.crypto.fast.aes_vector import ctr_keystream_vector, encrypt_blocks_vector
from repro.crypto.fast.ghash_hpower import ghash_blocks_hpower
from repro.errors import AuthenticationFailure, BlockSizeError, NonceError, TagError
from repro.utils.bytesops import pad_zeros, xor_bytes

BLOCK_BYTES = 16

Schedule = Sequence[Sequence[int]]
KeyOrSchedule = Union[bytes, Schedule]


def _schedule(key_or_schedule: KeyOrSchedule) -> Schedule:
    """Accept a raw key (expanded via the LRU memo) or a ready schedule."""
    if isinstance(key_or_schedule, (bytes, bytearray)):
        return expand_key_cached(bytes(key_or_schedule))
    return key_or_schedule


def xor_data(data: bytes, keystream: bytes) -> bytes:
    """XOR *data* against (a prefix of) *keystream*."""
    if not data:
        return b""
    return xor_bytes(data, keystream[: len(data)])


# -- CTR ------------------------------------------------------------------


def ctr_stream(
    key_or_schedule: KeyOrSchedule,
    initial_counter: bytes,
    nblocks: int,
    inc_bits: int = 16,
) -> bytes:
    """Generate *nblocks* keystream blocks in one bulk call.

    Semantics match :func:`repro.crypto.modes.ctr.ctr_keystream`: the
    first block encrypts *initial_counter* and the low *inc_bits* bits
    increment by one per block, wrapping modulo ``2**inc_bits``.
    """
    if len(initial_counter) != BLOCK_BYTES:
        raise BlockSizeError(
            f"initial counter must be 16 bytes, got {len(initial_counter)}"
        )
    # Same increment-width rule as modes.ctr.increment_counter, so the
    # fast and reference paths accept and reject identical inputs.
    if inc_bits <= 0 or inc_bits > 128 or inc_bits % 8 != 0:
        raise ValueError(
            f"inc_bits must be a positive multiple of 8 <= 128, got {inc_bits}"
        )
    if nblocks < 0:
        raise ValueError("nblocks must be non-negative")
    if nblocks == 0:
        return b""
    round_keys = _schedule(key_or_schedule)
    c0 = int.from_bytes(initial_counter, "big")
    stream = ctr_keystream_vector(round_keys, c0, nblocks, inc_bits)
    if stream is not None:
        return stream
    # Scalar fallback: counter arithmetic on ints, T-table rounds.
    mask = (1 << inc_bits) - 1
    hi = c0 >> inc_bits << inc_bits
    low = c0 & mask
    out = bytearray()
    append = out.extend
    for _ in range(nblocks):
        c = hi | low
        o0, o1, o2, o3 = encrypt_words_tt(
            (c >> 96) & 0xFFFFFFFF,
            (c >> 64) & 0xFFFFFFFF,
            (c >> 32) & 0xFFFFFFFF,
            c & 0xFFFFFFFF,
            round_keys,
        )
        append(((o0 << 96) | (o1 << 64) | (o2 << 32) | o3).to_bytes(16, "big"))
        low = (low + 1) & mask
    return bytes(out)


def ctr_xcrypt_bulk(
    key_or_schedule: KeyOrSchedule,
    initial_counter: bytes,
    data: bytes,
    inc_bits: int = 16,
) -> bytes:
    """Encrypt/decrypt *data* in CTR mode as one bulk call."""
    if not data:
        return b""
    nblocks = -(-len(data) // BLOCK_BYTES)
    stream = ctr_stream(key_or_schedule, initial_counter, nblocks, inc_bits)
    return xor_data(data, stream)


# -- CBC-MAC --------------------------------------------------------------


def cbc_mac_fast(
    key_or_schedule: KeyOrSchedule,
    data: bytes,
    iv: bytes = b"\x00" * BLOCK_BYTES,
) -> bytes:
    """CBC-MAC over whole blocks with the chaining state kept as words.

    The feedback dependency makes this the one mode that cannot batch
    across blocks (the paper's section II.B argument, in software), so
    the win here is the T-table round plus zero per-block byte churn.
    """
    if len(data) % BLOCK_BYTES != 0:
        raise BlockSizeError(
            f"CBC-MAC input length {len(data)} is not a multiple of 16"
        )
    if len(iv) != BLOCK_BYTES:
        raise BlockSizeError(f"CBC-MAC IV must be 16 bytes, got {len(iv)}")
    if not data:
        raise BlockSizeError("CBC-MAC requires at least one block")
    round_keys = _schedule(key_or_schedule)
    y = int.from_bytes(iv, "big")
    for i in range(0, len(data), BLOCK_BYTES):
        x = y ^ int.from_bytes(data[i : i + BLOCK_BYTES], "big")
        o0, o1, o2, o3 = encrypt_words_tt(
            (x >> 96) & 0xFFFFFFFF,
            (x >> 64) & 0xFFFFFFFF,
            (x >> 32) & 0xFFFFFFFF,
            x & 0xFFFFFFFF,
            round_keys,
        )
        y = (o0 << 96) | (o1 << 64) | (o2 << 32) | o3
    return y.to_bytes(BLOCK_BYTES, "big")


# -- GCM ------------------------------------------------------------------


def _inc32(c: int, by: int = 1) -> int:
    """SP 800-38D inc32 on a 128-bit counter held as an int."""
    return (c & ~0xFFFFFFFF) | ((c + by) & 0xFFFFFFFF)


def _gcm_j0_int(h: int, iv: bytes) -> int:
    if not iv:
        raise NonceError("GCM IV must be non-empty")
    if len(iv) == 12:
        return (int.from_bytes(iv, "big") << 32) | 1
    acc = ghash_blocks_hpower(h, 0, pad_zeros(iv, BLOCK_BYTES))
    length_block = (8 * len(iv)).to_bytes(16, "big")
    return ghash_blocks_hpower(h, acc, length_block)


def _ghash_aad_ct(h: int, aad: bytes, ciphertext: bytes) -> int:
    """GHASH accumulator over padded aad, padded ciphertext and lengths."""
    acc = 0
    if aad:
        acc = ghash_blocks_hpower(h, acc, pad_zeros(aad, BLOCK_BYTES))
    if ciphertext:
        acc = ghash_blocks_hpower(h, acc, pad_zeros(ciphertext, BLOCK_BYTES))
    length_block = (8 * len(aad)).to_bytes(8, "big") + (
        8 * len(ciphertext)
    ).to_bytes(8, "big")
    return ghash_blocks_hpower(h, acc, length_block)


def _gcm_tag(
    round_keys: Schedule,
    h: int,
    j0: int,
    aad: bytes,
    ciphertext: bytes,
    tag_length: int,
) -> bytes:
    acc = _ghash_aad_ct(h, aad, ciphertext)
    ej0 = int.from_bytes(
        encrypt_block_tt(j0.to_bytes(BLOCK_BYTES, "big"), round_keys), "big"
    )
    return (acc ^ ej0).to_bytes(BLOCK_BYTES, "big")[:tag_length]


def gcm_seal(
    key: bytes,
    iv: bytes,
    plaintext: bytes,
    aad: bytes = b"",
    tag_length: int = 16,
) -> Tuple[bytes, bytes]:
    """Whole-message GCM encryption; returns ``(ciphertext, tag)``."""
    from repro.crypto.modes.gcm import VALID_TAG_LENGTHS

    if tag_length not in VALID_TAG_LENGTHS:
        raise TagError(
            f"GCM tag length must be one of {VALID_TAG_LENGTHS}, got {tag_length}"
        )
    round_keys = expand_key_cached(bytes(key))
    h = int.from_bytes(
        encrypt_block_tt(b"\x00" * BLOCK_BYTES, round_keys), "big"
    )
    j0 = _gcm_j0_int(h, iv)
    icb = _inc32(j0).to_bytes(BLOCK_BYTES, "big")
    ciphertext = ctr_xcrypt_bulk(round_keys, icb, plaintext, inc_bits=32)
    tag = _gcm_tag(round_keys, h, j0, aad, ciphertext, tag_length)
    return ciphertext, tag


def gcm_open(
    key: bytes,
    iv: bytes,
    ciphertext: bytes,
    tag: bytes,
    aad: bytes = b"",
) -> bytes:
    """Whole-message GCM decryption; raises on tag mismatch.

    Tag length is validated up front: without it a zero-length tag
    would compare equal to a zero-length expected tag and authenticate
    anything.
    """
    from repro.crypto.modes.gcm import VALID_TAG_LENGTHS

    if len(tag) not in VALID_TAG_LENGTHS:
        raise TagError(f"GCM tag length {len(tag)} is invalid")
    round_keys = expand_key_cached(bytes(key))
    h = int.from_bytes(
        encrypt_block_tt(b"\x00" * BLOCK_BYTES, round_keys), "big"
    )
    j0 = _gcm_j0_int(h, iv)
    expected = _gcm_tag(round_keys, h, j0, aad, ciphertext, len(tag))
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationFailure("GCM tag verification failed")
    icb = _inc32(j0).to_bytes(BLOCK_BYTES, "big")
    return ctr_xcrypt_bulk(round_keys, icb, ciphertext, inc_bits=32)


# -- CCM ------------------------------------------------------------------


def _ccm_keystream(
    round_keys: Schedule, nonce: bytes, nblocks: int
) -> Tuple[bytes, bytes]:
    """Return ``(S_0, S_1..S_nblocks)`` for the CCM counter chain."""
    from repro.crypto.modes.ccm import format_counter_block

    a0 = format_counter_block(nonce, 0)
    s0 = encrypt_block_tt(a0, round_keys)
    if nblocks == 0:
        return s0, b""
    q = 15 - len(nonce)
    a1 = format_counter_block(nonce, 1)
    # The q-byte counter field increments without wrapping (payload
    # length is bounded by 2^(8q)), which matches low-8q-bit increment.
    stream = ctr_stream(round_keys, a1, nblocks, inc_bits=8 * q)
    return s0, stream


def ccm_seal(
    key: bytes,
    nonce: bytes,
    plaintext: bytes,
    aad: bytes = b"",
    tag_length: int = 16,
) -> Tuple[bytes, bytes]:
    """Whole-message CCM encryption; returns ``(ciphertext, tag)``."""
    from repro.crypto.modes.ccm import (
        _check_params,
        format_associated_data,
        format_b0,
    )

    round_keys = expand_key_cached(bytes(key))
    _check_params(nonce, tag_length, len(plaintext))
    b = (
        format_b0(nonce, len(aad), len(plaintext), tag_length)
        + format_associated_data(aad)
        + pad_zeros(plaintext, BLOCK_BYTES)
    )
    t_full = cbc_mac_fast(round_keys, b)
    nblocks = -(-len(plaintext) // BLOCK_BYTES)
    s0, stream = _ccm_keystream(round_keys, nonce, nblocks)
    ciphertext = xor_data(plaintext, stream) if plaintext else b""
    tag = xor_data(t_full, s0)[:tag_length]
    return ciphertext, tag


def ccm_open(
    key: bytes,
    nonce: bytes,
    ciphertext: bytes,
    tag: bytes,
    aad: bytes = b"",
) -> bytes:
    """Whole-message CCM decryption; raises on tag mismatch."""
    from repro.crypto.modes.ccm import (
        _check_params,
        format_associated_data,
        format_b0,
    )

    round_keys = expand_key_cached(bytes(key))
    tag_length = len(tag)
    _check_params(nonce, tag_length, len(ciphertext))
    nblocks = -(-len(ciphertext) // BLOCK_BYTES)
    s0, stream = _ccm_keystream(round_keys, nonce, nblocks)
    plaintext = xor_data(ciphertext, stream) if ciphertext else b""
    b = (
        format_b0(nonce, len(aad), len(plaintext), tag_length)
        + format_associated_data(aad)
        + pad_zeros(plaintext, BLOCK_BYTES)
    )
    t_full = cbc_mac_fast(round_keys, b)
    expected = xor_data(t_full, s0)[:tag_length]
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationFailure("CCM tag verification failed")
    return plaintext


def ecb_encrypt_blocks(
    key_or_schedule: KeyOrSchedule, blocks: bytes
) -> bytes:
    """ECB-encrypt a whole number of 16-byte blocks (vectorised when
    possible) — the building block for pre-materialised counter runs."""
    if len(blocks) % BLOCK_BYTES:
        raise BlockSizeError(
            f"ECB input length {len(blocks)} is not a multiple of 16"
        )
    round_keys = _schedule(key_or_schedule)
    out = encrypt_blocks_vector(blocks, round_keys)
    if out is not None:
        return out
    return b"".join(
        encrypt_block_tt(blocks[i : i + BLOCK_BYTES], round_keys)
        for i in range(0, len(blocks), BLOCK_BYTES)
    )
