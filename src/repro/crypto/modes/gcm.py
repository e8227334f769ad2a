"""GCM — Galois/Counter Mode (NIST SP 800-38D).

Exposes the ``J_0`` derivation and the length block separately because
the MCCP's communication controller performs all data formatting before
feeding the cores (paper section VI.B): a core receives ``J_0``, the
padded AAD, the padded plaintext and the length block as ready-made
128-bit words; its firmware (Listing 1 of the paper) only runs the
SAES/XOR/SGFM/INC pipeline.
"""

from __future__ import annotations

import hmac
from typing import Tuple

from repro.crypto.aes import AES
from repro.crypto.ghash import GHash
from repro.errors import AuthenticationFailure, NonceError, TagError
from repro.utils.bytesops import pad_zeros, xor_bytes

BLOCK_BYTES = 16

#: Tag lengths permitted by SP 800-38D (bytes).
VALID_TAG_LENGTHS = (4, 8, 12, 13, 14, 15, 16)


def inc32(block: bytes, by: int = 1) -> bytes:
    """Increment the low 32 bits of a 16-byte block (SP 800-38D inc32)."""
    low = (int.from_bytes(block[12:], "big") + by) & 0xFFFFFFFF
    return block[:12] + low.to_bytes(4, "big")


def gcm_j0(cipher: AES, iv: bytes) -> bytes:
    """Derive the pre-counter block ``J_0`` from the IV.

    The 96-bit IV fast path appends ``0^31 || 1``; other IV lengths run
    through GHASH with a length block.
    """
    if not iv:
        raise NonceError("GCM IV must be non-empty")
    if len(iv) == 12:
        return iv + b"\x00\x00\x00\x01"
    h = cipher.encrypt_block(b"\x00" * BLOCK_BYTES)
    g = GHash(h)
    g.update_blocks(pad_zeros(iv, BLOCK_BYTES))
    g.update((0).to_bytes(8, "big") + (8 * len(iv)).to_bytes(8, "big"))
    return g.digest()


def gcm_length_block(aad_len: int, data_len: int) -> bytes:
    """The final GHASH block: ``[len(A)]_64 || [len(C)]_64`` in bits."""
    return (8 * aad_len).to_bytes(8, "big") + (8 * data_len).to_bytes(8, "big")


def _gctr(cipher: AES, icb: bytes, data: bytes) -> bytes:
    """GCTR: CTR mode with inc32, starting at *icb*."""
    if not data:
        return b""
    out = bytearray()
    counter = icb
    for i in range(0, len(data), BLOCK_BYTES):
        chunk = data[i : i + BLOCK_BYTES]
        stream = cipher.encrypt_block(counter)
        out += xor_bytes(chunk, stream[: len(chunk)])
        counter = inc32(counter)
    return bytes(out)


def _ghash_tag(
    cipher: AES,
    h: bytes,
    j0: bytes,
    aad: bytes,
    ciphertext: bytes,
    tag_length: int,
) -> bytes:
    g = GHash(h)
    if aad:
        g.update_blocks(pad_zeros(aad, BLOCK_BYTES))
    if ciphertext:
        g.update_blocks(pad_zeros(ciphertext, BLOCK_BYTES))
    g.update(gcm_length_block(len(aad), len(ciphertext)))
    s = g.digest()
    return xor_bytes(cipher.encrypt_block(j0), s)[:tag_length]


def gcm_encrypt(
    key: bytes,
    iv: bytes,
    plaintext: bytes,
    aad: bytes = b"",
    tag_length: int = 16,
) -> Tuple[bytes, bytes]:
    """GCM authenticated encryption; returns ``(ciphertext, tag)``."""
    if tag_length not in VALID_TAG_LENGTHS:
        raise TagError(
            f"GCM tag length must be one of {VALID_TAG_LENGTHS}, got {tag_length}"
        )
    cipher = AES(key)
    h = cipher.encrypt_block(b"\x00" * BLOCK_BYTES)
    j0 = gcm_j0(cipher, iv)
    ciphertext = _gctr(cipher, inc32(j0), plaintext)
    tag = _ghash_tag(cipher, h, j0, aad, ciphertext, tag_length)
    return ciphertext, tag


def gcm_decrypt(
    key: bytes,
    iv: bytes,
    ciphertext: bytes,
    tag: bytes,
    aad: bytes = b"",
) -> bytes:
    """GCM authenticated decryption.

    Raises
    ------
    AuthenticationFailure
        If the tag does not verify; no plaintext is released.
    """
    if len(tag) not in VALID_TAG_LENGTHS:
        raise TagError(f"GCM tag length {len(tag)} is invalid")
    cipher = AES(key)
    h = cipher.encrypt_block(b"\x00" * BLOCK_BYTES)
    j0 = gcm_j0(cipher, iv)
    expected = _ghash_tag(cipher, h, j0, aad, ciphertext, len(tag))
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationFailure("GCM tag verification failed")
    return _gctr(cipher, inc32(j0), ciphertext)
