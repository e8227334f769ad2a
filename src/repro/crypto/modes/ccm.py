"""CCM — Counter with CBC-MAC (NIST SP 800-38C / RFC 3610).

The formatting functions (``B_0``, associated-data encoding, counter
blocks) are exposed separately because in the MCCP they are executed by
the *communication controller*, not by the cryptographic cores: the
paper (section VI.B) requires data to be fully formatted before it is
pushed into a core's input FIFO.  The device model and the radio
substrate both call these helpers.

Counter increments use the standard big-endian increment over the
*q*-byte counter field.  With the radio's 13-byte nonces, ``q == 2`` and
the field is exactly the 16 bits the hardware INC core updates, so the
device and this reference agree bit-for-bit.
"""

from __future__ import annotations

import hmac
from typing import Tuple

from repro.crypto.aes import AES
from repro.crypto.modes.cbc_mac import cbc_mac
from repro.errors import AuthenticationFailure, NonceError, TagError
from repro.utils.bytesops import pad_zeros, xor_bytes

BLOCK_BYTES = 16

#: Valid tag lengths per SP 800-38C (4..16, even).
VALID_TAG_LENGTHS = (4, 6, 8, 10, 12, 14, 16)

#: Valid nonce lengths (7..13 bytes; q = 15 - n ranges 2..8).
VALID_NONCE_LENGTHS = tuple(range(7, 14))


def _check_params(nonce: bytes, tag_length: int, payload_len: int) -> int:
    if len(nonce) not in VALID_NONCE_LENGTHS:
        raise NonceError(
            f"CCM nonce must be 7..13 bytes, got {len(nonce)}"
        )
    if tag_length not in VALID_TAG_LENGTHS:
        raise TagError(
            f"CCM tag length must be one of {VALID_TAG_LENGTHS}, got {tag_length}"
        )
    q = 15 - len(nonce)
    if payload_len >= (1 << (8 * q)):
        raise ValueError(
            f"payload of {payload_len} bytes does not fit the {q}-byte length field"
        )
    return q


def format_b0(nonce: bytes, aad_len: int, payload_len: int, tag_length: int) -> bytes:
    """Build the ``B_0`` block (SP 800-38C appendix A.2.1)."""
    q = _check_params(nonce, tag_length, payload_len)
    flags = (
        (0x40 if aad_len > 0 else 0x00)
        | (((tag_length - 2) // 2) << 3)
        | (q - 1)
    )
    return bytes([flags]) + nonce + payload_len.to_bytes(q, "big")


def format_associated_data(aad: bytes) -> bytes:
    """Encode the associated data with its length prefix, zero-padded.

    Supports the two length encodings relevant to packet radio:
    short (< 2^16 - 2^8) and 32-bit (with the ``0xFFFE`` marker).
    """
    if not aad:
        return b""
    a = len(aad)
    if a < (1 << 16) - (1 << 8):
        encoded = a.to_bytes(2, "big") + aad
    elif a < (1 << 32):
        encoded = b"\xff\xfe" + a.to_bytes(4, "big") + aad
    else:
        raise ValueError("associated data longer than 2^32 bytes is unsupported")
    return pad_zeros(encoded, BLOCK_BYTES)


def format_counter_block(nonce: bytes, index: int) -> bytes:
    """Build counter block ``A_index`` (flags | nonce | counter)."""
    q = 15 - len(nonce)
    if len(nonce) not in VALID_NONCE_LENGTHS:
        raise NonceError(f"CCM nonce must be 7..13 bytes, got {len(nonce)}")
    if index >= (1 << (8 * q)):
        raise ValueError(f"counter index {index} does not fit {q} bytes")
    return bytes([q - 1]) + nonce + index.to_bytes(q, "big")


def _ctr_stream(cipher: AES, nonce: bytes, nblocks: int) -> bytes:
    """Keystream S_1..S_nblocks (A_0 is reserved for the tag)."""
    out = bytearray()
    for i in range(1, nblocks + 1):
        out += cipher.encrypt_block(format_counter_block(nonce, i))
    return bytes(out)


def ccm_encrypt(
    key: bytes,
    nonce: bytes,
    plaintext: bytes,
    aad: bytes = b"",
    tag_length: int = 16,
) -> Tuple[bytes, bytes]:
    """CCM authenticated encryption.

    Returns ``(ciphertext, tag)`` with ``len(tag) == tag_length``.
    """
    cipher = AES(key)
    _check_params(nonce, tag_length, len(plaintext))

    b = (
        format_b0(nonce, len(aad), len(plaintext), tag_length)
        + format_associated_data(aad)
        + pad_zeros(plaintext, BLOCK_BYTES)
    )
    t_full = cbc_mac(cipher, b)

    nblocks = -(-len(plaintext) // BLOCK_BYTES)
    stream = _ctr_stream(cipher, nonce, nblocks)
    ciphertext = xor_bytes(plaintext, stream[: len(plaintext)]) if plaintext else b""

    s0 = cipher.encrypt_block(format_counter_block(nonce, 0))
    tag = xor_bytes(t_full, s0)[:tag_length]
    return ciphertext, tag


def ccm_decrypt(
    key: bytes,
    nonce: bytes,
    ciphertext: bytes,
    tag: bytes,
    aad: bytes = b"",
) -> bytes:
    """CCM authenticated decryption.

    Raises
    ------
    AuthenticationFailure
        If the tag does not verify.  Per SP 800-38C no plaintext is
        released on failure (the hardware analogue re-initialises the
        output FIFO, paper section IV.C).
    """
    cipher = AES(key)
    tag_length = len(tag)
    _check_params(nonce, tag_length, len(ciphertext))

    nblocks = -(-len(ciphertext) // BLOCK_BYTES)
    stream = _ctr_stream(cipher, nonce, nblocks)
    plaintext = (
        xor_bytes(ciphertext, stream[: len(ciphertext)]) if ciphertext else b""
    )

    b = (
        format_b0(nonce, len(aad), len(plaintext), tag_length)
        + format_associated_data(aad)
        + pad_zeros(plaintext, BLOCK_BYTES)
    )
    t_full = cbc_mac(cipher, b)
    s0 = cipher.encrypt_block(format_counter_block(nonce, 0))
    expected = xor_bytes(t_full, s0)[:tag_length]

    if not hmac.compare_digest(expected, tag):
        raise AuthenticationFailure("CCM tag verification failed")
    return plaintext
