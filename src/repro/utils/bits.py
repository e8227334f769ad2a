"""Bit- and word-level conversions for the 32-bit MCCP datapath.

All multi-byte values in the MCCP follow the network (big-endian)
convention used by AES, GHASH and the NIST mode specifications.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

WORD32_MASK = 0xFFFF_FFFF
WORD128_MASK = (1 << 128) - 1


def bytes_to_int(data: bytes) -> int:
    """Interpret *data* as a big-endian unsigned integer."""
    return int.from_bytes(data, "big")


def int_to_bytes(value: int, length: int) -> bytes:
    """Encode *value* as *length* big-endian bytes.

    Raises
    ------
    OverflowError
        If *value* does not fit in *length* bytes.
    ValueError
        If *value* is negative.
    """
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    return value.to_bytes(length, "big")


def bytes_to_words32(data: bytes) -> List[int]:
    """Split *data* (a multiple of 4 bytes) into big-endian 32-bit words.

    This mirrors how the 32-bit I/O core walks a 128-bit bank-register
    word: most-significant 32-bit sub-word first.  One ``struct.unpack``
    converts a whole packet.
    """
    if len(data) % 4 != 0:
        raise ValueError(f"length {len(data)} is not a multiple of 4")
    return list(struct.unpack(f">{len(data) // 4}I", data))


def words32_to_bytes(words: Sequence[int]) -> bytes:
    """Inverse of :func:`bytes_to_words32` (one ``struct.pack``)."""
    try:
        return struct.pack(f">{len(words)}I", *words)
    except struct.error as exc:
        raise ValueError(f"a word does not fit in 32 bits: {exc}") from exc


def rotl8(value: int, amount: int) -> int:
    """Rotate an 8-bit value left by *amount* bits."""
    amount %= 8
    value &= 0xFF
    return ((value << amount) | (value >> (8 - amount))) & 0xFF if amount else value


def rotr8(value: int, amount: int) -> int:
    """Rotate an 8-bit value right by *amount* bits."""
    return rotl8(value, (8 - amount) % 8)


def rotl32(value: int, amount: int) -> int:
    """Rotate a 32-bit value left by *amount* bits."""
    amount %= 32
    value &= WORD32_MASK
    if amount == 0:
        return value
    return ((value << amount) | (value >> (32 - amount))) & WORD32_MASK
