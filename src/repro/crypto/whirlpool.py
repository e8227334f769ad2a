"""Whirlpool hash function (ISO/IEC 10118-3), from scratch.

Whirlpool is the second module the paper loads into the reconfigurable
Cryptographic Unit region (Table IV: 1153 slices / 4 BRAM, 97 kB
bitstream).  The implementation follows the final (2003) specification:

- 512-bit state as an 8x8 byte matrix filled row-wise;
- round function γ (SubBytes), π (ShiftColumns: column *c* rotated down
  by *c*), θ (MixRows by the circulant MDS matrix cir(1,1,4,1,8,5,2,9)
  over GF(2^8) mod x^8+x^4+x^3+x^2+1), σ (AddRoundKey);
- 10 rounds; key schedule runs the same round function with round
  constants drawn from the S-box;
- Miyaguchi–Preneel compression and 256-bit length padding.

The S-box is generated from the specification's E / E^-1 / R mini-boxes
rather than transcribed, for the same reason as the AES tables.
"""

from __future__ import annotations

from typing import List, Sequence

ROUNDS = 10
BLOCK_BYTES = 64

WP_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1

# Specification mini-boxes (4-bit).
_E = [0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3, 0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0]
_R = [0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF, 0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0]
_E_INV = [0] * 16
for _i, _v in enumerate(_E):
    _E_INV[_v] = _i


def _build_sbox() -> List[int]:
    sbox = []
    for x in range(256):
        a1 = _E[x >> 4]
        b1 = _E_INV[x & 0xF]
        r = _R[a1 ^ b1]
        a2 = _E[a1 ^ r]
        b2 = _E_INV[b1 ^ r]
        sbox.append((a2 << 4) | b2)
    return sbox


SBOX = _build_sbox()


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) product modulo the Whirlpool polynomial 0x11D."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= WP_POLY
        b >>= 1
    return result & 0xFF


#: First row of the circulant diffusion matrix.
_CIR = (0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09)

# Pre-computed multiplication tables for each distinct matrix constant.
_MUL = {c: [_gf_mul(x, c) for x in range(256)] for c in set(_CIR)}


def _gamma(state: List[int]) -> List[int]:
    """SubBytes."""
    return [SBOX[b] for b in state]


def _pi(state: List[int]) -> List[int]:
    """ShiftColumns: column c rotated downwards by c positions."""
    out = [0] * 64
    for c in range(8):
        for r in range(8):
            out[((r + c) % 8) * 8 + c] = state[r * 8 + c]
    return out


def _theta(state: List[int]) -> List[int]:
    """MixRows: state <- state x C with C[i][j] = cir[(j - i) mod 8]."""
    out = [0] * 64
    for r in range(8):
        row = state[r * 8 : r * 8 + 8]
        base = r * 8
        for c in range(8):
            acc = 0
            for k in range(8):
                acc ^= _MUL[_CIR[(c - k) % 8]][row[k]]
            out[base + c] = acc
    return out


def _sigma(state: List[int], key: Sequence[int]) -> List[int]:
    """AddRoundKey."""
    return [s ^ k for s, k in zip(state, key)]


def _round_constants() -> List[List[int]]:
    consts = []
    for r in range(1, ROUNDS + 1):
        rc = [0] * 64
        for j in range(8):
            rc[j] = SBOX[8 * (r - 1) + j]
        consts.append(rc)
    return consts


_RC = _round_constants()


def _w_cipher(key: bytes, block: bytes) -> bytes:
    """The W block cipher at the heart of Whirlpool."""
    k = list(key)
    s = _sigma(list(block), k)
    for r in range(ROUNDS):
        k = _sigma(_theta(_pi(_gamma(k))), _RC[r])
        s = _sigma(_theta(_pi(_gamma(s))), k)
    return bytes(s)


def compress(h: bytes, block: bytes) -> bytes:
    """Miyaguchi–Preneel compression: ``W_H(m) xor m xor H``."""
    if len(h) != BLOCK_BYTES or len(block) != BLOCK_BYTES:
        raise ValueError("compress expects 64-byte state and block")
    w = _w_cipher(h, block)
    return bytes(a ^ b ^ c for a, b, c in zip(w, block, h))


class Whirlpool:
    """Incremental Whirlpool hasher with the usual update/digest API.

    Examples
    --------
    >>> Whirlpool(b"abc").hexdigest()[:16]
    '4e2448a4c6f486bb'
    """

    def __init__(self, data: bytes = b""):
        self._h = bytes(BLOCK_BYTES)
        self._buffer = b""
        self._length_bits = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Whirlpool":
        """Absorb *data*; may be called repeatedly."""
        self._length_bits += 8 * len(data)
        self._buffer += data
        while len(self._buffer) >= BLOCK_BYTES:
            self._h = compress(self._h, self._buffer[:BLOCK_BYTES])
            self._buffer = self._buffer[BLOCK_BYTES:]
        return self

    def _padded_tail(self) -> bytes:
        # Append the 0x80 marker, zero-fill to 32 bytes short of a block
        # boundary, then the 256-bit message length in bits.
        tail = self._buffer + b"\x80"
        pad_to = BLOCK_BYTES - 32
        if len(tail) % BLOCK_BYTES > pad_to or len(tail) % BLOCK_BYTES == 0:
            tail += b"\x00" * (BLOCK_BYTES - len(tail) % BLOCK_BYTES)
            tail += b"\x00" * pad_to
        else:
            tail += b"\x00" * (pad_to - len(tail) % BLOCK_BYTES)
        tail += self._length_bits.to_bytes(32, "big")
        return tail

    def digest(self) -> bytes:
        """Return the 64-byte digest (does not consume internal state)."""
        h = self._h
        tail = self._padded_tail()
        for i in range(0, len(tail), BLOCK_BYTES):
            h = compress(h, tail[i : i + BLOCK_BYTES])
        return h

    def hexdigest(self) -> str:
        """Hex form of :meth:`digest`."""
        return self.digest().hex()


def whirlpool(data: bytes) -> bytes:
    """One-shot Whirlpool digest of *data*."""
    return Whirlpool(data).digest()
