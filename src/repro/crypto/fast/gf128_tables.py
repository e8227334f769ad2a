"""Tabulated GF(2^128) multiplication (Shoup's byte tables).

The MCCP's GHASH core is a digit-serial multiplier after Lemsitzer et
al. — 3 bits of the multiplier per clock, 43 clocks per product.  The
classic *software* counterpart (Shoup; adopted by SP 800-38D's own
reference code) precomputes, for a fixed subkey ``H``, the products of
every byte value at every byte position: one 128-bit multiplication
then collapses to sixteen table lookups and XORs.

Table construction is cheap because multiplication is linear over
GF(2): entry ``b`` of a row is the XOR of the basis products
``H * x^i`` for the set bits of ``b``.  One walk of 128 multiply-by-x
steps yields all 128 basis values, and each row then fills by doubling
— entries ``n..2n-1`` are entries ``0..n-1`` XOR the next bit's basis
value.  Per-``H`` tables live behind an LRU cache keyed on the subkey
— the same memoized-precomputation pattern as the AES key schedule —
so a GHASH stream pays the build cost once per session key.

Element representation matches :mod:`repro.crypto.gf128`: 128-bit ints,
most significant bit = coefficient of x^0, reduction by R = 0xE1 << 120.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.crypto.gf128 import MASK128, R_POLY

#: Capacity of the per-subkey Shoup-table memo.  Key-churn workloads
#: cycle through arbitrarily many subkeys; the LRU bound keeps the
#: process footprint fixed (each table set is 16 x 256 128-bit ints).
GHASH_TABLE_SLOTS = 64


def build_ghash_tables(h: int) -> Tuple[Tuple[int, ...], ...]:
    """Construct the Shoup tables for subkey *h* (uncached).

    :func:`ghash_tables` wraps this in the per-subkey LRU; the scalar
    H-power fold (:mod:`repro.crypto.fast.ghash_hpower`) calls it
    directly so building ``H^1..H^k`` does not churn the single-subkey
    cache.
    """
    if not 0 <= h <= MASK128:
        raise ValueError("subkey must be a 128-bit non-negative integer")
    # basis[i] = H * x^i.  Byte position pos holds coefficients
    # x^(8*pos)..x^(8*pos+7), most significant bit first, so bit j of
    # the byte value selects basis[8*pos + 7 - j].
    basis = []
    cur = h
    for _ in range(128):
        basis.append(cur)
        cur = (cur >> 1) ^ (R_POLY if cur & 1 else 0)
    tables = []
    for pos in range(16):
        row = [0]
        for b in reversed(basis[8 * pos : 8 * pos + 8]):
            row += [v ^ b for v in row]  # entries n..2n-1 from 0..n-1
        tables.append(row)
    return tuple(tuple(r) for r in tables)


@lru_cache(maxsize=GHASH_TABLE_SLOTS)
def ghash_tables(h: int) -> Tuple[Tuple[int, ...], ...]:
    """Shoup tables for subkey *h*: ``tables[i][b]`` is the product of
    *h* with byte value *b* placed at byte position *i* (MSB first).

    16 x 256 entries; built once per subkey and memoized (bounded LRU,
    :data:`GHASH_TABLE_SLOTS` subkeys).
    """
    return build_ghash_tables(h)


def gf128_mul_tabulated(x: int, y: int) -> int:
    """Product of *x* and *y* via *y*'s Shoup tables.

    Byte-identical to :func:`repro.crypto.gf128.gf128_mul`; intended for
    the GHASH pattern where *y* (the subkey) is fixed across many *x*.
    """
    if not 0 <= x <= MASK128 or not 0 <= y <= MASK128:
        raise ValueError("operands must be 128-bit non-negative integers")
    tables = ghash_tables(y)
    z = 0
    shift = 120
    for row in tables:
        z ^= row[(x >> shift) & 255]
        shift -= 8
    return z


def ghash_blocks_tabulated(h: int, acc: int, data: bytes) -> int:
    """Absorb whole 16-byte blocks of *data* into accumulator *acc*.

    Runs the GHASH chain ``acc = (acc xor block) * H`` with the
    tabulated multiplier, unrolled over the sixteen byte positions so
    the hot loop never leaves this frame.
    """
    tables = ghash_tables(h)
    (t0, t1, t2, t3, t4, t5, t6, t7,
     t8, t9, t10, t11, t12, t13, t14, t15) = tables
    for i in range(0, len(data), 16):
        x = acc ^ int.from_bytes(data[i : i + 16], "big")
        acc = (
            t0[(x >> 120) & 255]
            ^ t1[(x >> 112) & 255]
            ^ t2[(x >> 104) & 255]
            ^ t3[(x >> 96) & 255]
            ^ t4[(x >> 88) & 255]
            ^ t5[(x >> 80) & 255]
            ^ t6[(x >> 72) & 255]
            ^ t7[(x >> 64) & 255]
            ^ t8[(x >> 56) & 255]
            ^ t9[(x >> 48) & 255]
            ^ t10[(x >> 40) & 255]
            ^ t11[(x >> 32) & 255]
            ^ t12[(x >> 24) & 255]
            ^ t13[(x >> 16) & 255]
            ^ t14[(x >> 8) & 255]
            ^ t15[x & 255]
        )
    return acc
