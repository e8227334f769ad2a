"""GF(2^128) arithmetic for GHASH (NIST SP 800-38D).

Two multiplier implementations are provided:

- :func:`gf128_mul` — the straightforward bit-serial reference.
- :func:`gf128_mul_digit_serial` — a digit-serial multiplier processing
  *digit_bits* bits of the multiplier per step, mirroring the MCCP's
  GHASH core, which uses 3-bit digits and completes one 128-bit
  multiplication in 43 steps (ceil(128 / 3) = 43, paper section V.A
  after Lemsitzer et al.).  Both produce identical results; the digit
  count doubles as the cycle model for the hardware core.

Element representation follows SP 800-38D: a 128-bit integer whose most
significant bit is the coefficient of x^0 ("reflected" polynomial
ordering), with reduction polynomial R = 0xE1000000...0.
"""

from __future__ import annotations

from typing import Tuple

#: SP 800-38D reduction constant: x^128 = x^7 + x^2 + x + 1 in the
#: reflected bit order used by GHASH.
R_POLY = 0xE1 << 120

MASK128 = (1 << 128) - 1

#: Digit width of the hardware digit-serial multiplier.
HW_DIGIT_BITS = 3

#: Steps (== clock cycles) the hardware multiplier takes per product.
HW_GHASH_CYCLES = -(-128 // HW_DIGIT_BITS)  # ceil(128/3) == 43

#: Multiplicative identity element (the polynomial "1" in GHASH bit order).
ONE = 1 << 127


def gf128_mul(x: int, y: int) -> int:
    """Bit-serial product of *x* and *y* in the GHASH field.

    Algorithm 1 of SP 800-38D: scan *x* from the most significant bit;
    accumulate *y*-multiples while halving (shifting right) *y* with
    conditional reduction.
    """
    if not 0 <= x <= MASK128 or not 0 <= y <= MASK128:
        raise ValueError("operands must be 128-bit non-negative integers")
    z = 0
    v = y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ R_POLY
        else:
            v >>= 1
    return z


def gf128_mul_digit_serial(
    x: int, y: int, digit_bits: int = HW_DIGIT_BITS
) -> Tuple[int, int]:
    """Digit-serial product mirroring the hardware multiplier.

    Consumes *digit_bits* bits of *x* per step (MSB first); each step
    corresponds to one clock of the hardware core, which wires
    *digit_bits* conditional-reduce stages in combinational cascade so a
    full 128-bit product takes ``ceil(128 / digit_bits)`` cycles — 43
    for the paper's 3-bit digits.

    Returns ``(product, steps)``.  The product is always identical to
    :func:`gf128_mul`; *steps* feeds the timing model.
    """
    if digit_bits < 1 or digit_bits > 128:
        raise ValueError(f"digit_bits must be in [1, 128], got {digit_bits}")
    if not 0 <= x <= MASK128 or not 0 <= y <= MASK128:
        raise ValueError("operands must be 128-bit non-negative integers")

    steps = -(-128 // digit_bits)
    z = 0
    v = y
    bit_index = 127
    for _step in range(steps):
        # One hardware clock: a cascade of `digit_bits` bit-serial stages.
        for _ in range(digit_bits):
            if bit_index < 0:
                break  # final digit is zero-padded below bit 0
            if (x >> bit_index) & 1:
                z ^= v
            if v & 1:
                v = (v >> 1) ^ R_POLY
            else:
                v >>= 1
            bit_index -= 1
    return z, steps


def gf128_pow(x: int, n: int) -> int:
    """Raise *x* to the *n*-th power by square-and-multiply."""
    if n < 0:
        raise ValueError("negative exponents are not supported")
    result = ONE
    base = x
    while n:
        if n & 1:
            result = gf128_mul(result, base)
        base = gf128_mul(base, base)
        n >>= 1
    return result
