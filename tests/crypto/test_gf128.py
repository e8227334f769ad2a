"""GF(2^128): algebraic laws (hypothesis), the digit-serial core and
the tabulated (Shoup) fast multiplier."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.crypto.fast.gf128_tables import gf128_mul_tabulated, ghash_tables
from repro.crypto.gf128 import (
    HW_GHASH_CYCLES,
    MASK128,
    ONE,
    R_POLY,
    gf128_mul,
    gf128_mul_digit_serial,
    gf128_pow,
)

elements = st.integers(min_value=0, max_value=(1 << 128) - 1)

#: SP 800-38D edge elements: zero, the minimal polynomial x^127, the
#: multiplicative identity and the all-ones element.
EDGE_ELEMENTS = (0, 1, ONE, MASK128)


@given(elements, elements)
@settings(max_examples=50, deadline=None)
def test_commutative(a, b):
    assert gf128_mul(a, b) == gf128_mul(b, a)


@given(elements, elements, elements)
@settings(max_examples=30, deadline=None)
def test_associative(a, b, c):
    assert gf128_mul(gf128_mul(a, b), c) == gf128_mul(a, gf128_mul(b, c))


@given(elements, elements, elements)
@settings(max_examples=30, deadline=None)
def test_distributive_over_xor(a, b, c):
    assert gf128_mul(a, b ^ c) == gf128_mul(a, b) ^ gf128_mul(a, c)


@given(elements)
@settings(max_examples=50, deadline=None)
def test_identity_and_zero(a):
    assert gf128_mul(a, ONE) == a
    assert gf128_mul(a, 0) == 0


@given(elements, elements)
@settings(max_examples=50, deadline=None)
def test_digit_serial_matches_bit_serial(a, b):
    product, steps = gf128_mul_digit_serial(a, b)
    assert product == gf128_mul(a, b)
    assert steps == HW_GHASH_CYCLES


def test_hw_cycle_count_is_43():
    # ceil(128/3) — the paper's digit-serial GHASH latency.
    assert HW_GHASH_CYCLES == 43


@pytest.mark.parametrize("digit_bits,steps", [(1, 128), (2, 64), (4, 32), (8, 16)])
def test_other_digit_widths(digit_bits, steps):
    product, observed = gf128_mul_digit_serial(3 << 120, 7 << 119, digit_bits)
    assert observed == steps
    assert product == gf128_mul(3 << 120, 7 << 119)


def test_digit_width_validation():
    with pytest.raises(ValueError):
        gf128_mul_digit_serial(1, 1, 0)
    with pytest.raises(ValueError):
        gf128_mul(1 << 128, 1)


@given(elements)
@settings(max_examples=20, deadline=None)
def test_pow_square(a):
    assert gf128_pow(a, 2) == gf128_mul(a, a)


def test_pow_identity():
    assert gf128_pow(R_POLY, 0) == ONE
    assert gf128_pow(R_POLY, 1) == R_POLY


# -- tabulated (fast) multiplier -----------------------------------------


def test_tabulated_matches_bit_serial_on_random_operands():
    rng = random.Random(0x4D434350)
    for _ in range(100):
        x = rng.getrandbits(128)
        y = rng.getrandbits(128)
        assert gf128_mul_tabulated(x, y) == gf128_mul(x, y)


@pytest.mark.parametrize("x", EDGE_ELEMENTS)
@pytest.mark.parametrize("y", EDGE_ELEMENTS)
def test_tabulated_edge_cases(x, y):
    assert gf128_mul_tabulated(x, y) == gf128_mul(x, y)


@given(elements, elements)
@settings(max_examples=50, deadline=None)
def test_tabulated_matches_bit_serial_property(a, b):
    assert gf128_mul_tabulated(a, b) == gf128_mul(a, b)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        gf128_mul_tabulated(1 << 128, 1)
    with pytest.raises(ValueError):
        gf128_mul_tabulated(1, -1)
    with pytest.raises(ValueError):
        ghash_tables(1 << 128)


def test_tables_memoized_per_subkey():
    assert ghash_tables(0xDEADBEEF) is ghash_tables(0xDEADBEEF)


@given(elements, st.integers(min_value=0, max_value=64))
@settings(max_examples=25, deadline=None)
def test_pow_matches_repeated_tabulated_product(a, n):
    """The reference square-and-multiply against n engine products."""
    expected = ONE
    for _ in range(n):
        expected = gf128_mul_tabulated(expected, a)
    assert gf128_pow(a, n) == expected
