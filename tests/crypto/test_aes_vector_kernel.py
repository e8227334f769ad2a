"""Oracle tests for the packed-state AES kernel.

:func:`repro.crypto.fast.aes_vector.encrypt_state_vector` is checked
lane by lane against the scalar T-table block encryption
(:func:`repro.crypto.fast.aes_ttable.encrypt_words_tt`) for every key
size, lane counts from one to a thousand, and every input layout the
callers hand it: C-ordered, Fortran-ordered, a column slice of a wider
state and a big-endian ``>u4`` view.
"""

import random

import pytest

from repro.crypto.fast import aes_vector
from repro.crypto.fast.aes_ttable import encrypt_words_tt, expand_key_cached

pytestmark = pytest.mark.skipif(
    not aes_vector.HAVE_NUMPY, reason="numpy-only kernel"
)

KEY_BYTES = (16, 24, 32)
LANES = (1, 2, 7, 8, 33, 1000)


def _case(key_bytes, lanes):
    import numpy as np

    rng = random.Random(key_bytes * 10_000 + lanes)
    round_keys = expand_key_cached(bytes(rng.getrandbits(8) for _ in range(key_bytes)))
    # Twice the lanes, so a column slice of the first half is not contiguous.
    wide = np.array(
        [[rng.getrandbits(32) for _ in range(2 * lanes)] for _ in range(4)],
        dtype=np.uint32,
    )
    state = np.ascontiguousarray(wide[:, :lanes])
    expected = np.array(
        [encrypt_words_tt(*map(int, state[:, lane]), round_keys) for lane in range(lanes)],
        dtype=np.uint32,
    ).T
    return np, round_keys, wide, state, expected


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("key_bytes", KEY_BYTES)
def test_matches_scalar_blocks_c_ordered(key_bytes, lanes):
    np, round_keys, _wide, state, expected = _case(key_bytes, lanes)
    out = aes_vector.encrypt_state_vector(state, round_keys)
    assert out.shape == (4, lanes) and out.dtype == np.uint32
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("key_bytes", KEY_BYTES)
def test_matches_scalar_blocks_fortran_ordered(key_bytes, lanes):
    np, round_keys, _wide, state, expected = _case(key_bytes, lanes)
    fortran = np.asfortranarray(state)
    assert np.array_equal(aes_vector.encrypt_state_vector(fortran, round_keys), expected)


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("key_bytes", KEY_BYTES)
def test_matches_scalar_blocks_column_slice(key_bytes, lanes):
    np, round_keys, wide, _state, expected = _case(key_bytes, lanes)
    view = wide[:, :lanes]
    assert np.array_equal(aes_vector.encrypt_state_vector(view, round_keys), expected)


@pytest.mark.parametrize("lanes", LANES)
@pytest.mark.parametrize("key_bytes", KEY_BYTES)
def test_matches_scalar_blocks_big_endian_words(key_bytes, lanes):
    np, round_keys, _wide, state, expected = _case(key_bytes, lanes)
    big_endian = state.astype(">u4")
    assert np.array_equal(aes_vector.encrypt_state_vector(big_endian, round_keys), expected)


def test_does_not_modify_its_input():
    np, round_keys, _wide, state, _expected = _case(16, 8)
    before = state.copy()
    aes_vector.encrypt_state_vector(state, round_keys)
    assert np.array_equal(state, before)
