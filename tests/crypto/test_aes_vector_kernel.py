"""Oracle tests for the packed-state AES kernel.

:func:`repro.crypto.fast.aes_vector.encrypt_state_vector` is checked
lane by lane against the scalar T-table block encryption
(:func:`repro.crypto.fast.aes_ttable.encrypt_words_tt`) for every key
size, lane counts from one to a thousand, and every input layout the
callers hand it: C-ordered, Fortran-ordered, a column slice of a wider
state and a big-endian ``>u4`` view.  With a ``(rounds + 1, 4, N)``
round-key array each lane runs under its own key: lane by lane it must
match the scalar encryption under that lane's schedule, also when the
key array is a column slice of a wider one.  The pair tables the round
gathers from must fold two T-tables for every 16-bit index.
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


PER_LANE_LANES = (1, 2, 7, 8, 33, 300)


def _per_lane_case(key_bytes, lanes):
    """A state, four keys of one size dealt to the lanes, the oracle."""
    import numpy as np

    rng = random.Random(key_bytes * 77_000 + lanes)
    schedules = [
        expand_key_cached(bytes(rng.getrandbits(8) for _ in range(key_bytes)))
        for _ in range(4)
    ]
    lane_keys = [rng.choice(schedules) for _ in range(lanes)]
    state = np.array(
        [[rng.getrandbits(32) for _ in range(lanes)] for _ in range(4)],
        dtype=np.uint32,
    )
    expected = np.array(
        [
            encrypt_words_tt(*map(int, state[:, lane]), lane_keys[lane])
            for lane in range(lanes)
        ],
        dtype=np.uint32,
    ).T
    keys = np.stack([np.array(schedule, dtype=np.uint32) for schedule in lane_keys], axis=2)
    return np, state, keys, expected


@pytest.mark.parametrize("lanes", PER_LANE_LANES)
@pytest.mark.parametrize("key_bytes", KEY_BYTES)
def test_per_lane_keys_match_scalar_blocks(key_bytes, lanes):
    np, state, keys, expected = _per_lane_case(key_bytes, lanes)
    assert keys.shape == (len(keys), 4, lanes)
    out = aes_vector.encrypt_state_vector(state, keys)
    assert out.shape == (4, lanes) and out.dtype == np.uint32
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("lanes", PER_LANE_LANES)
@pytest.mark.parametrize("key_bytes", KEY_BYTES)
def test_per_lane_keys_column_sliced_key_array(key_bytes, lanes):
    np, state, keys, expected = _per_lane_case(key_bytes, lanes)
    # Every lane's schedule twice over: the even columns are a strided view.
    wide = np.repeat(keys, 2, axis=2)
    sliced = wide[:, :, ::2]
    assert not sliced.flags.c_contiguous
    assert np.array_equal(aes_vector.encrypt_state_vector(state, sliced), expected)
    prefix = wide[:, :, : 2 * lanes : 2][:, :, : lanes - 1]
    assert np.array_equal(
        aes_vector.encrypt_state_vector(state[:, : lanes - 1], prefix),
        expected[:, : lanes - 1],
    )


def test_one_shared_schedule_equals_it_repeated_per_lane():
    np, round_keys, _wide, state, expected = _case(24, 33)
    per_lane = np.repeat(np.array(round_keys, dtype=np.uint32)[:, :, None], 33, axis=2)
    assert np.array_equal(aes_vector.encrypt_state_vector(state, per_lane), expected)


def test_pair_tables_fold_two_t_tables():
    import numpy as np

    from repro.crypto.fast.aes_ttable import TE0, TE1, TE2, TE3

    x, y = np.divmod(np.arange(1 << 16), 256)
    for table, high, low in ((aes_vector.PA, TE0, TE1), (aes_vector.PB, TE2, TE3)):
        high, low = np.array(high, dtype=np.uint32), np.array(low, dtype=np.uint32)
        assert table.shape == (1 << 16,) and table.dtype == np.uint32
        assert np.array_equal(table, high[x] ^ low[y])
