"""AES block cipher (FIPS-197), iterative round structure.

The implementation deliberately follows the *iterative* organisation of
the hardware core used in the MCCP (paper section V.A, after Chodowiec &
Gaj): one round per iteration over a 4x4 byte state, SubBytes via
look-up table.  Key expansion is implemented separately because in the
device the Key Scheduler pre-computes round keys into each core's Key
Cache (paper section III.A) — the cipher itself only ever consumes an
expanded key.

Only encryption is required by the MCCP (CTR/CCM/GCM use the forward
cipher for both directions); the inverse cipher is provided here purely
as a reference-model convenience for round-trip property tests.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import BlockSizeError, KeySizeError
from repro.crypto.aes_tables import (
    INV_SBOX,
    MUL2,
    MUL3,
    MUL9,
    MUL11,
    MUL13,
    MUL14,
    RCON,
    SBOX,
)

#: Number of rounds per key size in bytes.
ROUNDS_BY_KEY_BYTES = {16: 10, 24: 12, 32: 14}

#: Supported key sizes in bits (mirrors the device's key-size field).
KEY_BITS = (128, 192, 256)

BLOCK_BYTES = 16


def _sub_word(word: int) -> int:
    return (
        (SBOX[(word >> 24) & 0xFF] << 24)
        | (SBOX[(word >> 16) & 0xFF] << 16)
        | (SBOX[(word >> 8) & 0xFF] << 8)
        | SBOX[word & 0xFF]
    )


def _rot_word(word: int) -> int:
    return ((word << 8) | (word >> 24)) & 0xFFFFFFFF


def expand_key(key: bytes) -> List[List[int]]:
    """FIPS-197 key expansion.

    Returns ``rounds + 1`` round keys, each a list of four 32-bit words
    (big-endian column order) — the exact layout the device's Key Cache
    stores.
    """
    if len(key) not in ROUNDS_BY_KEY_BYTES:
        raise KeySizeError(
            f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
        )
    nk = len(key) // 4
    rounds = ROUNDS_BY_KEY_BYTES[len(key)]
    total_words = 4 * (rounds + 1)

    words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    for i in range(nk, total_words):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp)) ^ (RCON[i // nk] << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)

    return [words[4 * r : 4 * r + 4] for r in range(rounds + 1)]


def _state_from_bytes(block: bytes) -> List[int]:
    # State stored column-major as 16 bytes: state[4*c + r] = byte r of column c.
    return list(block)


def _bytes_from_state(state: Sequence[int]) -> bytes:
    return bytes(state)


def _add_round_key(state: List[int], round_key: Sequence[int]) -> None:
    for c in range(4):
        w = round_key[c]
        state[4 * c] ^= (w >> 24) & 0xFF
        state[4 * c + 1] ^= (w >> 16) & 0xFF
        state[4 * c + 2] ^= (w >> 8) & 0xFF
        state[4 * c + 3] ^= w & 0xFF


def _sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _inv_sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


def _shift_rows(state: List[int]) -> None:
    # Row r of the state is bytes state[r], state[4+r], state[8+r], state[12+r].
    for r in range(1, 4):
        row = [state[4 * c + r] for c in range(4)]
        row = row[r:] + row[:r]
        for c in range(4):
            state[4 * c + r] = row[c]


def _inv_shift_rows(state: List[int]) -> None:
    for r in range(1, 4):
        row = [state[4 * c + r] for c in range(4)]
        row = row[-r:] + row[:-r]
        for c in range(4):
            state[4 * c + r] = row[c]


def _mix_columns(state: List[int]) -> None:
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        state[4 * c] = MUL2[a0] ^ MUL3[a1] ^ a2 ^ a3
        state[4 * c + 1] = a0 ^ MUL2[a1] ^ MUL3[a2] ^ a3
        state[4 * c + 2] = a0 ^ a1 ^ MUL2[a2] ^ MUL3[a3]
        state[4 * c + 3] = MUL3[a0] ^ a1 ^ a2 ^ MUL2[a3]


def _inv_mix_columns(state: List[int]) -> None:
    for c in range(4):
        a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
        state[4 * c] = MUL14[a0] ^ MUL11[a1] ^ MUL13[a2] ^ MUL9[a3]
        state[4 * c + 1] = MUL9[a0] ^ MUL14[a1] ^ MUL11[a2] ^ MUL13[a3]
        state[4 * c + 2] = MUL13[a0] ^ MUL9[a1] ^ MUL14[a2] ^ MUL11[a3]
        state[4 * c + 3] = MUL11[a0] ^ MUL13[a1] ^ MUL9[a2] ^ MUL14[a3]


def encrypt_block_with_schedule(block: bytes, round_keys: Sequence[Sequence[int]]) -> bytes:
    """Encrypt one 16-byte block with pre-expanded *round_keys*.

    This is the entry point the device model uses: the Key Cache holds
    the expanded schedule and the AES core runs the iterative rounds.
    """
    if len(block) != BLOCK_BYTES:
        raise BlockSizeError(f"AES block must be 16 bytes, got {len(block)}")
    rounds = len(round_keys) - 1
    state = _state_from_bytes(block)
    _add_round_key(state, round_keys[0])
    for r in range(1, rounds):
        _sub_bytes(state)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[r])
    _sub_bytes(state)
    _shift_rows(state)
    _add_round_key(state, round_keys[rounds])
    return _bytes_from_state(state)


def decrypt_block_with_schedule(block: bytes, round_keys: Sequence[Sequence[int]]) -> bytes:
    """Inverse cipher (reference-model only; the device omits it)."""
    if len(block) != BLOCK_BYTES:
        raise BlockSizeError(f"AES block must be 16 bytes, got {len(block)}")
    rounds = len(round_keys) - 1
    state = _state_from_bytes(block)
    _add_round_key(state, round_keys[rounds])
    for r in range(rounds - 1, 0, -1):
        _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, round_keys[r])
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    _inv_sub_bytes(state)
    _add_round_key(state, round_keys[0])
    return _bytes_from_state(state)


def aes_encrypt_block(key: bytes, block: bytes) -> bytes:
    """One-shot single-block encryption."""
    return encrypt_block_with_schedule(block, expand_key(key))


class AES:
    """AES cipher object holding an expanded key schedule.

    Runs the reference rounds on the FIPS-197 schedule; the engine's
    T-table rounds are the ``fast`` subpackage's ``encrypt_block_tt``.

    Parameters
    ----------
    key:
        16-, 24- or 32-byte secret key.

    Examples
    --------
    >>> AES(bytes(16)).encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    def __init__(self, key: bytes):
        key = bytes(key)
        self._round_keys = expand_key(key)
        self.key_bits = len(key) * 8
        self.rounds = len(self._round_keys) - 1

    @property
    def round_keys(self) -> List[List[int]]:
        """The expanded schedule (list of rounds, each 4x 32-bit words)."""
        return [list(rk) for rk in self._round_keys]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        return encrypt_block_with_schedule(block, self._round_keys)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block (reference-model only)."""
        return decrypt_block_with_schedule(block, self._round_keys)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AES(key_bits={self.key_bits})"
