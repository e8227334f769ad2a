"""Vectorised bulk AES over packed lane states (numpy-gated).

Counter-mode keystream blocks are mutually independent, so the whole
message can be encrypted as one batched sweep: the T-table round runs
over a numpy ``uint32`` state holding one column word per block, and
each table lookup becomes a gather across every block of the packet.
This is the software analogue of the paper's observation that CTR-style
modes parallelise freely while feedback modes do not (section II.B) —
here the "parallel cores" are SIMD lanes instead of FPGA slices.

The same kernel runs the lane-parallel CBC-MAC of
:mod:`repro.crypto.fast.batch`, which calls it once per block step with
only a few lanes.  There the cost is numpy's per-call dispatch, not the
arithmetic, so a round is a fixed handful of array operations whatever
the lane count: one fancy-index read of the state's bytes (ShiftRows
built into the index), one gather from the four T-tables laid end to
end, one XOR reduction and one round-key XOR.

numpy is optional: :data:`HAVE_NUMPY` gates the path and the bulk APIs
in :mod:`repro.crypto.fast.bulk` fall back to the scalar T-table loop,
so the package never *requires* the dependency.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Optional, Sequence

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

#: Below this many blocks the scalar loop wins (array setup dominates).
MIN_VECTOR_BLOCKS = 4


def _byte_offset(shift: int) -> int:
    """Memory offset of bits ``[shift, shift + 8)`` in a native uint32."""
    return shift // 8 if sys.byteorder == "little" else 3 - shift // 8


if HAVE_NUMPY:
    from repro.crypto.aes_tables import SBOX
    from repro.crypto.fast.aes_ttable import TE0, TE1, TE2, TE3

    #: TE0..TE3 end to end: T-table *k* starts at ``256 * k``.
    _TE = _np.array(TE0 + TE1 + TE2 + TE3, dtype=_np.uint32)
    _SBOX = _np.array(SBOX, dtype=_np.uint8)
    #: Round input for output word *c*, table *k*: the byte at bit
    #: ``24 - 8k`` of state row ``(c + k) % 4`` (ShiftRows), read from
    #: the ``(4, N, 4)`` byte view as ``bytes[_ROWS, :, _BYTES]``.
    _ROWS = _np.array([[(c + k) % 4 for k in range(4)] for c in range(4)])
    _BYTES = _np.array([[_byte_offset(24 - 8 * k) for k in range(4)]] * 4)
    _TABLE_OFFSETS = (256 * _np.arange(4, dtype=_np.intp)).reshape(1, 4, 1)
    #: The last round reads the same bytes, reordered by the memory
    #: offset each S-box output takes in its output word.
    _FINAL = _np.argsort(_BYTES[0])
    _FINAL_ROWS, _FINAL_BYTES = _ROWS[:, _FINAL], _BYTES[:, _FINAL]

#: Capacity of the round-key-array memo (mirrors ``expand_key_cached``).
ROUND_KEY_ARRAY_SLOTS = 256

if HAVE_NUMPY:

    @lru_cache(maxsize=ROUND_KEY_ARRAY_SLOTS)
    def _round_keys_array(round_keys):
        """uint32 ``(rounds + 1, 4, 1)`` view of a schedule, memoized.

        The lane-parallel CBC-MAC calls :func:`encrypt_state_vector` once
        per block step under one unchanging schedule, so the tuple->array
        conversion must not sit inside that loop.
        """
        return _np.array(round_keys, dtype=_np.uint32)[:, :, None]


def clear_vector_caches() -> None:
    """Drop the round-key-array memo (no-op when numpy is absent)."""
    if HAVE_NUMPY:
        _round_keys_array.cache_clear()


def encrypt_state_vector(state, round_keys: Sequence[Sequence[int]]):
    """Encrypt a batch of blocks held as one packed ``(4, N)`` state.

    Row *i* holds column word *i* of every block (lane) as a uint32
    value, in any memory order and either byte order (a column slice,
    a transpose, a ``>u4`` view).  Returns a new C-ordered native
    ``(4, N)`` uint32 array; the caller owns byte packing.

    Each round is five numpy operations whatever *N*: one fancy-index
    read of the state's ``(4, N, 4)`` byte view that applies ShiftRows
    and picks the four input bytes of every output word (``(4, 4, N)``),
    one offset add into the concatenated T-table, one gather, one XOR
    reduction over the four tables and one round-key XOR.  The final
    round gathers uint8 S-box bytes in output-memory order instead.
    The byte offsets follow the host's byte order, so the result does
    not depend on it.
    """
    rounds = len(round_keys) - 1
    if not isinstance(round_keys, tuple):
        round_keys = tuple(tuple(words) for words in round_keys)
    rk = _round_keys_array(round_keys)
    s = _np.ascontiguousarray(state, dtype=_np.uint32) ^ rk[0]
    lanes = s.shape[1]
    for r in range(1, rounds):
        picked = s.view(_np.uint8).reshape(4, lanes, 4)[_ROWS, :, _BYTES]
        s = _np.bitwise_xor.reduce(
            _TE.take(picked + _TABLE_OFFSETS), axis=1
        ) ^ rk[r]
    picked = s.view(_np.uint8).reshape(4, lanes, 4)[_FINAL_ROWS, :, _FINAL_BYTES]
    out = _np.ascontiguousarray(_SBOX[picked].transpose(0, 2, 1))
    return out.view(_np.uint32).reshape(4, lanes) ^ rk[rounds]


def state_to_bytes(state) -> bytes:
    """Serialise a packed ``(4, N)`` state to N big-endian 16-byte blocks."""
    return state.T.astype(">u4").tobytes()


def _encrypt_words_vector(w0, w1, w2, w3, round_keys: Sequence[Sequence[int]]) -> bytes:
    """Encrypt a batch given as four uint32 word arrays; returns bytes."""
    return state_to_bytes(
        encrypt_state_vector(_np.stack((w0, w1, w2, w3)), round_keys)
    )


def ctr_keystream_vector(
    round_keys: Sequence[Sequence[int]],
    initial_counter: int,
    nblocks: int,
    inc_bits: int,
) -> Optional[bytes]:
    """Keystream for *nblocks* counters starting at *initial_counter*.

    The counter's low *inc_bits* bits increment by one per block,
    wrapping modulo ``2**inc_bits`` (matching
    :func:`repro.crypto.modes.ctr.increment_counter` and GCM's inc32).
    Returns ``None`` when the batch shape is outside what this engine
    vectorises (no numpy, tiny batches, or an increment field wider
    than 64 bits) — the caller falls back to the scalar loop.
    """
    if not HAVE_NUMPY or nblocks < MIN_VECTOR_BLOCKS or not 0 < inc_bits <= 64:
        return None
    c0 = initial_counter
    low0 = c0 & ((1 << inc_bits) - 1)
    hi = c0 >> inc_bits << inc_bits
    lows = low0 + _np.arange(nblocks, dtype=_np.uint64)
    if inc_bits < 64:
        lows &= _np.uint64((1 << inc_bits) - 1)
    # (uint64 addition already wraps mod 2^64 for inc_bits == 64.)
    w0 = _np.full(nblocks, (hi >> 96) & 0xFFFFFFFF, dtype=_np.uint32)
    w1 = _np.full(nblocks, (hi >> 64) & 0xFFFFFFFF, dtype=_np.uint32)
    if inc_bits <= 32:
        w2 = _np.full(nblocks, (hi >> 32) & 0xFFFFFFFF, dtype=_np.uint32)
        w3 = _np.uint32(hi & 0xFFFFFFFF) | lows.astype(_np.uint32)
    else:
        w2 = _np.uint32((hi >> 32) & 0xFFFFFFFF) | (lows >> _np.uint64(32)).astype(_np.uint32)
        w3 = lows.astype(_np.uint32)
    return _encrypt_words_vector(w0, w1, w2, w3, round_keys)


def encrypt_blocks_vector(
    blocks: bytes, round_keys: Sequence[Sequence[int]]
) -> Optional[bytes]:
    """ECB-encrypt a whole number of 16-byte *blocks* in one sweep.

    Used by the CCM counter path when the counter blocks are already
    materialised.  Returns ``None`` when vectorisation does not apply.
    """
    nblocks = len(blocks) // 16
    if not HAVE_NUMPY or nblocks < MIN_VECTOR_BLOCKS:
        return None
    words = _np.frombuffer(blocks, dtype=">u4").reshape(nblocks, 4)
    return state_to_bytes(encrypt_state_vector(words.T, round_keys))
