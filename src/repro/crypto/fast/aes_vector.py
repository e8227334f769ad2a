"""Vectorised bulk AES over packed lane states (numpy-gated).

Counter-mode keystream blocks are mutually independent, so the whole
message can be encrypted as one batched sweep: the T-table round runs
over a numpy ``uint32`` state holding one column word per block, and
each table lookup becomes a gather across every block of the packet.
This is the software analogue of the paper's observation that CTR-style
modes parallelise freely while feedback modes do not (section II.B) —
here the "parallel cores" are SIMD lanes instead of FPGA slices.

The same kernel runs the lane-parallel CBC-MAC of
:mod:`repro.crypto.fast.batch`, which steps it once per block with
only a few dozen lanes (:class:`LaneStepper`, which keeps one sweep's
buffers across the steps).  There the cost is numpy's per-call
dispatch, not the arithmetic, so a round is a fixed handful of array
operations whatever the lane count.  Two pair tables of 65,536 words each,
:data:`PA` and :data:`PB`, fold two T-table lookups into one: an output
column is two gathers with 16-bit indices, each index two state bytes
picked across columns (ShiftRows) by a strided byte copy.  The
round-key XOR takes either one schedule broadcast over every lane or
one schedule per lane, so the CBC-MAC chains of several channels' keys
run as the lanes of one sweep and pay that per-call cost once.

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


def _byte_offset(shift: int, width: int = 4) -> int:
    """Memory offset of bits ``[shift, shift + 8)`` in a native unsigned
    integer of *width* bytes."""
    return shift // 8 if sys.byteorder == "little" else width - 1 - shift // 8


if HAVE_NUMPY:
    from repro.crypto.aes_tables import SBOX
    from repro.crypto.fast.aes_ttable import TE0, TE1, TE2, TE3

    _TE_ARRAYS = [_np.array(table, dtype=_np.uint32) for table in (TE0, TE1, TE2, TE3)]
    #: Pair tables: ``PA[x << 8 | y] = TE0[x] ^ TE1[y]`` and
    #: ``PB[x << 8 | y] = TE2[x] ^ TE3[y]`` (256 KB each).
    PA = (_TE_ARRAYS[0][:, None] ^ _TE_ARRAYS[1]).ravel()
    PB = (_TE_ARRAYS[2][:, None] ^ _TE_ARRAYS[3]).ravel()
    _SBOX = _np.array(SBOX, dtype=_np.uint8)
    #: Memory offsets of a uint16 index's high and low byte.
    _INDEX_HIGH, _INDEX_LOW = _byte_offset(8, 2), _byte_offset(0, 2)
    #: Memory offset of the byte at bit ``24 - 8k`` of a state word: a
    #: round reads it from state row ``c + k`` for output column *c*.
    _STATE_BYTES = tuple(_byte_offset(24 - 8 * k) for k in range(4))

#: Capacity of the round-key-array memo (mirrors ``expand_key_cached``).
ROUND_KEY_ARRAY_SLOTS = 256

if HAVE_NUMPY:

    @lru_cache(maxsize=ROUND_KEY_ARRAY_SLOTS)
    def _round_keys_array(round_keys):
        """uint32 ``(rounds + 1, 4, 1)`` view of a schedule, memoized:
        a warm key's sweeps skip the tuple->array conversion."""
        return _np.array(round_keys, dtype=_np.uint32)[:, :, None]


def clear_vector_caches() -> None:
    """Drop the round-key-array memo (no-op when numpy is absent)."""
    if HAVE_NUMPY:
        _round_keys_array.cache_clear()


def encrypt_state_vector(state, round_keys):
    """Encrypt a batch of blocks held as one packed ``(4, N)`` state.

    Row *i* holds column word *i* of every block (lane) as a uint32
    value, in any memory order and either byte order (a column slice,
    a transpose, a ``>u4`` view).  Returns a new C-ordered native
    ``(4, N)`` uint32 array; the caller owns byte packing.

    *round_keys* is either one key schedule (a sequence of ``rounds +
    1`` four-word round keys, shared by every lane) or a ``(rounds + 1,
    4, N)`` uint32 array holding one schedule per lane in column *n*
    (any memory order, e.g. a column slice of a wider array; a
    ``(rounds + 1, 4, 1)`` array is shared by every lane).  Lanes under
    different keys can thus share one sweep; they must share the
    round count.
    """
    if isinstance(round_keys, _np.ndarray):
        rk = round_keys
    else:
        if not isinstance(round_keys, tuple):
            round_keys = tuple(tuple(words) for words in round_keys)
        rk = _round_keys_array(round_keys)
    return _Sweep(state.shape[1]).run(state, rk)


class _Sweep:
    """The buffers and views of one sweep over N lanes, reusable.

    The state is kept row-doubled, ``(8, N)`` with rows 4-7 a copy of
    rows 0-3, so the rows ``c + k`` that output column *c* reads for
    its *k*-th byte are one strided view for every *c*.  Each round is
    nine numpy operations whatever *N*: four strided byte copies build
    the ``(2, 4, N)`` uint16 indices into :data:`PA` (bytes 0 and 1)
    and :data:`PB` (bytes 2 and 3), two gathers, two XORs (the second
    adds the round key) and one copy refills the doubled rows.  The
    final round copies the same bytes into output-memory order and
    gathers them from the S-box.  Byte positions follow the host's byte
    order, so the result does not depend on it.
    """

    __slots__ = (
        "lanes", "doubled", "head", "tail", "picks", "slots", "index_a", "index_b",
        "gathered", "out_bytes", "out", "out_sbox",
    )

    def __init__(self, lanes: int):
        self.lanes = lanes
        self.doubled = _np.empty((8, lanes), dtype=_np.uint32)
        self.head, self.tail = self.doubled[:4], self.doubled[4:]
        state_bytes = self.doubled.view(_np.uint8).reshape(8, lanes, 4)
        self.picks = [state_bytes[k : k + 4, :, b] for k, b in enumerate(_STATE_BYTES)]
        index = _np.empty((2, 4, lanes), dtype=_np.uint16)
        index_bytes = index.view(_np.uint8).reshape(2, 4, lanes, 2)
        self.slots = (
            index_bytes[0, :, :, _INDEX_HIGH],
            index_bytes[0, :, :, _INDEX_LOW],
            index_bytes[1, :, :, _INDEX_HIGH],
            index_bytes[1, :, :, _INDEX_LOW],
        )
        self.index_a, self.index_b = index
        self.gathered = _np.empty((2, 4, lanes), dtype=_np.uint32)
        self.out_bytes = _np.empty((4, lanes, 4), dtype=_np.uint8)
        self.out = _np.empty((4, lanes), dtype=_np.uint32)
        self.out_sbox = self.out.view(_np.uint8).reshape(4, lanes, 4)

    def run(self, state, rk):
        """Encrypt *state* under round keys *rk* (see
        :func:`encrypt_state_vector`); returns the sweep's own output
        array, which the next run overwrites."""
        rounds = len(rk) - 1
        head, tail = self.head, self.tail
        pick0, pick1, pick2, pick3 = picks = self.picks
        slot0, slot1, slot2, slot3 = self.slots
        index_a, index_b = self.index_a, self.index_b
        gathered_a, gathered_b = self.gathered
        _np.bitwise_xor(state, rk[0], out=head)
        tail[...] = head
        for r in range(1, rounds):
            slot0[...] = pick0
            slot1[...] = pick1
            slot2[...] = pick2
            slot3[...] = pick3
            PA.take(index_a, out=gathered_a, mode="clip")
            PB.take(index_b, out=gathered_b, mode="clip")
            gathered_a ^= gathered_b
            _np.bitwise_xor(gathered_a, rk[r], out=head)
            tail[...] = head
        out_bytes = self.out_bytes
        for b, pick in zip(_STATE_BYTES, picks):
            out_bytes[:, :, b] = pick
        _SBOX.take(out_bytes, out=self.out_sbox, mode="clip")
        out = self.out
        out ^= rk[rounds]
        return out


class LaneStepper:
    """Encrypts a packed state of lanes step after step under per-lane
    round keys, as the lane-parallel CBC-MAC does once per block.

    *round_keys* is a ``(rounds + 1, 4, N)`` uint32 array, one schedule
    per lane.  Each :meth:`encrypt` takes the first *n* lanes' state
    (lanes retire from the right, so *n* only falls) and returns their
    ciphertext in an array the next call overwrites.  The sweep's
    buffers are built once per lane count, not once per step.
    """

    def __init__(self, round_keys):
        self._round_keys = round_keys
        self._sweep: Optional[_Sweep] = None
        self._keys = None

    def encrypt(self, state):
        lanes = state.shape[1]
        sweep = self._sweep
        if sweep is None or sweep.lanes != lanes:
            sweep = self._sweep = _Sweep(lanes)
            self._keys = self._round_keys[:, :, :lanes]
        return sweep.run(state, self._keys)


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
