"""H-power GHASH: fold k blocks per Horner step.

The GHASH chain ``Y_i = (Y_{i-1} xor X_i) * H`` is a Horner evaluation
of the polynomial ``sum X_i * H^(n-i+1)``, so any k consecutive blocks
can be absorbed in one step once the powers ``H^1..H^k`` are known:

    Y' = (Y xor B_0)*H^k  xor  B_1*H^(k-1)  xor ... xor  B_{k-1}*H

The k products are mutually independent — this is the software shape of
the paper's observation that a GHASH tree of multipliers trades area
for latency, with SIMD gathers standing in for parallel digit-serial
cores.  Each power gets its own Shoup byte tables
(:mod:`repro.crypto.fast.gf128_tables`), so one fold is ``16*k``
independent table lookups:

- **numpy variant** — the per-power tables live in two ``(k, 16, 256)``
  ``uint64`` arrays (high/low halves of each 128-bit entry); a whole
  fold is two fancy-indexed gathers over a ``(k, 16)`` index grid plus
  two XOR reductions.  The arrays are built straight in numpy by
  linearity: one shift-and-reduce walk over all k powers at once gives
  the ``128 x k`` basis products ``H^p * x^i``, and each 256-entry row
  fills by doubling over its 8 basis values.
- **pure-Python fold** — walks the same per-power tables with plain
  lookups.  It exists for the no-numpy environments and for the
  equivalence tests; per block it costs the same 16 lookups as the
  serial tabulated chain, so the scalar dispatcher prefers the chain.

Both variants are byte-identical to the serial chain; the dispatcher
(:func:`ghash_blocks_hpower`) picks per message size and numpy
availability.  Table sets are LRU-memoized per ``(subkey, k)`` and
dropped by :func:`repro.crypto.fast.clear_caches`.

Many messages under many subkeys — the tags of a batch engine call —
go through :func:`ghash_lanes` instead: each message is a lane of one
Horner sweep over the plain (``k = 1``) byte tables of every lane's
subkey, built for all subkeys at once by the same linearity and never
memoized, so a key used for a handful of packets costs no table set of
its own.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.crypto.fast.gf128_tables import (
    build_ghash_tables,
    gf128_mul_tabulated,
    ghash_blocks_tabulated,
)
from repro.crypto.gf128 import MASK128, R_POLY

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

BLOCK_BYTES = 16

#: Fold width (blocks per Horner step) for the vectorised engine.  Every
#: fresh key pays one table build (~1.6-2.5 ms at 32, ~2.5-3.5 ms at 64 on a
#: 2-vCPU x86 host), and a 2 KB message folds in ~80-110 us at 32
#: against ~56-78 us at 64 (the serial chain: ~300 us).  32 halves the
#: memo entry; replays that churn session keys run no slower and peak
#: ~15 MB lower.
DEFAULT_FOLD = 32

#: Fold width cap for the pure-Python fold: per-power tables are ~16 x
#: 256 128-bit ints each, and the scalar fold gains nothing from wide k,
#: so the cap bounds the memo footprint.
PY_FOLD_MAX = 8

#: Messages shorter than this many blocks stay on the serial tabulated
#: chain.  With warm tables the fold overtakes the chain at ~8 blocks
#: (8 blocks: ~20 vs ~23 us; 16 blocks: ~24 vs ~44 us), but a lower
#: threshold would make short-lived keys with 10-block messages build
#: a table set they never amortise, so the threshold sits at 16.
MIN_FOLD_BLOCKS = 16

#: Capacity of the per-(subkey, fold) H-power memo caches.  One numpy
#: entry at the default fold is 2 MiB (32 x 16 x 256 x 2 x 8 bytes), so
#: the bound keys the worst-case footprint, not the key-churn rate.
HPOWER_SLOTS = 8

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _powers(h: int, k: int) -> List[int]:
    """``[H^1, H^2, .., H^k]`` via the tabulated multiplier."""
    if not 0 <= h <= MASK128:
        raise ValueError("subkey must be a 128-bit non-negative integer")
    if k < 1:
        raise ValueError(f"fold width must be >= 1, got {k}")
    powers = [h]
    for _ in range(k - 1):
        powers.append(gf128_mul_tabulated(powers[-1], h))
    return powers


@lru_cache(maxsize=HPOWER_SLOTS)
def hpower_tables(h: int, k: int = PY_FOLD_MAX) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per-power Shoup tables: ``tables[p-1]`` multiplies by ``H^p``.

    Pure-Python representation (tuples of 128-bit ints), used by the
    scalar fold; bounded LRU per ``(subkey, k)``.
    """
    return tuple(build_ghash_tables(p) for p in _powers(h, k))


@lru_cache(maxsize=HPOWER_SLOTS)
def hpower_tables_vec(h: int, k: int = DEFAULT_FOLD):
    """The H-power tables as two ``(k, 16, 256)`` uint64 numpy arrays.

    ``hi[p-1, pos, b]`` / ``lo[p-1, pos, b]`` hold the high/low halves
    of byte value *b* at byte position *pos* multiplied by ``H^p``.
    Built in numpy by linearity: 128 shift-and-reduce steps over the k
    powers give the basis ``H^p * x^i``, then each row fills in place
    by doubling, so no per-entry Python ints are ever materialised.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("hpower_tables_vec requires numpy")
    return _mul_tables(_powers(h, k))


def _mul_tables(factors: List[int]):
    """Byte tables multiplying by each of *factors*: two ``(n, 16, 256)``.

    ``hi[i, pos, b]`` / ``lo[i, pos, b]`` hold the high/low halves of
    byte value *b* at byte position *pos* multiplied by ``factors[i]``,
    built by linearity over all factors at once (see
    :func:`hpower_tables_vec`).
    """
    k = len(factors)
    hi = _np.array([p >> 64 for p in factors], dtype=_np.uint64)
    lo = _np.array([p & _MASK64 for p in factors], dtype=_np.uint64)
    basis_hi = _np.empty((128, k), dtype=_np.uint64)
    basis_lo = _np.empty((128, k), dtype=_np.uint64)
    one, top, r_hi = _np.uint64(1), _np.uint64(63), _np.uint64(R_POLY >> 64)
    for i in range(128):  # basis[i] = H^p * x^i, then multiply by x
        basis_hi[i], basis_lo[i] = hi, lo
        reduce = (lo & one) * r_hi
        lo = (lo >> one) | (hi << top)
        hi = (hi >> one) ^ reduce
    return _fill_rows(basis_hi), _fill_rows(basis_lo)


def _fill_rows(basis):
    """``(k, 16, 256)`` table half from its ``(128, k)`` basis half.

    Bit j of the byte value at position pos selects
    ``basis[8*pos + 7 - j]``; entries ``n..2n-1`` of every row are
    entries ``0..n-1`` XOR bit ``log2(n)``'s basis value.
    """
    k = basis.shape[1]
    by_pos = basis.T.reshape(k, 16, 8)
    table = _np.empty((k, 16, 256), dtype=_np.uint64)
    table[:, :, 0] = 0
    for j in range(8):
        n = 1 << j
        _np.bitwise_xor(table[:, :, :n], by_pos[:, :, 7 - j, None], out=table[:, :, n : 2 * n])
    return table


def clear_hpower_caches() -> None:
    """Drop both H-power memos (hooked into ``fast.clear_caches``)."""
    hpower_tables.cache_clear()
    hpower_tables_vec.cache_clear()


def _fold_python(h: int, acc: int, data: bytes, fold: int) -> int:
    """Scalar k-block Horner fold (the pure-Python fallback)."""
    k = max(1, min(fold, PY_FOLD_MAX))
    tables = hpower_tables(h, k)
    nblocks = len(data) // BLOCK_BYTES
    offset = 0
    group = nblocks % k or k  # ragged head, then full k-groups
    while offset < nblocks:
        acc_next = 0
        for j in range(group):
            start = BLOCK_BYTES * (offset + j)
            x = int.from_bytes(data[start : start + BLOCK_BYTES], "big")
            if j == 0:
                x ^= acc
            rows = tables[group - j - 1]
            shift = 120
            for row in rows:
                acc_next ^= row[(x >> shift) & 255]
                shift -= 8
        acc = acc_next
        offset += group
        group = k
    return acc


def _fold_vector(h: int, acc: int, data: bytes, fold: int) -> int:
    """Vectorised fold: two gathers + two XOR reductions per k-group."""
    hi, lo = hpower_tables_vec(h, fold)
    nblocks = len(data) // BLOCK_BYTES
    buf = _np.frombuffer(data, dtype=_np.uint8).reshape(nblocks, BLOCK_BYTES)
    positions = _np.arange(16)
    offset = 0
    group = nblocks % fold or fold
    lanes = _np.arange(group - 1, -1, -1).reshape(group, 1)
    while offset < nblocks:
        x = buf[offset : offset + group]
        if acc:
            x = x.copy()
            x[0] ^= _np.frombuffer(acc.to_bytes(16, "big"), dtype=_np.uint8)
        acc_hi = int(_np.bitwise_xor.reduce(hi[lanes, positions, x], axis=None))
        acc_lo = int(_np.bitwise_xor.reduce(lo[lanes, positions, x], axis=None))
        acc = (acc_hi << 64) | acc_lo
        offset += group
        if group != fold:
            group = fold
            lanes = _np.arange(fold - 1, -1, -1).reshape(fold, 1)
    return acc


#: Subkeys one :func:`ghash_lanes` sweep covers at most: their byte
#: tables (64 KiB each) then stay within the worst-case footprint of
#: the H-power memo (:data:`HPOWER_SLOTS` entries of
#: :data:`DEFAULT_FOLD` powers).
LANE_SUBKEYS = HPOWER_SLOTS * DEFAULT_FOLD


def ghash_lanes(subkeys: List[int], messages: List[bytes]) -> List[int]:
    """GHASH of each whole-block ``messages[i]`` under ``subkeys[i]``.

    From a zero accumulator; byte-identical to
    ``ghash_blocks_tabulated(subkeys[i], 0, messages[i])``.  With numpy
    every message is one lane of a single Horner sweep: the messages
    are left-padded with zero blocks to a common length — from a zero
    accumulator a leading zero block leaves it zero — and each step
    absorbs one block of every lane with two gathers from the lanes'
    own byte tables, built for all subkeys at once
    (:func:`_mul_tables`).  So a batch of many keys' tags costs one
    pass of serial steps, however many keys and messages, and no key
    pays a table build of its own.  Without numpy each message takes
    the serial tabulated chain.
    """
    if not HAVE_NUMPY:
        return [ghash_blocks_tabulated(h, 0, m) for h, m in zip(subkeys, messages)]
    results: List[int] = []
    start = 0
    while start < len(messages):
        distinct = {}
        stop = start
        while stop < len(messages) and (
            subkeys[stop] in distinct or len(distinct) < LANE_SUBKEYS
        ):
            distinct.setdefault(subkeys[stop], len(distinct))
            stop += 1
        results += _ghash_sweep(distinct, subkeys[start:stop], messages[start:stop])
        start = stop
    return results


def _ghash_sweep(distinct: dict, subkeys: List[int], messages: List[bytes]) -> List[int]:
    """One :func:`ghash_lanes` sweep; *distinct* maps subkey -> table row."""
    hi, lo = _mul_tables(list(distinct))
    counts = [len(message) // BLOCK_BYTES for message in messages]
    width = max(counts)
    buf = _np.zeros((len(messages), width * BLOCK_BYTES), dtype=_np.uint8)
    for row, (message, count) in enumerate(zip(messages, counts)):
        if count:
            buf[row, (width - count) * BLOCK_BYTES :] = _np.frombuffer(
                message, dtype=_np.uint8
            )
    buf = buf.reshape(len(messages), width, BLOCK_BYTES)
    # Flat table offset of (lane's subkey, byte position), byte value 0.
    rows = _np.array([distinct[h] for h in subkeys], dtype=_np.intp)
    base = (rows[:, None] * BLOCK_BYTES + _np.arange(BLOCK_BYTES)) * 256
    hi, lo = hi.reshape(-1), lo.reshape(-1)
    acc = _np.zeros((len(messages), 2), dtype=">u8")  # high, low halves
    acc_bytes = acc.view(_np.uint8)
    for step in range(width):
        index = base + (buf[:, step] ^ acc_bytes)
        acc[:, 0] = _np.bitwise_xor.reduce(hi.take(index), axis=1)
        acc[:, 1] = _np.bitwise_xor.reduce(lo.take(index), axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in acc_bytes]


def ghash_blocks_hpower(
    h: int, acc: int, data: bytes, fold: int = DEFAULT_FOLD
) -> int:
    """Absorb whole 16-byte blocks of *data* with H-power folding.

    Byte-identical to :func:`ghash_blocks_tabulated`; dispatches to the
    vectorised fold for long-enough messages when numpy is present, and
    to the serial tabulated chain otherwise (the scalar fold pays the
    same 16 lookups per block as the chain, so it is kept for explicit
    use and the fallback tests rather than the scalar hot path).
    """
    if len(data) // BLOCK_BYTES < MIN_FOLD_BLOCKS or fold < 2:
        return ghash_blocks_tabulated(h, acc, data)
    if HAVE_NUMPY:
        return _fold_vector(h, acc, data, fold)
    return ghash_blocks_tabulated(h, acc, data)
