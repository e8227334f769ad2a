"""The iterative 32-bit AES encryption core (paper section V.A).

Encryption only — the MCCP's modes (CTR/CCM/GCM) never need the inverse
cipher, so the hardware omits it and so do we.  One block takes
44/52/60 cycles depending on the key size; the core computes in the
background between ``SAES`` (sample input, go busy) and ``FAES``
(deliver the result).

Blocks are 128-bit ints, as in the bank register.  CTR keystream
blocks do not depend on each other (section II.B), so a counter run
(each block ``inc16`` of the last, under one schedule) is read ahead:
one :func:`~repro.crypto.fast.bulk.ctr_stream` call fills a buffer
with the run's next blocks.  A run fills at its second block once the
core remembers a run, the last one longer than ``batch.MIN_LANES``
blocks: with its next ``max(n, m - n)`` blocks, ``n`` the blocks it
has consumed and ``m`` the remembered length, so a run as long as the
last one fills once.  Before that, a run fills once it has consumed
``n >= batch.MIN_LANES`` blocks, with its next ``n``.  A fill stops
at the run's :data:`LONGEST_RUN`-th block, the longest run a core
sees, unless the run is already past it.  A lone block (GCM's H =
E(0)) never reads ahead; a short packet after a long one reads the
long one's window.  Other blocks, and every block without numpy, run
the T-table rounds.  Cycles do not depend on the path.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.key_cache import RoundKeys
from repro.crypto.fast import aes_ttable, aes_vector, batch, bulk
from repro.errors import UnitError
from repro.sim.fifo import DEFAULT_DEPTH_WORDS, WORDS_PER_BLOCK
from repro.unit.timing import TimingModel
from repro.utils.bits import WORD32_MASK


def encrypt_block_int(block: int, round_keys: Sequence[Sequence[int]]) -> int:
    """AES of the 128-bit *block* under the expanded *round_keys*."""
    # Looked up on its module, so a wrapper installed there (the
    # ``kernels.aes_scalar`` seam of perfbench's layer table) sees it.
    o0, o1, o2, o3 = aes_ttable.encrypt_words_tt(
        block >> 96,
        (block >> 64) & WORD32_MASK,
        (block >> 32) & WORD32_MASK,
        block & WORD32_MASK,
        round_keys,
    )
    return (o0 << 96) | (o1 << 64) | (o2 << 32) | o3


#: The longest counter run a core sees: a full FIFO's data blocks after
#: the mode's pre-counter block (GCM's J0, CCM's A0).
LONGEST_RUN = DEFAULT_DEPTH_WORDS // WORDS_PER_BLOCK + 1


class AesCore:
    """Background AES engine with busy-interval bookkeeping."""

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.busy_until = 0
        self._result: Optional[int] = None
        #: Total blocks encrypted (utilisation statistics).
        self.blocks_processed = 0
        # Counter-run readahead: the run's schedule, the counter it
        # expects next, the keystream read ahead and the offset of its
        # next unserved block, the blocks the run has consumed and the
        # length of the last run that read ahead.
        self._run_keys: Optional[RoundKeys] = None
        self._next: Optional[int] = None
        self._stream = b""
        self._offset = 0
        self._consumed = 0
        self._previous_run = 0
        #: The busy time under the run's schedule.
        self._busy_cycles = 0

    def start(self, block: int, round_keys: RoundKeys, now: int) -> int:
        """``SAES``: sample *block*, return the completion cycle.

        An unread previous result is discarded (the firmware pattern in
        Listing 1 legitimately launches one extra encryption per packet
        whose result is never finalized).  A counter run is recognised
        by the identity of *round_keys*, so a schedule must never change
        in place (``KeyCache`` installs a new tuple each time).
        """
        if now < self.busy_until:
            raise UnitError(
                f"SAES at cycle {now} while AES busy until {self.busy_until}"
            )
        if round_keys is not self._run_keys:
            key_bits = 32 * (len(round_keys) - 1 - 6)  # 10->128, 12->192, 14->256
            self._busy_cycles = self.timing.aes_busy(key_bits)
        busy = self._busy_cycles
        # Functional result only — the cycle model above is untouched by
        # whether the block was read ahead.
        self._result = self._read_ahead(block, round_keys)
        self.busy_until = now + busy
        self.blocks_processed += 1
        return self.busy_until

    def _read_ahead(self, block: int, round_keys: RoundKeys) -> int:
        """AES of *block*, served from the counter run's keystream buffer."""
        consumed = self._consumed
        if block != self._next or round_keys is not self._run_keys:
            # The run ends.  A run too short to read ahead (GCM's lone
            # H = E(0), a small packet) leaves the next window alone.
            if consumed > batch.MIN_LANES:
                self._previous_run = consumed
            self._run_keys, self._stream, consumed = round_keys, b"", 0
        # inc16(block, 1), in line: the counter the run expects next.
        self._next = block + 1 if block & 0xFFFF != 0xFFFF else block - 0xFFFF
        self._consumed = consumed + 1
        offset = self._offset
        if offset >= len(self._stream):
            previous = self._previous_run
            if consumed < (1 if previous else batch.MIN_LANES) or not aes_vector.HAVE_NUMPY:
                return encrypt_block_int(block, round_keys)
            window = max(consumed, previous - consumed)
            if consumed < LONGEST_RUN:
                window = min(window, LONGEST_RUN - consumed)
            self._stream = bulk.ctr_stream(round_keys, block.to_bytes(16, "big"), window, 16)
            offset = 0
        self._offset = offset + 16
        return int.from_bytes(self._stream[offset : offset + 16], "big")

    def finalize(self, now: int) -> "tuple[int, int]":
        """``FAES``: return ``(result, ready_cycle)``.

        ``ready_cycle`` is when the result (and the done pulse) appears:
        ``max(busy_until, now) + finalize_tail``.
        """
        if self._result is None:
            raise UnitError("FAES with no pending AES computation")
        ready = max(self.busy_until, now) + self.timing.finalize_tail
        result, self._result = self._result, None
        return result, ready
