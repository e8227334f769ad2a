"""The iterative 32-bit AES encryption core (paper section V.A).

Encryption only — the MCCP's modes (CTR/CCM/GCM) never need the inverse
cipher, so the hardware omits it and so do we.  One block takes
44/52/60 cycles depending on the key size; the core computes in the
background between ``SAES`` (sample input, go busy) and ``FAES``
(deliver the result).

Blocks are 128-bit ints, as in the bank register.  The fast path feeds
their four 32-bit words straight to the T-table rounds; with the fast
engine switched off (``REPRO_FAST=0``) the reference cipher runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.aes import encrypt_block_with_schedule
from repro.crypto.fast import aes_ttable, fast_enabled
from repro.errors import UnitError
from repro.unit.timing import TimingModel
from repro.utils.bits import WORD32_MASK


def encrypt_block_int(block: int, round_keys: Sequence[Sequence[int]]) -> int:
    """AES of the 128-bit *block* under the expanded *round_keys*."""
    if fast_enabled():
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
    out = encrypt_block_with_schedule(block.to_bytes(16, "big"), round_keys)
    return int.from_bytes(out, "big")


class AesCore:
    """Background AES engine with busy-interval bookkeeping."""

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.busy_until = 0
        self._result: Optional[int] = None
        #: Total blocks encrypted (utilisation statistics).
        self.blocks_processed = 0

    def start(self, block: int, round_keys: Sequence[Sequence[int]], now: int) -> int:
        """``SAES``: sample *block*, return the completion cycle.

        An unread previous result is discarded (the firmware pattern in
        Listing 1 legitimately launches one extra encryption per packet
        whose result is never finalized).
        """
        if now < self.busy_until:
            raise UnitError(
                f"SAES at cycle {now} while AES busy until {self.busy_until}"
            )
        key_bits = 32 * (len(round_keys) - 1 - 6)  # 10->128, 12->192, 14->256
        busy = self.timing.aes_busy(key_bits)
        # Functional result only — the cycle model above is untouched by
        # whether the fast T-table engine or the reference rounds run.
        self._result = encrypt_block_int(block, round_keys)
        self.busy_until = now + busy
        self.blocks_processed += 1
        return self.busy_until

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
