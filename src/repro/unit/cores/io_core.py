"""The 32-bit I/O core: FIFO <-> bank register transfers (section V.A).

``LOAD`` pops four 32-bit words from the input FIFO into a bank
register; ``STORE`` pushes a bank register into the output FIFO as four
words.  Both stall while the FIFO cannot serve them ("loads data from
input FIFO once there are available", section IV.C).  The words are
the 128-bit register value's sub-words, most significant first; the
FIFOs hold words, never bytes.

The unit asks the FIFO's arrival schedule when that will be
(:meth:`WordFifo.pop_ready` / :meth:`WordFifo.push_ready`), and once it
knows the completion cycle it claims the block move for that cycle
(:meth:`claim_load` / :meth:`claim_store`): the FIFO then replays the
move in order with its producer and consumer runs, with no kernel
event of its own.
"""

from __future__ import annotations

from repro.sim.fifo import Claim, WordFifo
from repro.utils.bits import WORD32_MASK


class IoCore:
    """Block mover between the core FIFOs and the bank register."""

    def __init__(self, in_fifo: WordFifo, out_fifo: WordFifo):
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo

    def claim_load(self, cycle: int, stamp: int, seq: int) -> Claim:
        """Claim four words from the input FIFO for key ``(cycle, stamp, seq)``."""
        return self.in_fifo.claim_pop(cycle, stamp, seq)

    def loaded(self, claim: Claim) -> int:
        """The 128-bit value a past :meth:`claim_load` popped."""
        w0, w1, w2, w3 = self.in_fifo.claimed_words(claim)
        return (w0 << 96) | (w1 << 64) | (w2 << 32) | w3

    def claim_store(self, cycle: int, stamp: int, seq: int, value: int) -> None:
        """Claim a push of the 128-bit *value*'s four words for that key."""
        words = (
            value >> 96,
            (value >> 64) & WORD32_MASK,
            (value >> 32) & WORD32_MASK,
            value & WORD32_MASK,
        )
        self.out_fifo.claim_push(cycle, stamp, seq, words)
