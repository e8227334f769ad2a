"""The 32-bit I/O core: FIFO <-> bank register transfers (section V.A).

``LOAD`` pops four 32-bit words from the input FIFO into a bank
register; ``STORE`` pushes a bank register into the output FIFO.  Both
stall while the FIFO cannot serve them ("loads data from input FIFO
once there are available", section IV.C).

The unit asks the FIFO's arrival schedule when that will be
(:meth:`WordFifo.pop_ready` / :meth:`WordFifo.push_ready`), and once it
knows the completion cycle it claims the block move for that cycle
(:meth:`claim_load` / :meth:`claim_store`): the FIFO then replays the
move in order with its producer and consumer runs, with no kernel
event of its own.
"""

from __future__ import annotations

from repro.sim.fifo import Claim, WordFifo


class IoCore:
    """Block mover between the core FIFOs and the bank register."""

    def __init__(self, in_fifo: WordFifo, out_fifo: WordFifo):
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo
        #: Blocks claimed in each direction.
        self.blocks_in = 0
        self.blocks_out = 0

    def claim_load(self, cycle: int, stamp: int, seq: int) -> Claim:
        """Claim one block from the input FIFO for key ``(cycle, stamp, seq)``."""
        self.blocks_in += 1
        return self.in_fifo.claim_pop(cycle, stamp, seq)

    def claim_store(self, cycle: int, stamp: int, seq: int, block: bytes) -> None:
        """Claim a push of *block* into the output FIFO for that key."""
        self.blocks_out += 1
        self.out_fifo.claim_push(cycle, stamp, seq, block)
