"""The Cross Bar (paper section III.A).

"Each Cryptographic Core communicates with the communication controller
through the Cross Bar; it enables the Task Scheduler to select a
specific core for I/O access."  The model charges one cycle per 32-bit
word moved.  Transfers are not serialised against each other: it
assumes a multi-port switch, each core port moving one word per cycle
concurrently.

A transfer is one bounded run on the core FIFO's arrival schedule
(:meth:`repro.sim.fifo.WordFifo.stream_in` / ``drain_out``): the words
move a block at a time when something reads the FIFO, with the exact
cycles and backpressure of a word-per-cycle process, and the only
kernel event of a transfer is its ``done``.  Bytes stop at the port:
an upload turns the whole packet into 32-bit words with one
``struct.unpack``, and a download hands the caller words.  The words a
port has moved are the input FIFOs' ``total_pushed`` plus the output
FIFOs' ``total_popped``.
"""

from __future__ import annotations

from repro.core.crypto_core import CryptoCore
from repro.sim.fifo import Transfer
from repro.unit.timing import TimingModel
from repro.utils.bits import bytes_to_words32


class Crossbar:
    """The word-transfer engine between the port and the core FIFOs.

    Each method returns the run; its ``done`` event triggers with the
    end cycle.
    """

    def __init__(self, timing: TimingModel):
        self.timing = timing

    def upload_blocks(self, core: CryptoCore, blocks) -> Transfer:
        """Stream *blocks* into the core's input FIFO, as 32-bit words."""
        words = bytes_to_words32(b"".join(blocks))
        return core.in_fifo.stream_in(words, self.timing.crossbar_word_cycles)

    def download_words(self, core: CryptoCore, sink: list, nwords: int) -> Transfer:
        """Pop exactly *nwords* words from the core's output FIFO into *sink*."""
        return core.out_fifo.drain_out(sink, nwords, self.timing.crossbar_word_cycles)
