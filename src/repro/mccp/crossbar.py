"""The Cross Bar (paper section III.A).

"Each Cryptographic Core communicates with the communication controller
through the Cross Bar; it enables the Task Scheduler to select a
specific core for I/O access."  The model tracks which core currently
owns the external I/O port (granted by RETRIEVE DATA / the upload phase
of ENCRYPT) and charges one cycle per 32-bit word moved, which is what
serialises concurrent packet uploads in the multi-core benchmarks.

A transfer is one run on the core FIFO's arrival schedule
(:meth:`repro.sim.fifo.WordFifo.stream_in` / ``drain_out``): the words
move a block at a time when something reads the FIFO, with the exact
cycles and backpressure of a word-per-cycle process, and the only
kernel event of a transfer is its ``done``.  Bytes stop at the port:
an upload turns the whole packet into 32-bit words with one
``struct.unpack``, and a download hands the caller words.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.crypto_core import CryptoCore
from repro.sim.fifo import Transfer, WordFifo
from repro.sim.kernel import Simulator
from repro.unit.timing import TimingModel
from repro.utils.bits import bytes_to_words32


class Crossbar:
    """External-port arbiter plus word-transfer engine."""

    def __init__(self, sim: Simulator, timing: TimingModel):
        self.sim = sim
        self.timing = timing
        self._granted: Optional[int] = None
        self._moved = 0
        self._active: List[Tuple[WordFifo, Transfer]] = []

    @property
    def words_moved(self) -> int:
        """Total words moved through the external port (both directions)."""
        moved = self._moved
        for fifo, run in self._active:
            moved += fifo.moved(run)
        return moved

    def grant(self, core_index: int) -> None:
        """Connect *core_index* to the external port."""
        self._granted = core_index

    def release(self) -> None:
        """Disconnect the external port."""
        self._granted = None

    # -- transfers --------------------------------------------------------------
    #
    # Transfers charge per-word cycles but are not serialised against the
    # grant: the model assumes a multi-port switch (each core port can
    # move one word per cycle concurrently).  ``grant`` tracks the
    # RETRIEVE-DATA protocol state only.  Each returns the run; its
    # ``done`` event triggers with the end cycle.

    def upload_blocks(self, core: CryptoCore, blocks) -> Transfer:
        """Stream *blocks* into the core's input FIFO, as 32-bit words."""
        words = bytes_to_words32(b"".join(blocks))
        run = core.in_fifo.stream_in(words, self.timing.crossbar_word_cycles)
        return self._track(core.in_fifo, run)

    def download_words(self, core: CryptoCore, sink: list, nwords: int) -> Transfer:
        """Pop exactly *nwords* words from the core's output FIFO into *sink*."""
        return self._track(
            core.out_fifo,
            core.out_fifo.drain_out(sink, nwords, self.timing.crossbar_word_cycles),
        )

    def _track(self, fifo: WordFifo, run: Transfer) -> Transfer:
        # Fold finished transfers into the total as new ones start.
        active = []
        for pair in self._active:
            if pair[1].done.triggered:
                self._moved += pair[1].moved
            else:
                active.append(pair)
        active.append((fifo, run))
        self._active = active
        return run
