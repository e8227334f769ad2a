"""The digit-serial GHASH core (paper section V.A, after Lemsitzer).

3-bit digits, 43 cycles per 128-bit multiplication.  ``LOADH`` installs
the hash subkey and clears the accumulator; ``SGFM`` absorbs one block
in the background; ``FGFM`` reads the accumulator out.

Subkey, blocks and accumulator are 128-bit ints, as in the bank
register.  ``LOADH`` fetches the subkey's Shoup rows and each ``SGFM``
folds the accumulator through them: sixteen lookups, unrolled like
:func:`repro.crypto.fast.gf128_tables.ghash_blocks_tabulated`, indexed
by the bytes of one ``to_bytes`` call rather than by shifts and masks
of the 128-bit int.
"""

from __future__ import annotations

from repro.crypto.fast.gf128_tables import ghash_tables
from repro.errors import UnitError
from repro.unit.timing import TimingModel


class GhashCore:
    """Background GHASH engine with busy-interval bookkeeping."""

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.busy_until = 0
        #: The subkey's Shoup rows (None before the first ``LOADH``) and
        #: the accumulator.
        self._rows = None
        self._acc = 0
        #: Total blocks absorbed.
        self.blocks_processed = 0

    def load_h(self, h: int, now: int) -> None:
        """``LOADH``: install subkey *h*, reset the accumulator."""
        if now < self.busy_until:
            raise UnitError(
                f"LOADH at cycle {now} while GHASH busy until {self.busy_until}"
            )
        self._rows = ghash_tables(h)
        self._acc = 0

    def absorb(self, block: int, now: int) -> int:
        """``SGFM``: absorb *block*; returns the completion cycle.

        If the multiplier is still busy the start is held until it
        frees (the hardware handshake does the same), so back-to-back
        SGFM streams run at one block per 43 cycles.
        """
        rows = self._rows
        if rows is None:
            raise UnitError("SGFM before LOADH")
        start = max(now, self.busy_until)
        (t0, t1, t2, t3, t4, t5, t6, t7,
         t8, t9, t10, t11, t12, t13, t14, t15) = rows
        # The table indices are the bytes of the block, most
        # significant first.
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = (self._acc ^ block).to_bytes(16, "big")
        self._acc = (
            t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7]
            ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11] ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15]
        )
        self.busy_until = start + self.timing.ghash_cycles
        self.blocks_processed += 1
        return self.busy_until

    def finalize(self, now: int) -> "tuple[int, int]":
        """``FGFM``: return ``(accumulator, ready_cycle)``."""
        if self._rows is None:
            raise UnitError("FGFM before LOADH")
        ready = max(self.busy_until, now) + self.timing.finalize_tail
        return self._acc, ready
