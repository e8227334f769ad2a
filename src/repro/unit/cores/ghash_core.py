"""The digit-serial GHASH core (paper section V.A, after Lemsitzer).

3-bit digits, 43 cycles per 128-bit multiplication.  ``LOADH`` installs
the hash subkey and clears the accumulator; ``SGFM`` absorbs one block
in the background; ``FGFM`` reads the accumulator out.

Subkey, blocks and accumulator are 128-bit ints, as in the bank
register.  ``LOADH`` fetches the subkey's Shoup rows and each ``SGFM``
folds the accumulator through them (sixteen lookups, unrolled like
:func:`repro.crypto.fast.gf128_tables.ghash_blocks_tabulated`); with
the fast engine switched off (``REPRO_FAST=0``) ``SGFM`` runs the
bit-serial reference multiplier.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.fast import fast_enabled
from repro.crypto.fast.gf128_tables import ghash_tables
from repro.crypto.gf128 import gf128_mul
from repro.errors import UnitError
from repro.unit.timing import TimingModel


class GhashCore:
    """Background GHASH engine with busy-interval bookkeeping."""

    def __init__(self, timing: TimingModel):
        self.timing = timing
        self.busy_until = 0
        #: The subkey (None before the first ``LOADH``), its Shoup rows
        #: (None on the reference path) and the accumulator.
        self._h: Optional[int] = None
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
        self._h = h
        self._rows = ghash_tables(h) if fast_enabled() else None
        self._acc = 0

    def absorb(self, block: int, now: int) -> int:
        """``SGFM``: absorb *block*; returns the completion cycle.

        If the multiplier is still busy the start is held until it
        frees (the hardware handshake does the same), so back-to-back
        SGFM streams run at one block per 43 cycles.
        """
        if self._h is None:
            raise UnitError("SGFM before LOADH")
        start = max(now, self.busy_until)
        x = self._acc ^ block
        rows = self._rows
        if rows is None:
            self._acc = gf128_mul(x, self._h)
        else:
            (t0, t1, t2, t3, t4, t5, t6, t7,
             t8, t9, t10, t11, t12, t13, t14, t15) = rows
            self._acc = (
                t0[x >> 120]
                ^ t1[(x >> 112) & 255]
                ^ t2[(x >> 104) & 255]
                ^ t3[(x >> 96) & 255]
                ^ t4[(x >> 88) & 255]
                ^ t5[(x >> 80) & 255]
                ^ t6[(x >> 72) & 255]
                ^ t7[(x >> 64) & 255]
                ^ t8[(x >> 56) & 255]
                ^ t9[(x >> 48) & 255]
                ^ t10[(x >> 40) & 255]
                ^ t11[(x >> 32) & 255]
                ^ t12[(x >> 24) & 255]
                ^ t13[(x >> 16) & 255]
                ^ t14[(x >> 8) & 255]
                ^ t15[x & 255]
            )
        self.busy_until = start + self.timing.ghash_cycles
        self.blocks_processed += 1
        return self.busy_until

    def finalize(self, now: int) -> "tuple[int, int]":
        """``FGFM``: return ``(accumulator, ready_cycle)``."""
        if self._h is None:
            raise UnitError("FGFM before LOADH")
        ready = max(self.busy_until, now) + self.timing.finalize_tail
        return self._acc, ready
