"""GHASH universal hash (NIST SP 800-38D section 6.4).

GHASH_H(X) for a bit string X that is a whole number of 128-bit blocks:
``Y_0 = 0; Y_i = (Y_{i-1} xor X_i) * H``; the result is the final Y.

The class form mirrors the hardware GHASH core: ``LOADH`` loads the hash
subkey, ``SGFM`` absorbs one block (one digit-serial multiplication, 43
cycles), ``FGFM`` reads the accumulator out.
"""

from __future__ import annotations

from repro.errors import BlockSizeError
from repro.crypto.gf128 import HW_DIGIT_BITS, gf128_mul, gf128_mul_digit_serial

# Unused here: perfbench's layer table looks these two names up on this module.
from repro.crypto.fast.gf128_tables import ghash_blocks_tabulated  # noqa: F401
from repro.crypto.fast.ghash_hpower import ghash_blocks_hpower  # noqa: F401

BLOCK_BYTES = 16


class GHash:
    """Incremental GHASH mirroring the hardware core's LOADH/SGFM/FGFM.

    Each block runs the bit-serial reference multiplier, or with
    *digit_serial* the stepped multiplier of the hardware *cycle
    model*, so :attr:`cycles` stays faithful.  Both give the same
    digest.

    Parameters
    ----------
    h:
        The 16-byte hash subkey ``H = AES_K(0^128)``.
    digit_serial:
        When true, each absorbed block uses the digit-serial multiplier
        and :attr:`cycles` accumulates the hardware cycle count.
    """

    def __init__(self, h: bytes, digit_serial: bool = False):
        if len(h) != BLOCK_BYTES:
            raise BlockSizeError(f"GHASH subkey must be 16 bytes, got {len(h)}")
        self._h = int.from_bytes(h, "big")
        self._acc = 0
        self._digit_serial = digit_serial
        #: Total hardware multiplier cycles consumed so far.
        self.cycles = 0
        #: Number of blocks absorbed.
        self.blocks = 0

    def update(self, block: bytes) -> "GHash":
        """Absorb one 16-byte block (hardware ``SGFM``)."""
        if len(block) != BLOCK_BYTES:
            raise BlockSizeError(
                f"GHASH blocks must be 16 bytes, got {len(block)}"
            )
        x = self._acc ^ int.from_bytes(block, "big")
        if self._digit_serial:
            self._acc, steps = gf128_mul_digit_serial(x, self._h, HW_DIGIT_BITS)
            self.cycles += steps
        else:
            self._acc = gf128_mul(x, self._h)
        self.blocks += 1
        return self

    def update_blocks(self, data: bytes) -> "GHash":
        """Absorb a whole number of blocks from *data*."""
        if len(data) % BLOCK_BYTES != 0:
            raise BlockSizeError(
                f"data length {len(data)} is not a multiple of 16"
            )
        for i in range(0, len(data), BLOCK_BYTES):
            self.update(data[i : i + BLOCK_BYTES])
        return self

    def digest(self) -> bytes:
        """Read the accumulator (hardware ``FGFM``); does not reset."""
        return self._acc.to_bytes(BLOCK_BYTES, "big")

    def reset(self) -> "GHash":
        """Clear the accumulator for a new message (same subkey)."""
        self._acc = 0
        self.blocks = 0
        return self


def ghash(h: bytes, data: bytes) -> bytes:
    """One-shot GHASH of *data* (must be a multiple of 16 bytes)."""
    return GHash(h).update_blocks(data).digest()
