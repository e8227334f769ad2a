"""The 32-bit XOR/comparator core with 16-bit byte mask (section V.A).

The mask is a 16-bit word: bit *i* (bit 15 = most significant) enables
byte *i* of the 16-byte result, counting from the most significant
byte.  This single primitive covers partial final blocks (enable the
valid prefix) and truncated authentication tags (enable the first
``tag_length`` bytes).  Operands are 128-bit ints, as in the bank
register.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import UnitError


def mask_for_bytes(nbytes: int) -> int:
    """Mask enabling the first *nbytes* bytes of a 16-byte word."""
    if not 0 <= nbytes <= 16:
        raise UnitError(f"mask byte count {nbytes} out of range")
    if nbytes == 0:
        return 0
    return ((1 << nbytes) - 1) << (16 - nbytes)


@lru_cache(maxsize=None)
def _bit_mask(mask: int) -> int:
    """The 16-bit byte mask widened to a 128-bit bit mask."""
    if not 0 <= mask <= 0xFFFF:
        raise UnitError(f"mask {mask:#x} exceeds 16 bits")
    return sum(0xFF << (8 * (15 - i)) for i in range(16) if (mask >> (15 - i)) & 1)


def masked_xor(a: int, b: int, mask: int) -> int:
    """``B = (A xor B) and mask`` — the XOR operating mode."""
    return (a ^ b) & _bit_mask(mask)


def masked_equal(a: int, b: int, mask: int) -> bool:
    """``equ`` flag: true when the masked XOR is all zero.

    With the mask covering ``tag_length`` bytes this is the truncated
    tag comparison of the RETRIEVE DATA path.
    """
    return not (a ^ b) & _bit_mask(mask)
