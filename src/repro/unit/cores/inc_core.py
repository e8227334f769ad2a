"""The INC core: 16-bit increment of a 128-bit word (section V.A).

Increments the 16 least significant bits by 1..4, wrapping modulo
2^16; the upper 112 bits pass through untouched.  This exactly suits
the counter blocks of the radio's modes: GCM's 96-bit-IV counters and
CCM's q=2 counters both keep their counting field within the low 16
bits for packet-sized data.
"""

from __future__ import annotations

from repro.errors import UnitError
from repro.utils.bits import WORD128_MASK

_HIGH112 = WORD128_MASK ^ 0xFFFF


def inc16(value: int, amount: int) -> int:
    """Return the 128-bit *value* with its low 16 bits incremented by *amount*."""
    if not 1 <= amount <= 4:
        raise UnitError(f"INC amount must be 1..4, got {amount}")
    return (value & _HIGH112) | ((value + amount) & 0xFFFF)
