"""The 4 x 128-bit bank register (paper section V.A).

Each register holds a 128-bit int: the big-endian value of the 16
bytes it models, so bit 127 is the first bit of the block.  The
hardware reaches a register through four 32-bit sub-word accesses
sequenced by a 2-bit counter, sub-word 0 most significant; the CU's
issue handlers work on whole registers (:attr:`BankRegister.regs`).
Bytes exist only at the edge of the device: the crossbar turns a
packet into 32-bit words, and the drained words back into bytes, once
per packet.
"""

from __future__ import annotations

from typing import List

from repro.errors import BankAddressError
from repro.utils.bits import WORD128_MASK

NUM_REGISTERS = 4


class BankRegister:
    """Four 128-bit registers addressed by 2-bit fields."""

    def __init__(self) -> None:
        #: The registers, indexed directly by the CU's issue handlers
        #: (their 2-bit address fields are always in range).
        self.regs: List[int] = [0] * NUM_REGISTERS

    def _check(self, index: int) -> None:
        if not 0 <= index < NUM_REGISTERS:
            raise BankAddressError(f"bank register index {index} out of range")

    def read(self, index: int) -> int:
        """Full 128-bit read of register *index*."""
        self._check(index)
        return self.regs[index]

    def write(self, index: int, value: int) -> None:
        """Full 128-bit write of register *index*."""
        self._check(index)
        if not 0 <= value <= WORD128_MASK:
            raise BankAddressError(f"bank register value {value:#x} exceeds 128 bits")
        self.regs[index] = value

    def clear(self) -> None:
        """Zero all registers (channel teardown hygiene), in place."""
        self.regs[:] = [0] * NUM_REGISTERS
