"""Cryptographic Unit instruction encoding (paper Table I).

8-bit instructions: a 4-bit operation code and two 2-bit bank-register
addresses::

    bits [7:4] opcode | [3:2] @A | [1:0] @B

For ``INC`` the B field carries the increment amount minus one (the
paper: "increments by I ... where I is a 2-bit natural", i.e. 1..4).

Beyond Table I, two opcodes drive the inter-core shift register of
section IV.A (``ICSEND``/``ICRECV``) and ``STORE`` is the output-FIFO
counterpart of ``LOAD`` used by Listing 1.
"""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple

from repro.errors import DecodeError


class CuOp(enum.IntEnum):
    """CU opcodes (AES personality)."""

    NOP = 0x0
    LOAD = 0x1    # input FIFO -> bank[A]
    STORE = 0x2   # bank[A] -> output FIFO
    LOADH = 0x3   # GHASH subkey <- bank[A]; accumulator cleared
    SGFM = 0x4    # GHASH absorbs bank[A] (background, 43 cycles)
    FGFM = 0x5    # bank[A] <- GHASH accumulator (finalize)
    SAES = 0x6    # AES starts on bank[A] (background, 44/52/60 cycles)
    FAES = 0x7    # bank[A] <- AES result (finalize)
    INC = 0x8     # bank[A] low 16 bits += (B + 1)
    XOR = 0x9     # bank[B] = (bank[A] ^ bank[B]) & byte-mask
    EQU = 0xA     # equ flag = ((bank[A] ^ bank[B]) & byte-mask) == 0
    ICSEND = 0xB  # bank[A] -> neighbour's inter-core register
    ICRECV = 0xC  # bank[A] <- own inter-core register (stalls if empty)


class CuDecoded(NamedTuple):
    """A decoded CU instruction byte."""

    op: CuOp
    a: int
    b: int


def cu_encode(op: CuOp, a: int = 0, b: int = 0) -> int:
    """Pack a CU instruction byte."""
    if not 0 <= a <= 3 or not 0 <= b <= 3:
        raise DecodeError(f"bank address out of range: a={a} b={b}")
    return (int(op) << 4) | (a << 2) | b


def cu_decode(byte: int) -> CuDecoded:
    """Unpack a CU instruction byte."""
    if not 0 <= byte <= 0xFF:
        raise DecodeError(f"CU instruction {byte:#x} exceeds 8 bits")
    op_bits = (byte >> 4) & 0xF
    try:
        op = CuOp(op_bits)
    except ValueError as exc:
        raise DecodeError(f"unknown CU opcode {op_bits:#x}") from exc
    return CuDecoded(op, (byte >> 2) & 0x3, byte & 0x3)


#: Every decodable instruction byte -> its decoded form; a byte whose
#: opcode is unknown is absent.  The CU issues through this table.
CU_DECODE_TABLE: Dict[int, CuDecoded] = {
    cu_encode(op, a, b): CuDecoded(op, a, b)
    for op in CuOp
    for a in range(4)
    for b in range(4)
}
