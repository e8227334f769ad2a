"""Two-pass assembler for the 8-bit controller.

Syntax (PicoBlaze assembler style)::

    ; GCM main loop (paper Listing 1)
    CONSTANT cu_port, 0x00
    gcm_loop:
        OUTPUT s4, cu_port      ; FAES
        HALT
        OUTPUT s5, cu_port      ; SAES
        SUB    s0, 1
        JUMP   NZ, gcm_loop

- Comments start with ``;`` (or ``#``).
- Labels end with ``:`` and may share a line with an instruction.
- ``CONSTANT name, value`` defines a symbolic byte/port value.
- Registers are ``s0``..``sF`` (case-insensitive).
- Immediates: decimal, ``0x..`` hex, ``0b..`` binary, or a CONSTANT.
- Indirect port/scratchpad forms use parentheses: ``INPUT s1, (s2)``.

Pass 1 collects labels and constants; pass 2 emits 18-bit words.
Errors carry the source line number.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import AssemblerError
from repro.isa.opcodes import (
    ADDR_MASK,
    FLOW_VARIANTS,
    Cond,
    Op,
    encode,
)
from repro.isa.program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):(.*)$")
_REGISTER_RE = re.compile(r"^s([0-9A-Fa-f])$")
_INDIRECT_RE = re.compile(r"^\(\s*(s[0-9A-Fa-f])\s*\)$", re.IGNORECASE)

#: Mnemonic -> (immediate-form op, register-form op) for two-operand ALU/IO.
_TWO_OPERAND = {
    "LOAD": (Op.LOAD, Op.LOAD_R),
    "AND": (Op.AND, Op.AND_R),
    "OR": (Op.OR, Op.OR_R),
    "XOR": (Op.XOR, Op.XOR_R),
    "ADD": (Op.ADD, Op.ADD_R),
    "ADDCY": (Op.ADDCY, Op.ADDCY_R),
    "SUB": (Op.SUB, Op.SUB_R),
    "SUBCY": (Op.SUBCY, Op.SUBCY_R),
    "COMPARE": (Op.COMPARE, Op.COMPARE_R),
    "INPUT": (Op.INPUT, Op.INPUT_R),
    "OUTPUT": (Op.OUTPUT, Op.OUTPUT_R),
    "STORE": (Op.STORE, Op.STORE_R),
    "FETCH": (Op.FETCH, Op.FETCH_R),
}

_SHIFT = {"SR0": Op.SR0, "SL0": Op.SL0, "RR": Op.RR, "RL": Op.RL}

_COND_NAMES = {"Z": Cond.Z, "NZ": Cond.NZ, "C": Cond.C, "NC": Cond.NC}


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _parse_register(token: str, lineno: int) -> Optional[int]:
    m = _REGISTER_RE.match(token)
    return int(m.group(1), 16) if m else None


def _parse_value(
    token: str, constants: Dict[str, int], lineno: int
) -> int:
    token = token.strip()
    try:
        if token.lower().startswith("0x"):
            return int(token, 16)
        if token.lower().startswith("0b"):
            return int(token, 2)
        return int(token, 10)
    except ValueError:
        pass
    if token in constants:
        return constants[token]
    raise AssemblerError(f"line {lineno}: cannot parse value {token!r}")


def _split_operands(rest: str) -> List[str]:
    return [p.strip() for p in rest.split(",")] if rest.strip() else []


def _tokenize(
    source: str,
) -> Tuple[List[Tuple[int, str, List[str], str]], Dict[str, int], Dict[str, int]]:
    """Pass 1: returns (statements, labels, constants).

    Each statement is (lineno, mnemonic, operands, original_line).
    """
    statements: List[Tuple[int, str, List[str], str]] = []
    labels: Dict[str, int] = {}
    constants: Dict[str, int] = {}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        while True:
            m = _LABEL_RE.match(line)
            if not m:
                break
            label = m.group(1)
            if label in labels:
                raise AssemblerError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = len(statements)
            line = m.group(2).strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].upper()
        rest = parts[1] if len(parts) > 1 else ""
        if mnemonic == "CONSTANT":
            ops = _split_operands(rest)
            if len(ops) != 2:
                raise AssemblerError(
                    f"line {lineno}: CONSTANT takes name, value"
                )
            name, value_tok = ops
            if name in constants:
                raise AssemblerError(
                    f"line {lineno}: duplicate constant {name!r}"
                )
            constants[name] = _parse_value(value_tok, constants, lineno)
            continue
        # ENABLE/DISABLE INTERRUPT and RETURNI ENABLE/DISABLE read better
        # as two words; normalise them to single mnemonics here.
        if mnemonic in ("ENABLE", "DISABLE") and rest.strip().upper() == "INTERRUPT":
            mnemonic = "EINT" if mnemonic == "ENABLE" else "DINT"
            rest = ""
        if mnemonic == "RETURNI":
            flag = rest.strip().upper() or "DISABLE"
            if flag not in ("ENABLE", "DISABLE"):
                raise AssemblerError(
                    f"line {lineno}: RETURNI takes ENABLE or DISABLE"
                )
            mnemonic = "RETURNI_E" if flag == "ENABLE" else "RETURNI_D"
            rest = ""
        statements.append((lineno, mnemonic, _split_operands(rest), raw.strip()))

    return statements, labels, constants


def assemble(source: str, name: str = "program") -> Program:
    """Assemble *source* text into a :class:`Program`."""
    statements, labels, constants = _tokenize(source)
    words: List[int] = []
    lines: List[str] = []

    def resolve_addr(token: str, lineno: int) -> int:
        if token in labels:
            return labels[token]
        value = _parse_value(token, constants, lineno)
        if not 0 <= value <= ADDR_MASK:
            raise AssemblerError(f"line {lineno}: address {value:#x} out of range")
        return value

    for lineno, mnemonic, operands, raw in statements:
        if mnemonic in _TWO_OPERAND:
            if len(operands) != 2:
                raise AssemblerError(
                    f"line {lineno}: {mnemonic} takes two operands"
                )
            sx = _parse_register(operands[0], lineno)
            if sx is None:
                raise AssemblerError(
                    f"line {lineno}: first operand of {mnemonic} must be a register"
                )
            imm_op, reg_op = _TWO_OPERAND[mnemonic]
            ind = _INDIRECT_RE.match(operands[1])
            if ind:
                sy = _parse_register(ind.group(1).lower(), lineno)
                words.append(encode(reg_op, sx, sy << 4))
            else:
                sy = _parse_register(operands[1], lineno)
                if sy is not None:
                    if mnemonic in ("INPUT", "OUTPUT", "STORE", "FETCH"):
                        raise AssemblerError(
                            f"line {lineno}: {mnemonic} indirect form needs "
                            f"parentheses: ({operands[1]})"
                        )
                    words.append(encode(reg_op, sx, sy << 4))
                else:
                    value = _parse_value(operands[1], constants, lineno)
                    if not 0 <= value <= 0xFF:
                        raise AssemblerError(
                            f"line {lineno}: immediate {value:#x} out of byte range"
                        )
                    words.append(encode(imm_op, sx, value))
        elif mnemonic in _SHIFT:
            if len(operands) != 1:
                raise AssemblerError(f"line {lineno}: {mnemonic} takes one register")
            sx = _parse_register(operands[0], lineno)
            if sx is None:
                raise AssemblerError(
                    f"line {lineno}: {mnemonic} operand must be a register"
                )
            words.append(encode(_SHIFT[mnemonic], sx, 0))
        elif mnemonic in ("JUMP", "CALL"):
            if len(operands) == 1:
                cond, target = Cond.ALWAYS, operands[0]
            elif len(operands) == 2:
                cond_name = operands[0].upper()
                if cond_name not in _COND_NAMES:
                    raise AssemblerError(
                        f"line {lineno}: unknown condition {operands[0]!r}"
                    )
                cond, target = _COND_NAMES[cond_name], operands[1]
            else:
                raise AssemblerError(f"line {lineno}: malformed {mnemonic}")
            op = FLOW_VARIANTS[mnemonic][cond]
            words.append(encode(op, addr=resolve_addr(target, lineno)))
        elif mnemonic == "RETURN":
            if not operands:
                cond = Cond.ALWAYS
            elif len(operands) == 1 and operands[0].upper() in _COND_NAMES:
                cond = _COND_NAMES[operands[0].upper()]
            else:
                raise AssemblerError(f"line {lineno}: malformed RETURN")
            words.append(encode(FLOW_VARIANTS["RETURN"][cond]))
        elif mnemonic == "NOP":
            words.append(encode(Op.NOP))
        elif mnemonic == "HALT":
            words.append(encode(Op.HALT))
        elif mnemonic == "EINT":
            words.append(encode(Op.EINT))
        elif mnemonic == "DINT":
            words.append(encode(Op.DINT))
        elif mnemonic == "RETURNI_E":
            words.append(encode(Op.RETURNI_E))
        elif mnemonic == "RETURNI_D":
            words.append(encode(Op.RETURNI_D))
        else:
            raise AssemblerError(f"line {lineno}: unknown mnemonic {mnemonic!r}")
        lines.append(raw)

    return Program(
        words=words,
        symbols=dict(labels),
        constants=dict(constants),
        source_lines=lines,
        name=name,
    )
