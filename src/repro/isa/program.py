"""Assembled program images.

A :class:`Program` is what the assembler produces and the controller
executes: up to 1024 18-bit words, pre-decoded for interpreter speed,
with the symbol table and per-word source lines kept for diagnostics.

The paper notes each instruction memory is *shared between two
neighbouring cores* (dual-port BRAM, section IV.A); the device model
reflects that by letting two Controller8 instances reference one
Program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ExecutionError
from repro.isa.opcodes import Decoded, IMEM_WORDS, decode


@dataclass
class Program:
    """An assembled instruction-memory image."""

    words: List[int]
    symbols: Dict[str, int] = field(default_factory=dict)
    constants: Dict[str, int] = field(default_factory=dict)
    source_lines: List[str] = field(default_factory=list)
    name: str = "program"

    def __post_init__(self) -> None:
        if len(self.words) > IMEM_WORDS:
            raise ExecutionError(
                f"program {self.name!r} has {len(self.words)} words; "
                f"instruction memory holds {IMEM_WORDS}"
            )
        #: The words pre-decoded, indexed by PC (what the controller runs).
        self.decoded: List[Decoded] = [decode(w) for w in self.words]

    def __len__(self) -> int:
        return len(self.words)

    def fetch(self, pc: int) -> Decoded:
        """Decoded instruction at *pc* (raises past the end)."""
        if not 0 <= pc < len(self.decoded):
            raise ExecutionError(
                f"PC {pc:#x} outside program {self.name!r} "
                f"({len(self.decoded)} words)"
            )
        return self.decoded[pc]

    def label(self, name: str) -> int:
        """Address of a label."""
        try:
            return self.symbols[name]
        except KeyError as exc:
            raise ExecutionError(f"unknown label {name!r}") from exc

    def disassemble(self, start: int = 0, count: Optional[int] = None) -> str:
        """Human-readable listing (address, word, source)."""
        end = len(self.words) if count is None else min(len(self.words), start + count)
        rows = []
        for pc in range(start, end):
            src = self.source_lines[pc] if pc < len(self.source_lines) else ""
            rows.append(f"{pc:04x}: {self.words[pc]:05x}  {src}")
        return "\n".join(rows)
