"""Bitstreams and bitstream stores (Table IV).

Table IV gives, for each module, the bitstream size and the measured
reconfiguration times from two stores::

    module      slices  BRAM  size   from CF   from RAM
    AES (+KS)   351     4     89 kB  380 ms    63 ms
    Whirlpool   1153    4     97 kB  416 ms    69 ms

Those measurements imply effective store bandwidths of roughly
89kB/380ms ≈ 234 kB/s (CompactFlash) and 89kB/63ms ≈ 1.41 MB/s (RAM),
with the ratio between modules matching their sizes — so the model is
``time = size / bandwidth``, and it reproduces all four cells of the
table to within a few percent.  The paper's conclusion that "caching of
bitstream is needed to obtain the best performance" is the CF-vs-RAM
gap, which :class:`repro.reconfig.manager.ReconfigManager` exposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.errors import BitstreamError

KB = 1000  # bitstream sizes in the paper are decimal kilobytes


class StoreKind(enum.Enum):
    """Where bitstreams are kept, with effective read bandwidth."""

    COMPACT_FLASH = "compact_flash"
    RAM = "ram"


#: Effective bandwidths (bytes per second) derived from Table IV.
STORE_BANDWIDTH_BPS = {
    StoreKind.COMPACT_FLASH: 89 * KB / 0.380,   # ≈ 234 kB/s
    StoreKind.RAM: 89 * KB / 0.063,             # ≈ 1.41 MB/s
}


@dataclass(frozen=True)
class Bitstream:
    """One partial bitstream for the CU region."""

    name: str
    size_bytes: int
    slices: int
    brams: int
    #: Which CU personality it loads ("aes" / "whirlpool").
    personality: str


#: The two modules of Table IV.
MODULE_LIBRARY: Dict[str, Bitstream] = {
    "aes": Bitstream("aes", 89 * KB, slices=351, brams=4, personality="aes"),
    "whirlpool": Bitstream(
        "whirlpool", 97 * KB, slices=1153, brams=4, personality="whirlpool"
    ),
}


class BitstreamStore:
    """A bitstream repository with a read-bandwidth model."""

    def __init__(self, kind: StoreKind, clock_hz: float = 190e6):
        self.kind = kind
        self.clock_hz = clock_hz
        self._bitstreams: Dict[str, Bitstream] = dict(MODULE_LIBRARY)

    def add(self, bitstream: Bitstream) -> None:
        """Register an extra module bitstream."""
        self._bitstreams[bitstream.name] = bitstream

    def get(self, name: str) -> Bitstream:
        """Fetch bitstream metadata."""
        try:
            return self._bitstreams[name]
        except KeyError as exc:
            raise BitstreamError(f"no bitstream named {name!r}") from exc

    def load_seconds(self, name: str) -> float:
        """Reconfiguration time in seconds (Table IV reproduction)."""
        bitstream = self.get(name)
        return bitstream.size_bytes / STORE_BANDWIDTH_BPS[self.kind]

    def load_cycles(self, name: str) -> int:
        """Reconfiguration time in MCCP clock cycles."""
        return int(self.load_seconds(name) * self.clock_hz)
