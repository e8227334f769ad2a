"""The reconfigurable region hosting the Cryptographic Unit.

Paper section VII.B: "The reconfigurable area embeds 1280 slices and 16
BRAM."  A module only loads if it fits; loading while the hosting core
is busy is refused (the paper notes reconfiguration of one part does
not prevent others from working — but the part being reconfigured is
obviously unusable meanwhile).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RegionCapacityError
from repro.reconfig.bitstream import Bitstream

REGION_SLICES = 1280
REGION_BRAMS = 16


class ReconfigurableRegion:
    """Capacity tracking for one core's CU slot."""

    def __init__(
        self,
        core_index: int,
        slices: int = REGION_SLICES,
        brams: int = REGION_BRAMS,
    ):
        self.core_index = core_index
        self.slices = slices
        self.brams = brams
        self.loaded: Optional[Bitstream] = None

    def check_fit(self, bitstream: Bitstream) -> None:
        """Raise unless *bitstream* fits the region."""
        if bitstream.slices > self.slices or bitstream.brams > self.brams:
            raise RegionCapacityError(
                f"module {bitstream.name!r} needs {bitstream.slices} slices / "
                f"{bitstream.brams} BRAM; region {self.core_index} has "
                f"{self.slices} / {self.brams}"
            )

    def load(self, bitstream: Bitstream) -> None:
        """Install *bitstream* (capacity already checked by the manager)."""
        self.check_fit(bitstream)
        self.loaded = bitstream

    @property
    def utilisation(self) -> float:
        """Slice utilisation of the currently loaded module."""
        return (self.loaded.slices / self.slices) if self.loaded else 0.0
