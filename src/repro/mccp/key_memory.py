"""The write-protected session Key Memory (paper section III.A).

Session keys are generated and written by the *main controller* of the
platform, never by the MCCP: "the Key Memory cannot be accessed in
write mode by the MCCP.  In addition, there is no way to get the secret
session key directly from the MCCP data port."  The model enforces both
properties: writes go through a distinct main-controller handle and
reads are only served to the Key Scheduler.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.errors import KeyStoreError


class KeyMemory:
    """Session-key store with a write-capability handle."""

    def __init__(self, slots: int = 32):
        if slots <= 0:
            raise KeyStoreError("key memory needs at least one slot")
        self.slots = slots
        self._keys: Dict[int, bytes] = {}
        self._sealed = False
        #: Read counter per key id (audit trail).
        self.read_counts: Dict[int, int] = {}
        # The audit trail must stay exact when several threads fetch
        # keys — channels may share a key id, and an unlocked
        # read-modify-write would lose counts.
        self._read_lock = threading.Lock()

    # -- main-controller (red side) interface --------------------------------

    def load_key(self, key_id: int, key: bytes) -> None:
        """Install a session key (main controller only)."""
        if self._sealed:
            raise KeyStoreError("key memory is sealed; no further writes")
        if not 0 <= key_id < self.slots:
            raise KeyStoreError(f"key id {key_id} out of range (slots={self.slots})")
        if len(key) not in (16, 24, 32):
            raise KeyStoreError(f"key must be 16/24/32 bytes, got {len(key)}")
        self._keys[key_id] = bytes(key)

    def seal(self) -> None:
        """Lock the memory against further writes (mission start)."""
        self._sealed = True

    # -- key-scheduler interface ----------------------------------------------

    def fetch_for_scheduler(self, key_id: int) -> bytes:
        """Serve a key to the Key Scheduler (the only reader)."""
        try:
            key = self._keys[key_id]
        except KeyError as exc:
            raise KeyStoreError(f"no session key with id {key_id}") from exc
        with self._read_lock:
            self.read_counts[key_id] = self.read_counts.get(key_id, 0) + 1
        return key

    def key_bits(self, key_id: int) -> int:
        """Key size in bits for *key_id* (metadata is not secret)."""
        try:
            return 8 * len(self._keys[key_id])
        except KeyError as exc:
            raise KeyStoreError(f"no session key with id {key_id}") from exc

    def has_key(self, key_id: int) -> bool:
        """Whether a key is present."""
        return key_id in self._keys

    def __contains__(self, key_id: int) -> bool:
        return self.has_key(key_id)

    def __repr__(self) -> str:  # pragma: no cover - never leak key material
        return f"KeyMemory(slots={self.slots}, loaded={sorted(self._keys)})"
