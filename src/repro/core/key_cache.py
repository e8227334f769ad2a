"""The per-core round-key cache (paper sections III.A and IV.A).

Round keys are pre-computed by the MCCP's Key Scheduler from session
keys held in the write-protected Key Memory and deposited here; the
Cryptographic Unit's AES core only ever reads expanded schedules.  The
cache never exposes the session key itself — mirroring the paper's
security property that "there is no way to get the secret session key
directly from the MCCP data port".
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import KeyStoreError

#: An expanded schedule, immutable: the AES core's counter-run readahead
#: recognises a run by the schedule object's identity.
RoundKeys = Tuple[Tuple[int, ...], ...]


class KeyCache:
    """Holds one expanded AES key schedule for a core."""

    def __init__(self, name: str = "keycache"):
        self.name = name
        self._round_keys: Optional[RoundKeys] = None
        self._key_bits: Optional[int] = None
        self._key_id: Optional[int] = None
        #: How many times a schedule was installed (reload statistics).
        self.loads = 0

    @property
    def loaded(self) -> bool:
        """Whether a schedule is present."""
        return self._round_keys is not None

    @property
    def key_bits(self) -> int:
        """Key size of the cached schedule."""
        if self._key_bits is None:
            raise KeyStoreError(f"{self.name}: no key schedule loaded")
        return self._key_bits

    @property
    def key_id(self) -> Optional[int]:
        """Session-key id the schedule was derived from (None if unset)."""
        return self._key_id

    def install(
        self,
        round_keys: Sequence[Sequence[int]],
        key_bits: int,
        key_id: Optional[int] = None,
    ) -> None:
        """Deposit an expanded schedule (Key Scheduler's job)."""
        rounds = {128: 10, 192: 12, 256: 14}.get(key_bits)
        if rounds is None:
            raise KeyStoreError(f"{self.name}: unsupported key size {key_bits}")
        if len(round_keys) != rounds + 1:
            raise KeyStoreError(
                f"{self.name}: schedule has {len(round_keys)} round keys, "
                f"expected {rounds + 1} for {key_bits}-bit keys"
            )
        self._round_keys = tuple(tuple(rk) for rk in round_keys)  # one object per install
        self._key_bits = key_bits
        self._key_id = key_id
        self.loads += 1

    def round_keys(self) -> RoundKeys:
        """The cached schedule (the CU's key provider hook)."""
        if self._round_keys is None:
            raise KeyStoreError(f"{self.name}: no key schedule loaded")
        return self._round_keys

    def invalidate(self) -> None:
        """Drop the schedule (channel close / key rollover hygiene)."""
        self._round_keys = None
        self._key_bits = None
        self._key_id = None
