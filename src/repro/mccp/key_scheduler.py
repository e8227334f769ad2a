"""The Key Scheduler (paper sections III.A and VI.B).

"Before launching the key scheduling, the Task Scheduler loads the
session key ID into the Key Scheduler which gets the right session key
from the Key Memory" and expands it into the target core's key cache.

The FIPS-197 schedule produces ``4 * (rounds + 1)`` 32-bit words
through a 32-bit datapath (:attr:`TimingModel.key_schedule_word_cycles`
cycles each; :meth:`KeyScheduler.schedule_cycles`).  Round keys land in
the core's cache *before* the core starts, off the per-packet critical
path — exactly why the paper pre-computes them — so the device model
installs them in zero simulated time, and the session layer charges the
expansion cycles at setup, handoff and rekey
(:meth:`repro.radio.sessions.SessionManager._expansion_delay`).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.key_cache import KeyCache
from repro.crypto.aes import ROUNDS_BY_KEY_BYTES
# Dispatched expansion: LRU-memoized T-table-engine schedule when the
# fast path is on, plain FIPS-197 reference otherwise.  The *charged*
# cycles are unaffected — only the host-side computation is memoized.
from repro.crypto.fast import expand_key_dispatch as expand_key
from repro.mccp.key_memory import KeyMemory
from repro.unit.timing import TimingModel


class KeyScheduler:
    """Expands session keys into core key caches."""

    def __init__(self, key_memory: KeyMemory, timing: TimingModel):
        self.key_memory = key_memory
        self.timing = timing
        #: (key_id -> expanded schedule) memo so re-keying an already
        #: scheduled channel is free, as a small hardware cache would be.
        self._memo: Dict[int, Tuple[list, int]] = {}
        #: Total expansions performed (cache-miss counter).
        self.expansions = 0

    def schedule_cycles(self, key_bits: int) -> int:
        """Cycles to expand a key of *key_bits* bits."""
        rounds = ROUNDS_BY_KEY_BYTES[key_bits // 8]
        words = 4 * (rounds + 1)
        return words * self.timing.key_schedule_word_cycles

    def invalidate(self, key_id: int) -> bool:
        """Drop the memoized schedule for *key_id* (rekey hook).

        Rewriting key material in the key memory must be paired with
        this, or subsequent loads would install the *old* round keys
        from the memo.  Returns whether a memo entry existed.  The
        batch engine's schedule and GHASH caches need no such hook:
        they are keyed by key bytes, so new key material misses them.
        """
        return self._memo.pop(key_id, None) is not None

    def load_sync(self, key_id: int, cache: KeyCache) -> int:
        """Install key *key_id*'s round keys into *cache*; returns its bits.

        The device model's key install, in zero simulated time: the
        expansion cycles are charged by the session layer, not on the
        core path (module docstring).  Memoized per key until
        :meth:`invalidate`.
        """
        if key_id in self._memo:
            round_keys, key_bits = self._memo[key_id]
        else:
            key = self.key_memory.fetch_for_scheduler(key_id)
            round_keys = expand_key(key)
            key_bits = 8 * len(key)
            self._memo[key_id] = (round_keys, key_bits)
            self.expansions += 1
        cache.install(round_keys, key_bits, key_id)
        return key_bits
