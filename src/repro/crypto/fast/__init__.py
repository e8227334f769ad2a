"""The fast-path bulk crypto engine.

The reference implementations in :mod:`repro.crypto` mirror the paper's
hardware organisation (iterative byte-wise AES rounds, bit-serial and
digit-serial GF(2^128) multipliers) and stay deliberately readable; that
costs two to three orders of magnitude against what software AES-GCM can
do.  This subpackage is the software analogue of the silicon the MCCP
deploys:

- :mod:`repro.crypto.fast.aes_ttable` — T-table AES operating on four
  32-bit column words (Chodowiec & Gaj lineage, the same organisation
  the paper's AES core implements in FPGA LUTs), plus an LRU-memoized
  key expansion so repeated channel traffic never re-expands.
- :mod:`repro.crypto.fast.aes_vector` — an optional numpy-vectorised
  bulk counter-mode engine that encrypts every counter block of a
  message in one batched sweep (gated: pure-Python fallback when numpy
  is absent).
- :mod:`repro.crypto.fast.gf128_tables` — tabulated GF(2^128)
  multiplication via per-subkey Shoup byte tables, the software
  analogue of the Lemsitzer-style digit-serial multiplier the GHASH
  core models.
- :mod:`repro.crypto.fast.bulk` — one-call whole-message APIs
  (``ctr_stream``, ``gcm_seal``/``gcm_open``, ``ccm_seal``/``ccm_open``)
  that the modes, the baselines and the firmware reference checks all
  route through.

Every fast path is byte-identical to the reference path; the test suite
cross-checks them on the published NIST vectors and randomized messages.

Switching
---------
``REPRO_FAST=0`` in the environment (or :func:`set_fast` at run time,
or ``use_fast=False`` on the individual APIs) falls back to the
reference implementations for auditability.  The digit-serial GHASH
path used as the hardware *cycle model* is never replaced — only the
functional math is accelerated.
"""

from __future__ import annotations

import os
from typing import Optional

#: Values of ``REPRO_FAST`` that disable the fast engine.
_FALSY = ("0", "false", "no", "off")

#: Process-wide fast-path switch, seeded from the environment.
FAST_ENABLED = os.environ.get("REPRO_FAST", "1").strip().lower() not in _FALSY


def fast_enabled(override: Optional[bool] = None) -> bool:
    """Resolve a per-call ``use_fast`` override against the global switch."""
    if override is None:
        return FAST_ENABLED
    return bool(override)


def set_fast(enabled: bool) -> bool:
    """Flip the process-wide fast-path switch; returns the previous value."""
    global FAST_ENABLED
    previous = FAST_ENABLED
    FAST_ENABLED = bool(enabled)
    return previous


def clear_caches() -> None:
    """Drop the process-global memo caches (isolation hook).

    The key-schedule LRU, the per-subkey Shoup tables and the H-power
    table sets are warm-path optimisations shared by every workload in
    a process.  All of them are bounded LRUs (see the ``*_SLOTS``
    constants next to each cache), so key churn cannot grow memory
    without limit; this hook additionally empties them outright.
    """
    expand_key_cached.cache_clear()
    ghash_tables.cache_clear()
    clear_hpower_caches()
    clear_vector_caches()


if hasattr(os, "register_at_fork"):
    # Fork safety: a child must never inherit a parent LRU that a
    # sibling thread had mid-mutation (ProcessPoolBackend may fork
    # while another thread is warming caches).  Children start cold and
    # rebuild lazily; the pool initializer repeats this for spawn-based
    # pools, where there is no fork to hook.
    os.register_at_fork(after_in_child=clear_caches)


def encrypt_block_dispatch(block, round_keys, use_fast: Optional[bool] = None):
    """Encrypt one block via the T-table or reference path per the switch."""
    if fast_enabled(use_fast):
        return encrypt_block_tt(block, round_keys)
    from repro.crypto.aes import encrypt_block_with_schedule

    return encrypt_block_with_schedule(block, round_keys)


def expand_key_dispatch(key: bytes, use_fast: Optional[bool] = None):
    """Expand *key* via the LRU memo or the plain reference expansion."""
    if fast_enabled(use_fast):
        return expand_key_cached(bytes(key))
    from repro.crypto.aes import expand_key

    return expand_key(key)


from repro.crypto.fast.aes_ttable import (  # noqa: E402
    encrypt_block_tt,
    expand_key_cached,
)
from repro.crypto.fast.aes_vector import clear_vector_caches  # noqa: E402
from repro.crypto.fast.gf128_tables import (  # noqa: E402
    gf128_mul_tabulated,
    ghash_tables,
)
from repro.crypto.fast.ghash_hpower import (  # noqa: E402
    clear_hpower_caches,
    ghash_blocks_hpower,
    hpower_tables,
    hpower_tables_vec,
)
from repro.crypto.fast.bulk import (  # noqa: E402
    cbc_mac_fast,
    ccm_open,
    ccm_seal,
    ctr_stream,
    gcm_open,
    gcm_seal,
)
from repro.crypto.fast.arena import PacketArena  # noqa: E402
from repro.crypto.fast.batch import (  # noqa: E402
    cbc_mac_many,
    ccm_open_many,
    ccm_seal_many,
    gcm_open_many,
    gcm_seal_many,
    gmac_many,
    seal_open_many,
)
from repro.crypto.fast.exec import (  # noqa: E402
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    default_backend,
    make_backend,
    resolve_backend,
    set_default_backend,
)

__all__ = [
    "FAST_ENABLED",
    "fast_enabled",
    "set_fast",
    "clear_caches",
    "encrypt_block_dispatch",
    "expand_key_dispatch",
    "encrypt_block_tt",
    "expand_key_cached",
    "gf128_mul_tabulated",
    "ghash_tables",
    "ghash_blocks_hpower",
    "hpower_tables",
    "hpower_tables_vec",
    "cbc_mac_fast",
    "ccm_seal",
    "ccm_open",
    "ctr_stream",
    "gcm_seal",
    "gcm_open",
    "cbc_mac_many",
    "ccm_seal_many",
    "ccm_open_many",
    "gcm_seal_many",
    "gcm_open_many",
    "gmac_many",
    "seal_open_many",
    "PacketArena",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "make_backend",
    "resolve_backend",
    "default_backend",
    "set_default_backend",
]
