"""The crypto engine: everything the system runs calls it by name.

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
  (``ctr_stream``, ``gcm_seal``/``gcm_open``, ``ccm_seal``/``ccm_open``),
  the per-packet path the dataplane fuzzer and perfbench check against.

Every engine path is byte-identical to the reference in
:mod:`repro.crypto`, which imports nothing from here; the test suite
cross-checks the two on the published NIST vectors and randomized
messages.  The digit-serial GHASH multiplier, the hardware *cycle
model*, stays in :mod:`repro.crypto.gf128`.
"""

from __future__ import annotations

import os

from repro.crypto.fast.aes_ttable import encrypt_block_tt, expand_key_cached
from repro.crypto.fast.aes_vector import clear_vector_caches
from repro.crypto.fast.gf128_tables import gf128_mul_tabulated, ghash_tables
from repro.crypto.fast.ghash_hpower import (
    clear_hpower_caches,
    ghash_blocks_hpower,
    hpower_tables,
    hpower_tables_vec,
)
from repro.crypto.fast.bulk import (
    cbc_mac_fast,
    ccm_open,
    ccm_seal,
    ctr_stream,
    gcm_open,
    gcm_seal,
)
from repro.crypto.fast.arena import PacketArena
from repro.crypto.fast.batch import (
    cbc_mac_many,
    ccm_open_many,
    ccm_seal_many,
    gcm_open_many,
    gcm_seal_many,
    gmac_many,
    seal_open_many,
)
from repro.crypto.fast.exec import (
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    default_backend,
    make_backend,
    resolve_backend,
    set_default_backend,
)


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


__all__ = [
    "clear_caches",
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
