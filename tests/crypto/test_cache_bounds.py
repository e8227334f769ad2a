"""The fast engine's memo caches are bounded and clearable.

Key-churn workloads cycle through arbitrarily many session keys; every
process-global memo in ``repro.crypto.fast`` must therefore be a
bounded LRU (eviction, not growth) and must be dropped wholesale by
``clear_caches`` (the isolation hook forked workers run).
"""

import random

# Attribute access (not from-imports) for the hpower cache wrappers:
# the no-numpy suite reloads that module, and a from-imported wrapper
# would go stale while clear_caches clears the reloaded one.
import repro.crypto.fast.aes_vector as aes_vector
import repro.crypto.fast.ghash_hpower as hpower
from repro.crypto.fast import clear_caches
from repro.crypto.fast.aes_ttable import expand_key_cached
from repro.crypto.fast.gf128_tables import GHASH_TABLE_SLOTS, ghash_tables

HPOWER_SLOTS = hpower.HPOWER_SLOTS


def test_all_memo_caches_declare_a_bound():
    caches = [
        expand_key_cached,
        ghash_tables,
        hpower.hpower_tables,
        hpower.hpower_tables_vec,
    ]
    if aes_vector.HAVE_NUMPY:
        caches.append(aes_vector._round_keys_array)
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache.__name__


def test_ghash_table_cache_evicts_under_key_churn():
    clear_caches()
    rng = random.Random(0xE71C)
    for _ in range(GHASH_TABLE_SLOTS + 16):
        ghash_tables(rng.getrandbits(128))
    info = ghash_tables.cache_info()
    assert info.currsize <= GHASH_TABLE_SLOTS


def test_hpower_caches_evict_under_key_churn():
    clear_caches()
    rng = random.Random(0xE72C)
    subkeys = [rng.getrandbits(128) for _ in range(HPOWER_SLOTS + 3)]
    for h in subkeys:
        hpower.hpower_tables(h, 4)
    assert hpower.hpower_tables.cache_info().currsize <= HPOWER_SLOTS
    if hpower.HAVE_NUMPY:
        for h in subkeys:
            hpower.hpower_tables_vec(h, 4)
        assert hpower.hpower_tables_vec.cache_info().currsize <= HPOWER_SLOTS


def test_clear_caches_covers_every_table():
    key = bytes(range(16))
    h = 0x1234
    expand_key_cached(key)
    ghash_tables(h)
    hpower.hpower_tables(h, 2)
    if hpower.HAVE_NUMPY:
        hpower.hpower_tables_vec(h, 2)
    if aes_vector.HAVE_NUMPY:
        aes_vector._round_keys_array(expand_key_cached(key))
    clear_caches()
    assert expand_key_cached.cache_info().currsize == 0
    assert ghash_tables.cache_info().currsize == 0
    assert hpower.hpower_tables.cache_info().currsize == 0
    assert hpower.hpower_tables_vec.cache_info().currsize == 0
    if aes_vector.HAVE_NUMPY:
        assert aes_vector._round_keys_array.cache_info().currsize == 0


def test_eviction_does_not_change_results():
    # An evicted-and-rebuilt table must be identical to the original.
    clear_caches()
    h = 0xDEAD_BEEF_0000_0000_0000_0000_0000_0001
    first = hpower.hpower_tables(h, 3)
    rng = random.Random(0xE73C)
    for _ in range(HPOWER_SLOTS + 2):
        hpower.hpower_tables(rng.getrandbits(128), 3)
    assert hpower.hpower_tables(h, 3) == first
