"""The GHASH lookup tables themselves, pinned against oracles.

The fold and chain tests only see tables through GHASH outputs; these
check every entry.  The scalar Shoup tables are pinned to the
bit-serial reference multiplier, and the numpy H-power tables to a
packing of the scalar tables of each power ``H^p``, one entry at a
time.
"""

import random

import pytest

# Attribute access for the hpower module: the no-numpy suite reloads it.
import repro.crypto.fast.ghash_hpower as hpower
from repro.crypto.fast.gf128_tables import build_ghash_tables
from repro.crypto.gf128 import MASK128, gf128_mul

_rng = random.Random(0x7AB1E)
SUBKEYS = (0, 1, 1 << 127, MASK128, *(_rng.getrandbits(128) for _ in range(2)))
FOLDS = (1, 2, 17, hpower.DEFAULT_FOLD, 64)
MASK64 = (1 << 64) - 1

needs_numpy = pytest.mark.skipif(not hpower.HAVE_NUMPY, reason="numpy H-power tables")


def _packed_oracle(h, k):
    """Pack each entry of ``build_ghash_tables(H^p)`` into numpy."""
    import numpy as np

    hi = np.empty((k, 16, 256), dtype=np.uint64)
    lo = np.empty((k, 16, 256), dtype=np.uint64)
    for index, power in enumerate(hpower._powers(h, k)):
        flat = [value for row in build_ghash_tables(power) for value in row]
        hi[index] = np.array([v >> 64 for v in flat], dtype=np.uint64).reshape(16, 256)
        lo[index] = np.array([v & MASK64 for v in flat], dtype=np.uint64).reshape(16, 256)
    return hi, lo


@pytest.mark.parametrize("h", SUBKEYS, ids=hex)
def test_shoup_tables_match_reference_multiplier(h):
    tables = build_ghash_tables(h)
    assert len(tables) == 16
    for pos, row in enumerate(tables):
        assert len(row) == 256
        for b, entry in enumerate(row):
            assert entry == gf128_mul(b << 8 * (15 - pos), h), (pos, b)


def test_shoup_tables_reject_out_of_range_subkeys():
    for bad in (-1, MASK128 + 1):
        with pytest.raises(ValueError):
            build_ghash_tables(bad)


@needs_numpy
@pytest.mark.parametrize("k", FOLDS)
@pytest.mark.parametrize("h", SUBKEYS, ids=hex)
def test_hpower_tables_vec_match_packed_scalar_tables(h, k):
    import numpy as np

    hi, lo = hpower.hpower_tables_vec(h, k)
    want_hi, want_lo = _packed_oracle(h, k)
    assert hi.dtype == lo.dtype == np.uint64
    assert np.array_equal(hi, want_hi)
    assert np.array_equal(lo, want_lo)


@needs_numpy
def test_default_fold_entry_fits_two_mib():
    hi, lo = hpower.hpower_tables_vec(SUBKEYS[-1], hpower.DEFAULT_FOLD)
    assert hi.nbytes + lo.nbytes <= 2 * 1024 * 1024
