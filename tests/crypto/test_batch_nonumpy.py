"""Pure-Python fallbacks of the batch paths, without numpy.

CI runs the whole suite in a no-numpy job; these tests mirror that
locally by blocking ``import numpy`` behind a monkeypatched import
guard and reloading the numpy-gated modules, so the scalar fallbacks
are exercised even on machines where numpy is installed.
"""

import builtins
import importlib
import random

import pytest

import repro.crypto.fast.aes_vector as aes_vector_module
import repro.crypto.fast.batch as batch_module
import repro.crypto.fast.ghash_hpower as hpower_module

_GATED_MODULES = (aes_vector_module, hpower_module, batch_module)


@pytest.fixture
def no_numpy(monkeypatch):
    """Reload the numpy-gated fast modules with numpy unimportable."""
    real_import = builtins.__import__

    def guarded(name, *args, **kwargs):
        if name == "numpy":
            raise ImportError("numpy blocked by no_numpy fixture")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", guarded)
    for module in _GATED_MODULES:
        importlib.reload(module)
    assert not batch_module.HAVE_NUMPY
    yield
    monkeypatch.undo()
    for module in _GATED_MODULES:
        importlib.reload(module)
    # Reloading replaces the module dict in place, so previously
    # imported references keep working; just sanity-check the flag
    # against what an import actually does (in the CI no-numpy job
    # numpy stays unimportable, so the gate must stay off).
    try:
        import numpy  # noqa: F401

        numpy_importable = True
    except ImportError:
        numpy_importable = False
    assert aes_vector_module.HAVE_NUMPY == numpy_importable


def test_batch_seal_open_pure_python(no_numpy):
    rng = random.Random(0x90)
    key = rng.randbytes(16)
    packets = [
        (rng.randbytes(12), rng.randbytes(rng.choice((0, 33, 64, 200))), b"hdr")
        for _ in range(9)
    ]
    from repro.crypto.modes.gcm import gcm_encrypt

    sealed = batch_module.gcm_seal_many(key, packets)
    assert sealed == [
        gcm_encrypt(key, iv, d, a, 16, use_fast=False) for iv, d, a in packets
    ]
    bad_tag = bytes(16)
    opened = batch_module.gcm_open_many(
        key,
        [
            (iv, ct, bad_tag if index == 2 else tag, a)
            for index, ((iv, d, a), (ct, tag)) in enumerate(zip(packets, sealed))
        ],
    )
    assert opened[2] is None
    assert [o for index, o in enumerate(opened) if index != 2] == [
        d for index, (_, d, _) in enumerate(packets) if index != 2
    ]

    from repro.crypto.modes.ccm import ccm_encrypt

    cpackets = [(rng.randbytes(13), d, a) for _, d, a in packets]
    csealed = batch_module.ccm_seal_many(key, cpackets, 8)
    assert csealed == [
        ccm_encrypt(key, nonce, d, a, 8, use_fast=False) for nonce, d, a in cpackets
    ]
    copened = batch_module.ccm_open_many(
        key,
        [(n, ct, tag, a) for (n, d, a), (ct, tag) in zip(cpackets, csealed)],
    )
    assert copened == [d for _, d, _ in cpackets]


def test_cbc_mac_round_robin_lanes(no_numpy):
    from repro.crypto.fast.bulk import cbc_mac_fast

    rng = random.Random(0x91)
    key = rng.randbytes(32)
    messages = [rng.randbytes(16 * rng.randrange(1, 9)) for _ in range(11)]
    assert batch_module.cbc_mac_many(key, messages) == [
        cbc_mac_fast(key, m) for m in messages
    ]


def test_hpower_dispatch_and_scalar_fold(no_numpy):
    from repro.crypto.fast.gf128_tables import ghash_blocks_tabulated

    rng = random.Random(0x92)
    h = rng.getrandbits(128)
    data = rng.randbytes(16 * 40)
    expected = ghash_blocks_tabulated(h, 5, data)
    # Dispatcher falls back to the serial chain without numpy...
    assert hpower_module.ghash_blocks_hpower(h, 5, data) == expected
    # ...and the explicit scalar fold still folds correctly.
    assert hpower_module._fold_python(h, 5, data, 8) == expected
    with pytest.raises(RuntimeError):
        hpower_module.hpower_tables_vec(h, 4)


def test_fused_keystream_scalar_fallback(no_numpy):
    from repro.crypto.fast.bulk import ctr_stream

    rng = random.Random(0x93)
    key = rng.randbytes(16)
    specs = [(rng.getrandbits(128), 32, n) for n in (0, 1, 5)]
    streams = batch_module._fused_keystream(
        batch_module.expand_key_cached(key), specs
    )
    assert streams == [
        ctr_stream(key, c0.to_bytes(16, "big"), n, bits) for c0, bits, n in specs
    ]



def test_ccm_groups_scalar_fallback(no_numpy):
    """Several keys' CCM groups, lane totals on both sides of MIN_LANES."""
    from repro.crypto.fast.bulk import ccm_open, ccm_seal

    rng = random.Random(0x94)
    for count, lanes in ((1, 1), (3, 2), (6, batch_module.MIN_LANES)):
        keys = [rng.randbytes(rng.choice((16, 24, 32))) for _ in range(count)]
        groups, expected = [], []
        for index, key in enumerate(keys[:1] + keys[:-1]):  # a key twice
            seals = [
                (rng.randbytes(13), rng.randbytes(rng.choice((0, 17, 40))), b"h")
                for _ in range(lanes - lanes // 2)
            ]
            sealed = [ccm_seal(key, n, d, a, 8) for n, d, a in seals]
            opens = [
                (n, ct, tag if lane % 2 else bytes(8), a)
                for lane, ((n, _d, a), (ct, tag)) in enumerate(zip(seals, sealed))
            ][: lanes // 2]
            groups.append((key, seals, opens, 8))
            expected.append((
                sealed,
                [
                    ccm_open(key, n, ct, tag, a) if lane % 2 else None
                    for lane, (n, ct, tag, a) in enumerate(opens)
                ],
            ))
        assert batch_module._ccm_seal_open_groups(groups) == expected


def test_gcm_groups_and_ghash_lanes_scalar_fallback(no_numpy):
    """Several keys' GCM groups and the GHASH lanes, without numpy."""
    from repro.crypto.fast.gf128_tables import ghash_blocks_tabulated
    from tests.crypto.test_gcm_groups import make_groups, one_call

    groups = make_groups(3, batch_module.MIN_LANES, seed=0x95)
    assert batch_module._gcm_seal_open_groups(groups) == [one_call(g) for g in groups]
    rng = random.Random(0x96)
    subkeys = [rng.getrandbits(128) for _ in range(3)]
    messages = [rng.randbytes(16 * n) for n in (0, 1, 20)]
    assert hpower_module.ghash_lanes(subkeys, messages) == [
        ghash_blocks_tabulated(h, 0, m) for h, m in zip(subkeys, messages)
    ]
