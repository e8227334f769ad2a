"""Execution backends: resolution, sharding and the equivalence matrix.

The contract under test is the determinism guarantee of
:mod:`repro.crypto.fast.exec`: a backend changes *where* batch sweeps
run, never what they compute or the order results come back in.  The
matrix drives :func:`seal_open_many` — the one batch entry point that
takes a backend — and pins process == the inline ``*_many`` engines
byte-for-byte across GCM/CCM/GMAC, ragged length mixes, forged tags
mid-batch, both settings of the fast switch, and the no-numpy scalar
fallback — and checks backend resolution, shard/merge arithmetic and
graceful degradation besides.
"""

import random

import pytest

from repro.crypto.fast import batch as fast_batch
from repro.crypto.fast.batch import (
    ccm_open_many,
    ccm_seal_many,
    gcm_open_many,
    gcm_seal_many,
    gmac_many,
    seal_open_many,
)
from repro.crypto.fast.exec import (
    INLINE,
    InlineBackend,
    ProcessPoolBackend,
    default_backend,
    make_backend,
    resolve_backend,
    set_default_backend,
)
from repro.crypto.modes.ccm import ccm_encrypt
from repro.crypto.modes.gcm import gcm_encrypt

KEY = bytes(range(16))

#: Ragged payload mix: empty, sub-block, block-aligned, multi-block, 2 KB.
SIZES = (0, 1, 16, 33, 256, 1024, 2048, 5, 100, 47, 512, 2000)


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture(params=["process-arena"])
def pooled_backend(request, process_backend):
    return process_backend


def _gcm_packets(count=len(SIZES), seed=0x5EA1):
    rng = random.Random(seed)
    return [
        ((i + 1).to_bytes(12, "big"), rng.randbytes(SIZES[i % len(SIZES)]),
         rng.randbytes(9))
        for i in range(count)
    ]


def _ccm_packets(count=len(SIZES), seed=0x5EA2):
    rng = random.Random(seed)
    return [
        ((i + 1).to_bytes(13, "big"),
         rng.randbytes(max(1, SIZES[i % len(SIZES)])), rng.randbytes(7))
        for i in range(count)
    ]


# -- backend resolution -------------------------------------------------------


def test_make_backend_parsing():
    assert isinstance(make_backend("inline"), InlineBackend)
    assert isinstance(make_backend("process"), ProcessPoolBackend)
    assert make_backend("process:5").workers == 5
    assert make_backend("PROCESS:2").workers in (1, 2)  # 1 when degraded
    # process-arena stays an alias of process (perfbench names it).
    alias = make_backend("process-arena:2")
    assert isinstance(alias, ProcessPoolBackend) and alias.workers == 2
    backend = InlineBackend()
    assert make_backend(backend) is backend
    for deleted in ("gpu", "thread", "thread:2"):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend(deleted)
    with pytest.raises(ValueError, match="bad worker count"):
        make_backend("process:lots")
    with pytest.raises(ValueError, match="exactly one worker"):
        make_backend("inline:4")
    with pytest.raises(ValueError, match=">= 1 worker"):
        ProcessPoolBackend(0)


def test_default_backend_reads_env(monkeypatch):
    previous = set_default_backend(None)
    try:
        monkeypatch.setenv("REPRO_BACKEND", "process:2")
        backend = default_backend()
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 2
        assert resolve_backend(None) is backend  # memoized
        set_default_backend(None)
        monkeypatch.setenv("REPRO_BACKEND", "inline")
        assert isinstance(default_backend(), InlineBackend)
        set_default_backend(None)
        monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
        with pytest.raises(ValueError, match="unknown execution backend"):
            default_backend()
    finally:
        set_default_backend(previous if previous is not None else None)


def test_resolve_backend_accepts_specs_and_instances(process_backend):
    assert resolve_backend(process_backend) is process_backend
    assert isinstance(resolve_backend("process:2"), ProcessPoolBackend)


def test_shard_spans_cover_exactly_and_respect_min_shard():
    backend = ProcessPoolBackend(workers=4)
    for count in (0, 1, 3, 4, 7, 8, 15, 16, 33, 100):
        spans = backend.shard_spans(count)
        # Exact, ordered, gap-free cover of range(count).
        cursor = 0
        for start, stop in spans:
            assert start == cursor < stop
            cursor = stop
        assert cursor == count
        assert len(spans) <= 4
        if count:
            assert min(stop - start for start, stop in spans) >= min(
                4, count
            ) or len(spans) == 1
    assert backend.shard_spans(0) == []
    assert backend.shard_spans(7) == [(0, 7)]  # under 2 * min_shard
    assert backend.shard_spans(8) == [(0, 4), (4, 8)]
    assert InlineBackend().shard_spans(1000) == [(0, 1000)]
    backend.close()


def test_process_backend_degrades_to_inline_when_marked():
    backend = ProcessPoolBackend(workers=2)
    backend.inline_reason = "test-injected"
    assert backend.workers == 1
    assert backend.run([(len, (b"abc",)), (len, (b"de",))]) == [3, 2]
    backend.close()


# -- equivalence matrix -------------------------------------------------------


def test_gcm_seal_matrix(pooled_backend):
    packets = _gcm_packets()
    inline = gcm_seal_many(KEY, packets, 16)
    sealed, _ = seal_open_many(
        "gcm", KEY, packets, [], 16, backend=pooled_backend
    )
    assert sealed == inline
    for (iv, data, aad), got in zip(packets, inline):
        assert got == gcm_encrypt(KEY, iv, data, aad, 16)


def test_gcm_open_matrix_with_forged_tags(pooled_backend):
    packets = _gcm_packets()
    sealed = gcm_seal_many(KEY, packets, 16)
    forged = {3, 8}
    opens = [
        (iv, ct, bytes(16) if i in forged else tag, aad)
        for i, ((iv, _, aad), (ct, tag)) in enumerate(zip(packets, sealed))
    ]
    inline = gcm_open_many(KEY, opens)
    _, opened = seal_open_many(
        "gcm", KEY, [], opens, 16, backend=pooled_backend
    )
    assert opened == inline
    for i, plaintext in enumerate(inline):
        assert plaintext == (None if i in forged else packets[i][1])


def test_ccm_seal_open_matrix_with_forged_tag(pooled_backend):
    packets = _ccm_packets()
    inline = ccm_seal_many(KEY, packets, 8)
    sealed, _ = seal_open_many("ccm", KEY, packets, [], 8, backend=pooled_backend)
    assert sealed == inline
    for (nonce, data, aad), got in zip(packets, inline):
        assert got == ccm_encrypt(KEY, nonce, data, aad, 8)
    opens = [
        (nonce, ct, bytes(8) if i == 5 else tag, aad)
        for i, ((nonce, _, aad), (ct, tag)) in enumerate(zip(packets, inline))
    ]
    ref = ccm_open_many(KEY, opens)
    _, opened = seal_open_many("ccm", KEY, [], opens, 8, backend=pooled_backend)
    assert opened == ref
    assert ref[5] is None and ref[6] == packets[6][1]


def test_gmac_matrix(pooled_backend):
    """GMAC is a GCM seal of an empty payload; the pooled dispatch must
    return the same tags as the inline engine."""
    rng = random.Random(0x6A)
    gmac_packets = [
        ((i + 1).to_bytes(12, "big"), rng.randbytes(24)) for i in range(10)
    ]
    sealed, _ = seal_open_many(
        "gcm",
        KEY,
        [(iv, b"", aad) for iv, aad in gmac_packets],
        [],
        16,
        backend=pooled_backend,
    )
    assert [tag for _, tag in sealed] == gmac_many(KEY, gmac_packets, 16)


def test_seal_open_many_mixes_directions_in_one_pass(pooled_backend):
    packets = _gcm_packets()
    sealed_inline = gcm_seal_many(KEY, packets, 16)
    opens = [
        (iv, ct, tag, aad)
        for (iv, _, aad), (ct, tag) in zip(packets, sealed_inline)
    ]
    sealed, opened = seal_open_many(
        "gcm", KEY, packets, opens, 16, backend=pooled_backend
    )
    assert sealed == sealed_inline
    assert opened == [data for _, data, _ in packets]
    with pytest.raises(ValueError, match="unknown batch mode"):
        seal_open_many("ctr", KEY, [], [], 16)


def test_matrix_degrades_gracefully_without_numpy(monkeypatch):
    """Scalar-fallback shards must still merge byte-identically."""
    packets = _gcm_packets(count=10)
    ccm_packets = _ccm_packets(count=10)
    baseline = gcm_seal_many(KEY, packets, 16)
    ccm_baseline = ccm_seal_many(KEY, ccm_packets, 8)
    monkeypatch.setattr(fast_batch, "HAVE_NUMPY", False)
    assert gcm_seal_many(KEY, packets, 16) == baseline
    # A fresh pool: forked workers inherit the patched module.
    with ProcessPoolBackend(workers=2) as backend:
        sealed, _ = seal_open_many("gcm", KEY, packets, [], 16, backend=backend)
        assert sealed == baseline
        sealed, _ = seal_open_many(
            "ccm", KEY, ccm_packets, [], 8, backend=backend
        )
        assert sealed == ccm_baseline


def test_worker_errors_propagate(pooled_backend):
    """A crypto error raised inside a shard must reach the caller."""
    packets = _ccm_packets(count=12)
    packets[10] = (bytes(16), b"payload", b"")  # 16-byte nonce: invalid
    with pytest.raises(Exception, match="[Nn]once"):
        seal_open_many("ccm", KEY, packets, [], 8, backend=pooled_backend)


def test_inline_singleton_guards_recursion():
    """The INLINE singleton never shards: a dispatch on it is the inline
    engines' result."""
    assert INLINE.workers == 1
    packets = _gcm_packets(count=9)
    sealed, _ = seal_open_many("gcm", KEY, packets, [], 16, backend=INLINE)
    assert sealed == gcm_seal_many(KEY, packets, 16)


def test_ccm_shards_never_reenter_a_saturated_default_pool():
    """Regression: CCM's inline body calls cbc_mac_many, which must
    not resolve the process-default pool — a shard worker submitting
    sub-shards to its own saturated pool deadlocks forever.  The
    engines take no backend, so a shard can never reach one."""
    import threading

    previous = set_default_backend("process:2")
    try:
        pool = resolve_backend(None)
        packets = _ccm_packets(count=32)
        outcome = {}

        def work():
            outcome["sealed"], _ = seal_open_many(
                "ccm", KEY, packets, [], 8, backend=pool
            )

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), (
            "seal_open_many deadlocked re-entering its own pool"
        )
        assert outcome["sealed"] == ccm_seal_many(KEY, packets, 8)
    finally:
        set_default_backend(previous).close()


def test_spec_string_resolution_is_memoized():
    """Stored spec strings must reuse one pool, not leak one per call
    (CommController stores the spec and resolves it every dispatch)."""
    first = resolve_backend("process:2")
    assert resolve_backend("process:2") is first
    assert resolve_backend("PROCESS:2") is first  # normalised
    assert resolve_backend("process:3") is not first
    # Explicit instances still pass through untouched.
    mine = ProcessPoolBackend(2)
    assert resolve_backend(mine) is mine
    mine.close()
