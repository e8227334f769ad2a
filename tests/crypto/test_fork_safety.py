"""Fork safety of the fast-path memo caches.

The key-schedule LRU, the Shoup tables and the H-power table sets are
process-global.  A fork taken while another thread is warming one of
them could hand the child a cache mid-mutation; the ``os.register_at_fork`` hook in
:mod:`repro.crypto.fast` therefore clears every cache in the child, and
:class:`repro.crypto.fast.exec.ProcessPoolBackend` repeats the clear in
its pool initializer (covering spawn-based pools, which never fork).
Workers rebuild lazily and still produce byte-identical results.
"""

import os
import pickle

import pytest

from repro.crypto.fast import clear_caches, expand_key_cached, gcm_seal_many
from repro.crypto.fast.exec import ProcessPoolBackend
from repro.crypto.fast.gf128_tables import ghash_tables

KEY = bytes(range(16))


def _cache_sizes() -> dict:
    return {
        "key_schedules": expand_key_cached.cache_info().currsize,
        "ghash_tables": ghash_tables.cache_info().currsize,
    }


def _warm_caches() -> None:
    expand_key_cached(KEY)
    gcm_seal_many(KEY, [(bytes(12), b"warm the tables")])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
def test_forked_child_starts_with_cold_caches():
    """register_at_fork must empty every LRU in the child."""
    _warm_caches()
    assert _cache_sizes()["key_schedules"] >= 1
    parent_result = gcm_seal_many(KEY, [(bytes(12), b"payload", b"aad")])

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process exits below
        status = 1
        try:
            sizes = _cache_sizes()
            # Cold caches, and the crypto still rebuilds correctly.
            child_result = gcm_seal_many(KEY, [(bytes(12), b"payload", b"aad")])
            payload = pickle.dumps((sizes, child_result))
            os.write(write_fd, payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    while chunk := os.read(read_fd, 65536):
        chunks.append(chunk)
    os.close(read_fd)
    _, exit_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(exit_status) == 0
    sizes, child_result = pickle.loads(b"".join(chunks))
    assert sizes == {"key_schedules": 0, "ghash_tables": 0}
    assert child_result == parent_result
    # The parent's warm caches are untouched by the child's clear.
    assert _cache_sizes()["key_schedules"] >= 1


def _worker_cache_probe(key: bytes):
    """Top-level (picklable) probe: cache state + a fresh computation."""
    from repro.crypto.fast import expand_key_cached as cached
    from repro.crypto.fast import gcm_seal_many as seal_many

    before = cached.cache_info().currsize
    result = seal_many(key, [(bytes(12), b"pool probe")])
    return before, result


def test_process_pool_workers_start_cold_and_match():
    """Pool workers must never see a parent LRU, only rebuild lazily."""
    _warm_caches()
    expected = gcm_seal_many(KEY, [(bytes(12), b"pool probe")])
    backend = ProcessPoolBackend(workers=2)
    try:
        outcomes = backend.run(
            [(_worker_cache_probe, (KEY,)), (_worker_cache_probe, (KEY,))]
        )
        if backend.inline_reason is not None:
            pytest.skip(f"no process pool here: {backend.inline_reason}")
        # The first task always lands on a fresh worker: cold cache.
        # (The second may share that worker, whose cache is now warm.)
        assert outcomes[0][0] == 0
        for _, result in outcomes:
            assert result == expected
    finally:
        backend.close()


def test_clear_caches_is_reentrant_after_fork_hook_registration():
    """The hook must keep clear_caches callable any number of times."""
    _warm_caches()
    clear_caches()
    assert _cache_sizes() == {"key_schedules": 0, "ghash_tables": 0}
    clear_caches()
    _warm_caches()
    assert _cache_sizes()["key_schedules"] >= 1
