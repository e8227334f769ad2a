"""The shared-memory packet arena: allocator, hygiene, warm workers, chaos.

Four contracts from :mod:`repro.crypto.fast.arena` and its wiring into
the process backend:

- **Allocator semantics** — ragged and zero-length payloads, slab
  growth, generation recycling and concurrent overlapping generations
  all behave; descriptors never alias.
- **Lifecycle hygiene** — every ``/dev/shm`` segment an arena cuts is
  unlinked by ``close()``, including after a worker-crash storm; no
  run leaks kernel objects.
- **Structural fallback** — a host without usable shared memory runs
  dispatches inline with a recorded ``inline_reason`` and
  byte-identical results, never an error.
- **Warm workers** — steady-state traffic re-expands nothing (the
  ``WorkloadReport.key_schedule_expansions`` acceptance), and a rekey
  re-expands exactly the rotated key: worker caches are keyed by key
  bytes.
"""

import glob
import os
import random

import pytest

from repro.crypto.fast import arena as arena_mod
from repro.crypto.fast.aes_ttable import expand_key_cached
from repro.crypto.fast.arena import NAME_PREFIX, PacketArena
from repro.crypto.fast import batch as fast_batch
from repro.crypto.fast.batch import seal_open_many, seal_open_submit
from repro.crypto.fast.exec import ProcessPoolBackend, ResiliencePolicy, make_backend
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan, stats

KEY = bytes(range(16))

FAST = ResiliencePolicy(max_retries=2, backoff_base=0.0, backoff_cap=0.0)


def _gcm_packets(count=16, seed=0xA1):
    rng = random.Random(seed)
    sizes = (0, 1, 16, 33, 256, 1024, 2048, 5)
    return [
        ((i + 1).to_bytes(12, "big"), rng.randbytes(sizes[i % len(sizes)]),
         rng.randbytes(9))
        for i in range(count)
    ]


def _crash_leg(dispatch, backend):
    """One chaos-leg dispatch on *backend*: a bare GCM batch, or a CCM
    radio workload on the ``batched`` or ``pipelined`` dataplane (its
    transfers by channel and sequence)."""
    if dispatch == "seal_open_many":
        packets = _gcm_packets(count=24)
        return seal_open_many("gcm", KEY, packets, [], 16, backend=backend)
    spec = WorkloadSpec(
        configs=(
            ChannelConfig(
                RadioStandard.WIFI, KEY, TrafficPattern.SATURATING, packets=64
            ),
        ),
        dataplane=dispatch,
        flush_policy=FlushPolicy(coalesce_limit=32, flush_deadline=None),
        backend=backend,
        pipeline_depth=2,
    )
    platform = SdrPlatform(core_count=4, seed=17)
    platform.run_workload(spec)
    return {
        (t.channel_id, t.sequence): (t.payload, t.tag, t.ok)
        for t in platform.comm.completed.values()
    }


def _shm_segments():
    """Live ``/dev/shm`` arena segments of this machine, by name."""
    return sorted(
        os.path.basename(path)
        for path in glob.glob(f"/dev/shm/{NAME_PREFIX}-*")
    )


needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this host"
)


# -- allocator semantics ------------------------------------------------------


class TestAllocator:
    def test_ragged_and_zero_length_payloads_round_trip(self):
        arena = PacketArena(slab_bytes=1 << 16)
        try:
            payloads = [b"", b"x", bytes(range(256)) * 8, b"", b"tail"]
            generation = arena.reserve(sum(len(p) for p in payloads))
            descs = [generation.write(p) for p in payloads]
            view = generation.view
            for payload, (offset, length) in zip(payloads, descs):
                assert length == len(payload)
                assert bytes(view[offset:offset + length]) == payload
            # Regions are contiguous and non-aliasing.
            cursor = descs[0][0]
            for offset, length in descs:
                assert offset == cursor
                cursor = offset + length
            generation.release()
        finally:
            arena.close()

    def test_scatter_gather_write_lands_contiguously(self):
        arena = PacketArena(slab_bytes=1 << 16)
        try:
            generation = arena.reserve(64)
            offset, length = generation.write([b"abc", b"", b"defg"])
            assert length == 7
            assert bytes(generation.view[offset:offset + 7]) == b"abcdefg"
            generation.release()
        finally:
            arena.close()

    def test_generation_overflow_raises(self):
        arena = PacketArena(slab_bytes=1 << 16)
        try:
            generation = arena.reserve(8)
            generation.alloc(8)
            with pytest.raises(RuntimeError, match="generation overflow"):
                generation.alloc(1)
            generation.release()
        finally:
            arena.close()

    def test_steady_state_recycles_one_slab(self):
        arena = PacketArena(slab_bytes=1 << 16)
        try:
            for _ in range(50):
                generation = arena.reserve(1 << 12)
                generation.release()
            assert arena.slabs_created == 1
            assert arena.grows == 0
            assert arena.recycles == 50
            # The bump pointer rewound: a fresh reservation reuses the
            # very same offsets.
            assert arena.reserve(16).base == 0
        finally:
            arena.close()

    def test_oversized_reservation_grows_the_slab(self):
        arena = PacketArena(slab_bytes=1 << 12)
        try:
            before = arena.segment_names()
            generation = arena.reserve((1 << 14) + 1)
            assert arena.grows == 1
            assert generation.nbytes == (1 << 14) + 1
            after = arena.segment_names()
            # The idle first slab was unlinked, not retired.
            assert len(after) == 1 and after != before
            generation.release()
        finally:
            arena.close()

    def test_concurrent_generations_never_alias(self):
        arena = PacketArena(slab_bytes=1 << 16)
        try:
            first = arena.reserve(1 << 10)
            second = arena.reserve(1 << 10)
            assert first.slab_name == second.slab_name
            assert first.limit <= second.base  # disjoint ranges
            a = first.write(b"A" * 100)
            b = second.write(b"B" * 100)
            view = first.view
            assert bytes(view[a[0]:a[0] + 100]) == b"A" * 100
            assert bytes(view[b[0]:b[0] + 100]) == b"B" * 100
            # Releasing one of two live generations must not rewind.
            first.release()
            assert arena.recycles == 0
            third = arena.reserve(16)
            assert third.base >= second.limit
            second.release()
            third.release()
            assert arena.recycles == 1
            assert arena.live_generations == 0
        finally:
            arena.close()

    def test_busy_slab_retires_and_unlinks_on_last_release(self):
        arena = PacketArena(slab_bytes=1 << 12)
        try:
            held = arena.reserve(1 << 10)  # keeps slab 1 busy
            old_name = held.slab_name
            big = arena.reserve(1 << 13)  # forces growth while busy
            assert big.slab_name != old_name
            assert old_name in arena.segment_names()  # retired, mapped
            held.release()  # last generation: retired slab unlinks
            assert old_name not in arena.segment_names()
            big.release()
            assert arena.live_generations == 0
        finally:
            arena.close()

    def test_release_is_idempotent_and_safe_after_close(self):
        arena = PacketArena(slab_bytes=1 << 12)
        generation = arena.reserve(64)
        generation.release()
        generation.release()  # idempotent
        assert arena.recycles == 1
        straggler = arena.reserve(64)
        arena.close()
        straggler.release()  # after close: a no-op, not an underflow
        arena.close()  # close is idempotent too

    def test_closed_arena_refuses_reservations(self):
        arena = PacketArena(slab_bytes=1 << 12)
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.reserve(16)


# -- lifecycle hygiene --------------------------------------------------------


@needs_dev_shm
class TestLifecycleHygiene:
    def test_close_unlinks_every_segment(self):
        baseline = _shm_segments()
        arena = PacketArena(slab_bytes=1 << 12)
        held = arena.reserve(1 << 10)
        arena.reserve(1 << 13)  # growth: a second segment exists
        assert len(_shm_segments()) > len(baseline)
        arena.close()  # reclaims busy slabs too — hygiene beats views
        assert _shm_segments() == baseline
        held.release()  # and the straggler release stays safe

    def test_backend_close_unlinks_segments(self):
        baseline = _shm_segments()
        backend = ProcessPoolBackend(workers=2)
        try:
            packets = _gcm_packets()
            sealed, _ = seal_open_many("gcm", KEY, packets, [], 16,
                                       backend=backend)
            # The reference runs inline: the default backend may be a
            # process pool whose arena outlives this test.
            assert sealed == seal_open_many(
                "gcm", KEY, packets, [], 16, backend="inline"
            )[0]
            assert backend.dispatch_arena() is not None
            assert len(_shm_segments()) > len(baseline)
        finally:
            backend.close()
        assert _shm_segments() == baseline

    @pytest.mark.parametrize("dispatch", ["seal_open_many", "batched", "pipelined"])
    def test_worker_crash_reclaims_the_in_flight_slab(self, dispatch):
        """Chaos leg: a worker dies mid-dispatch while its descriptors
        point into a live slab, on one bare batch and on the radio
        dataplane (batched, and pipelined two deep).  Recovery must
        deliver survivors byte-identical to inline, release the
        generation, and leak nothing."""
        baseline = _shm_segments()
        expected = _crash_leg(dispatch, "inline")
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=1),))
        backend = ProcessPoolBackend(workers=2)
        backend.resilience = FAST
        previous = set_fault_plan(plan)
        try:
            with stats.counting() as counters:
                got = _crash_leg(dispatch, backend)
            # Read before close(), which zeroes every slab it unlinks.
            arena = backend._arena
            live = None if arena is None else arena.live_generations
        finally:
            set_fault_plan(previous)
            backend.close()
        assert got == expected
        # Not vacuous: the crash fired, and a fresh pool (not the
        # inline state) delivered the retry.
        assert counters["retries"] >= 1
        assert backend.inline_reason is None
        assert live == 0
        assert _shm_segments() == baseline


# -- structural fallback ------------------------------------------------------


class TestArenaFallback:
    def test_unusable_arena_runs_dispatches_inline(self, monkeypatch):
        def no_arena():
            raise OSError("no /dev/shm (test)")

        monkeypatch.setattr(arena_mod, "PacketArena", no_arena)
        backend = make_backend("process:2")
        submitted = []
        real_submit = backend.submit

        def spy(calls, policy=None):
            submitted.append([call[0] for call in calls])
            return real_submit(calls, policy)

        backend.submit = spy
        try:
            # References run inline, so the patched arena cannot reach
            # the default backend.
            packets = _gcm_packets()
            sealed = seal_open_many(
                "gcm", KEY, packets, [], 16, backend="inline"
            )[0]
            opens = [
                (iv, ct, tag, aad)
                for (iv, _, aad), (ct, tag) in zip(packets, sealed)
            ]
            expected = seal_open_many(
                "gcm", KEY, packets, opens, 16, backend="inline"
            )
            got = seal_open_many(
                "gcm", KEY, packets, opens, 16, backend=backend
            )
            assert got == expected
            assert "no /dev/shm (test)" in backend.inline_reason
            # One whole-dispatch call, run by the serial guard in this
            # process: no shard ever reached a worker (no pool exists).
            assert submitted == [[fast_batch._seal_open_whole]]
            assert backend._pool is None
        finally:
            backend.close()


# -- warm workers: steady state and rekey -------------------------------------


class TestWarmWorkers:
    def test_steady_state_has_zero_reexpansions(self):
        """ISSUE 9 acceptance: after warmup, a workload storm shows
        zero key-schedule re-expansions in the persistent workers."""
        backend = ProcessPoolBackend(workers=2)
        keys = 2
        spec = WorkloadSpec(
            configs=tuple(
                ChannelConfig(
                    RadioStandard.SATCOM,
                    bytes([index] * 32),
                    TrafficPattern.SATURATING,
                    packets=24,
                )
                for index in range(keys)
            ),
            dataplane="batched",
            flush_policy=FlushPolicy(coalesce_limit=8, flush_deadline=8192),
            backend=backend,
        )
        try:
            warmup = SdrPlatform(core_count=4, seed=7).run_workload(spec)
            # Cold workers expand each key at most once per worker;
            # assignment is nondeterministic so only the product bounds.
            assert 0 < warmup.key_schedule_expansions <= backend.workers * keys
            steady = SdrPlatform(core_count=4, seed=8).run_workload(spec)
            assert steady.key_schedule_expansions == 0
        finally:
            backend.close()

    def test_schedule_cache_is_keyed_by_key_bytes(self):
        """What makes a rekey safe without any invalidation message: new
        key material misses the schedule cache, and the old key and its
        siblings stay cached."""
        rng = random.Random(0xCA)
        key_a, key_b, key_a2 = (rng.randbytes(16) for _ in range(3))

        def misses(key):
            before = expand_key_cached.cache_info().misses
            expand_key_cached(key)
            return expand_key_cached.cache_info().misses - before

        assert misses(key_a) == 1 and misses(key_b) == 1
        assert misses(key_a) == 0 and misses(key_b) == 0
        assert misses(key_a2) == 1  # the rotated key re-expands
        assert misses(key_b) == 0 and misses(key_a2) == 0

    def test_rekey_reexpands_only_the_rotated_key(self):
        """A rekey misses only the rotated key's cached schedule: the
        next dispatch under the new key re-expands (bounded by worker
        count), sibling keys stay warm at zero."""
        backend = ProcessPoolBackend(workers=2)
        key_a = bytes([0xA5] * 16)
        key_b = bytes([0x5A] * 16)
        packets = _gcm_packets(count=16, seed=0xEB)

        def dispatch(key):
            with stats.counting() as counters:
                seal_open_submit(
                    "gcm", key, packets, [], 16, backend=backend
                ).result()
            return counters["key_schedule_expansions"]

        def warm(key, expanded=0):
            """Dispatch under *key* until every worker has expanded it.

            Workers start cold and expand a key once each, so the
            expansions add up to the worker count exactly when every
            worker holds the schedule; a dispatch that returns 0 may
            have been served by one warm worker alone.
            """
            for _ in range(200):
                if expanded == backend.workers:
                    return
                expanded += dispatch(key)
            pytest.fail(f"{expanded} of {backend.workers} workers expanded the key")

        try:
            warm(key_a)
            warm(key_b)
            # Rekey channel a: new material.
            key_a2 = bytes(range(0x10, 0x20))
            cost = dispatch(key_a2)
            assert 0 < cost <= backend.workers
            assert dispatch(key_b) == 0  # sibling stayed warm
            warm(key_a2, cost)  # remaining workers warm the new schedule
            assert dispatch(key_a2) == 0
        finally:
            backend.close()
