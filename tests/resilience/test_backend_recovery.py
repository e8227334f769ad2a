"""Backend self-healing: retries, watchdogs, chain degradation.

Worker-level faults are injected two ways: directly (stateful callables
raising :class:`BackendError` subclasses, run on the inline backend,
which shares the caller's address space and owns the same retry loop)
and through the production :class:`FaultDirective` path, which is the
only way to reach real process-pool workers (an injected crash there
hard-exits the child and produces a genuine ``BrokenProcessPool``
mid-batch).
"""

from __future__ import annotations

import pytest

from repro.crypto.fast.batch import seal_open_many
from repro.crypto.fast.exec import InlineBackend, ProcessPoolBackend, ResiliencePolicy
from repro.errors import BatchTimeoutError, WorkerCrashError
from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan, stats

#: No-backoff budget so the retry tests don't sleep.
FAST = ResiliencePolicy(max_retries=2, backoff_base=0.0, backoff_cap=0.0)

KEY = bytes(range(16))


def _packets(count, size=512):
    return [
        ((i + 1).to_bytes(13, "big"), bytes([i & 0xFF]) * size)
        for i in range(count)
    ]


class _FlakyCall:
    """Raises *error* for the first *failures* invocations, then returns."""

    def __init__(self, failures, error=WorkerCrashError("transient")):
        self.failures = failures
        self.calls = 0
        self.error = error

    def __call__(self, value):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return value * 2


class TestRetry:
    def test_transient_failure_heals_on_retry(self):
        backend = InlineBackend()
        flaky = _FlakyCall(failures=1)
        results = backend.run([(flaky, (21,)), (int, ("7",))], policy=FAST)
        assert results == [42, 7]
        assert flaky.calls == 2
        assert stats.snapshot()["retries"] >= 1
        assert backend.degradations == []

    def test_exhausted_retries_raise_when_degrade_disabled(self):
        backend = ProcessPoolBackend(2)
        policy = ResiliencePolicy(
            max_retries=1, backoff_base=0.0, backoff_cap=0.0, degrade=False
        )
        try:
            # A one-call span runs in the calling thread (serial guard),
            # so the stateful callable fails on every attempt.
            with pytest.raises(WorkerCrashError):
                backend.run([(_FlakyCall(failures=99), (1,))], policy=policy)
            assert backend.degradations == []
        finally:
            backend.close()

    def test_non_retryable_errors_propagate_immediately(self):
        backend = InlineBackend()

        def bad(_):
            raise ValueError("a crypto bug, not infrastructure")

        with pytest.raises(ValueError, match="crypto bug"):
            backend.run([(bad, (0,)), (int, ("1",))], policy=FAST)
        assert stats.snapshot()["retries"] == 0

    def test_backoff_schedule_is_capped_exponential(self):
        policy = ResiliencePolicy(backoff_base=0.01, backoff_cap=0.05)
        assert [policy.backoff(a) for a in range(5)] == [
            0.01,
            0.02,
            0.04,
            0.05,
            0.05,
        ]


class TestWatchdog:
    def test_hung_span_trips_watchdog_and_degrades(self):
        plan = FaultPlan(
            hang_seconds=0.25,
            scripted=(ScriptedFault("worker_hang", times=10**9),),
        )
        backend = ProcessPoolBackend(2)
        if backend.workers <= 1:
            backend.close()
            pytest.skip("no process workers available on this host")
        backend.resilience = ResiliencePolicy(
            max_retries=1,
            backoff_base=0.0,
            backoff_cap=0.0,
            watchdog_seconds=0.05,
        )
        set_fault_plan(plan)
        try:
            sealed, opened = seal_open_many(
                "gcm", KEY, _packets(16), [], 16, backend=backend
            )
        finally:
            set_fault_plan(None)
            backend.close()
        # The hang outruns the watchdog on every pooled attempt, so the
        # span can only finish by degrading to inline (which has no
        # watchdog and simply absorbs the final injected sleep).
        assert stats.snapshot()["watchdog_fires"] >= 1
        assert backend.degradations and "process -> inline" in backend.degradations[0]
        assert sealed == seal_open_many("gcm", KEY, _packets(16), [], 16)[0]

    def test_watchdog_error_is_retryable(self):
        # BatchTimeoutError is a BackendError: the machinery retries a
        # watchdogged span rather than failing the dispatch.
        from repro.errors import BackendError

        assert issubclass(BatchTimeoutError, BackendError)


class TestDegradationChain:
    def test_process_falls_back_to_inline(self):
        backend = ProcessPoolBackend(2)
        try:
            fallback = backend.fallback()
            assert isinstance(fallback, InlineBackend)
            assert fallback.fallback() is None  # the chain ends inline
        finally:
            backend.close()

    def test_degradation_is_sticky_until_reset(self):
        backend = ProcessPoolBackend(2)
        if backend.workers <= 1:
            backend.close()
            pytest.skip("no process workers available on this host")
        backend.resilience = FAST
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=10**9),))
        set_fault_plan(plan)
        try:
            seal_open_many("gcm", KEY, _packets(16), [], 16, backend=backend)
        finally:
            set_fault_plan(None)
        try:
            assert len(backend.degradations) == 1
            # A fault-free dispatch afterwards stays on the fallback:
            # no new degradations, results still correct.
            sealed, _ = seal_open_many(
                "gcm", KEY, _packets(16), [], 16, backend=backend
            )
            assert len(backend.degradations) == 1
            assert sealed == seal_open_many("gcm", KEY, _packets(16), [], 16)[0]
            backend.reset_degradation()
            assert backend.degradations == []
        finally:
            backend.close()


class TestProcessPool:
    def test_injected_crash_breaks_pool_mid_batch_and_heals(self):
        """A real child hard-exit mid-batch: BrokenProcessPool -> retry."""
        backend = ProcessPoolBackend(2)
        backend.resilience = FAST
        if backend.workers <= 1:
            backend.close()
            pytest.skip("no process workers available on this host")
        # Crash only on attempt 0: the retry (attempt 1) re-rolls clean,
        # so a *fresh pool* completes the batch — no degradation needed.
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=1),))
        set_fault_plan(plan)
        try:
            sealed, opened = seal_open_many(
                "gcm", KEY, _packets(16), [], 16, backend=backend
            )
        finally:
            set_fault_plan(None)
            backend.close()
        assert stats.snapshot()["retries"] >= 1
        assert backend.degradations == []
        assert sealed == seal_open_many("gcm", KEY, _packets(16), [], 16)[0]

    def test_persistent_crash_storm_walks_the_whole_chain(self):
        backend = ProcessPoolBackend(2)
        backend.resilience = FAST
        if backend.workers <= 1:
            backend.close()
            pytest.skip("no process workers available on this host")
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=10**9),))
        set_fault_plan(plan)
        try:
            sealed, _ = seal_open_many(
                "gcm", KEY, _packets(16), [], 16, backend=backend
            )
        finally:
            set_fault_plan(None)
            backend.close()
        assert [r.split(":")[0] for r in backend.degradations] == [
            "process -> inline"
        ]
        assert sealed == seal_open_many("gcm", KEY, _packets(16), [], 16)[0]


class TestStructuralDegradation:
    """Every recorded ``degraded_reason`` for the process backend."""

    def test_daemonic_host_degrades_with_reason(self, monkeypatch):
        import multiprocessing

        class _Daemon:
            daemon = True

        monkeypatch.setattr(multiprocessing, "current_process", _Daemon)
        backend = ProcessPoolBackend(4)
        try:
            assert backend._ensure_pool() is None
            assert backend.degraded_reason == (
                "daemonic process cannot spawn workers"
            )
            assert backend.workers == 1
            # Inline execution still yields correct bytes.
            sealed, _ = seal_open_many(
                "gcm", KEY, _packets(8), [], 16, backend=backend
            )
            assert sealed == seal_open_many("gcm", KEY, _packets(8), [], 16)[0]
        finally:
            backend.close()

    def test_pool_creation_failure_degrades_with_reason(self, monkeypatch):
        import concurrent.futures

        def _no_pool(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        backend = ProcessPoolBackend(4)
        try:
            assert backend._ensure_pool() is None
            assert backend.degraded_reason.startswith("process pool unavailable:")
            assert backend.workers == 1
            sealed, _ = seal_open_many(
                "ccm", KEY, _packets(8), [], 8, backend=backend
            )
            assert sealed == seal_open_many("ccm", KEY, _packets(8), [], 8)[0]
        finally:
            backend.close()

    def test_reset_degradation_keeps_structural_reason(self):
        backend = ProcessPoolBackend(2)
        try:
            backend.degraded_reason = "marked for test"
            backend.degradations.append("process -> inline: synthetic")
            backend.reset_degradation()
            assert backend.degradations == []
            assert backend.degraded_reason == "marked for test"
        finally:
            backend.close()
