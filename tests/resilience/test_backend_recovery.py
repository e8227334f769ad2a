"""Backend self-healing: retries, watchdogs, the process backend's inline state.

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

from repro.crypto.fast import arena as arena_mod
from repro.crypto.fast.batch import seal_open_many
from repro.crypto.fast.exec import InlineBackend, ProcessPoolBackend, ResiliencePolicy
from repro.errors import BatchTimeoutError, WorkerCrashError
from repro.mccp.channel import FlushPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.standards import RadioStandard
from repro.radio.traffic import TrafficPattern
from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan

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
    def test_transient_failure_heals_on_retry(self, counters):
        backend = InlineBackend()
        flaky = _FlakyCall(failures=1)
        results = backend.run([(flaky, (21,)), (int, ("7",))], policy=FAST)
        assert results == [42, 7]
        assert flaky.calls == 2
        assert counters["retries"] >= 1
        assert counters["degradations"] == 0

    def test_exhausted_retries_raise_on_inline(self, counters):
        policy = ResiliencePolicy(max_retries=1, backoff_base=0.0, backoff_cap=0.0)
        flaky = _FlakyCall(failures=99)
        with pytest.raises(WorkerCrashError):
            InlineBackend().run([(flaky, (1,))], policy=policy)
        assert flaky.calls == 2
        assert counters["degradations"] == 0

    def test_non_retryable_errors_propagate_immediately(self, counters):
        backend = InlineBackend()

        def bad(_):
            raise ValueError("a crypto bug, not infrastructure")

        with pytest.raises(ValueError, match="crypto bug"):
            backend.run([(bad, (0,)), (int, ("1",))], policy=FAST)
        assert counters["retries"] == 0

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
    def test_hung_span_trips_watchdog_and_degrades(self, counters):
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
        # span can only finish inline (which has no watchdog and simply
        # absorbs the final injected sleep).
        assert counters["watchdog_fires"] >= 1
        assert backend.inline_reason.startswith("process -> inline")
        assert sealed == seal_open_many("gcm", KEY, _packets(16), [], 16)[0]

    def test_watchdog_error_is_retryable(self):
        # BatchTimeoutError is a BackendError: the machinery retries a
        # watchdogged span rather than failing the dispatch.
        from repro.errors import BackendError

        assert issubclass(BatchTimeoutError, BackendError)

    def test_span_cancelled_by_an_abandoned_pool_is_retryable(self):
        # A watchdog on one span shuts the pool down with
        # cancel_futures=True, which cancels another span's futures; that
        # span must retry, not fail its dispatch with CancelledError.
        from concurrent.futures import Future

        from repro.crypto.fast.exec import _Failure, _pooled_outcomes

        done, cancelled = Future(), Future()
        done.set_result("sealed")
        assert cancelled.cancel()
        first, second = _pooled_outcomes([done, cancelled], timeout=1.0)
        assert first.value == "sealed"
        assert isinstance(second, _Failure)
        assert isinstance(second.error, WorkerCrashError)
        assert "pool was abandoned" in str(second.error)


class TestProcessPool:
    def test_injected_crash_breaks_pool_mid_batch_and_heals(self, counters):
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
        assert counters["retries"] >= 1
        assert backend.inline_reason is None
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
        assert backend.inline_reason.startswith("process -> inline")
        assert sealed == seal_open_many("gcm", KEY, _packets(16), [], 16)[0]


def _radio_run(backend):
    """One small radio workload; its report and transfers by identity."""
    platform = SdrPlatform(core_count=4, seed=17)
    report = platform.run_workload(
        WorkloadSpec(
            [
                ChannelConfig(
                    RadioStandard.WIFI,
                    bytes(16),
                    TrafficPattern.SATURATING,
                    packets=24,
                )
            ],
            dataplane="batched",
            flush_policy=FlushPolicy(coalesce_limit=16, flush_deadline=8192),
            backend=backend,
        )
    )
    transfers = {
        (t.channel_id, t.sequence): (t.payload, t.tag, t.ok)
        for t in platform.comm.completed.values()
    }
    return report, transfers


class _Daemon:
    daemon = True


def _refuse(*args, **kwargs):
    raise OSError("refused (test)")


_CRASH_STORM = FaultPlan(scripted=(ScriptedFault("worker_crash", times=10**9),))
_HANG_STORM = FaultPlan(
    hang_seconds=0.2, scripted=(ScriptedFault("worker_hang", times=10**9),)
)
_WATCHDOG = ResiliencePolicy(
    max_retries=1, backoff_base=0.0, backoff_cap=0.0, watchdog_seconds=0.05
)

#: Every route into the inline state: the cause its reason starts
#: with, a setup taking pytest's monkeypatch, the policy, and how many
#: degradations the run reports (only running out of retries counts).
_ROUTES = [
    pytest.param(
        "daemonic process cannot spawn workers",
        lambda mp: mp.setattr("multiprocessing.current_process", _Daemon),
        FAST,
        0,
        id="daemonic",
    ),
    pytest.param(
        "process pool unavailable: refused (test)",
        lambda mp: mp.setattr("concurrent.futures.ProcessPoolExecutor", _refuse),
        FAST,
        0,
        id="pool_oserror",
    ),
    pytest.param(
        "shared-memory arena unavailable: refused (test)",
        lambda mp: mp.setattr(arena_mod, "_new_segment", _refuse),
        FAST,
        0,
        id="shm_refused",
    ),
    pytest.param(
        "process -> inline: process pool broke",
        lambda mp: set_fault_plan(_CRASH_STORM),
        FAST,
        1,
        id="crash_storm",
    ),
    pytest.param(
        "process -> inline: backend span exceeded",
        lambda mp: set_fault_plan(_HANG_STORM),
        _WATCHDOG,
        1,
        id="watchdog",
    ),
]


class TestInlineState:
    """One health state: every route into it keeps one contract."""

    @pytest.mark.parametrize("cause, setup, policy, degradations", _ROUTES)
    def test_every_route_into_inline(
        self, cause, setup, policy, degradations, monkeypatch, hang_guard
    ):
        _, expected = _radio_run(InlineBackend())
        backend = ProcessPoolBackend(2)
        backend.resilience = policy
        setup(monkeypatch)
        try:
            with hang_guard(120.0):
                report, transfers = _radio_run(backend)
            assert backend.inline_reason.startswith(cause)
            assert backend.workers == 1
            assert backend.dispatch_arena() is None
            assert transfers == expected
            assert report.degradations == degradations
            assert report.degradation_reasons == (
                [backend.inline_reason] * degradations
            )
        finally:
            set_fault_plan(None)
            backend.close()
