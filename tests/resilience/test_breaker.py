"""Circuit breaker: the state machine and its backend wiring."""

from __future__ import annotations

import pytest

from repro.crypto.fast.exec import ProcessPoolBackend, ResiliencePolicy
from repro.errors import WorkerCrashError
from repro.resilience import BreakerPolicy, BreakerState, CircuitBreaker
from repro.resilience import stats


class TestBreakerPolicy:
    def test_defaults_are_sane(self):
        policy = BreakerPolicy()
        assert policy.fail_threshold >= 1
        assert policy.cooldown_spans >= 1
        assert policy.probe_successes >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fail_threshold": 0},
            {"cooldown_spans": 0},
            {"probe_successes": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BreakerPolicy(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_passes_traffic(self):
        breaker = CircuitBreaker(BreakerPolicy())
        assert breaker.state is BreakerState.CLOSED
        assert not breaker.should_bypass()

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerPolicy(fail_threshold=3))
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert breaker.should_bypass()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(fail_threshold=2))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_then_half_open_probe(self):
        breaker = CircuitBreaker(
            BreakerPolicy(fail_threshold=1, cooldown_spans=2)
        )
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        # Two spans route around the sick backend...
        assert breaker.should_bypass()
        assert breaker.should_bypass()
        # ...then the cooldown expires and the next span probes.
        assert not breaker.should_bypass()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.bypasses == 2

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(
            BreakerPolicy(
                fail_threshold=1, cooldown_spans=1, probe_successes=2
            )
        )
        breaker.record_failure()
        breaker.should_bypass()  # cooldown span
        breaker.should_bypass()  # transitions to HALF_OPEN
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.recoveries == 1

    def test_half_open_failure_retrips(self):
        breaker = CircuitBreaker(
            BreakerPolicy(fail_threshold=1, cooldown_spans=1)
        )
        breaker.record_failure()
        breaker.should_bypass()
        breaker.should_bypass()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_reset_restores_closed(self):
        breaker = CircuitBreaker(BreakerPolicy(fail_threshold=1))
        breaker.record_failure()
        breaker.reset()
        assert breaker.state is BreakerState.CLOSED
        assert not breaker.should_bypass()

    def test_stats_recorded(self):
        base = stats.snapshot()
        breaker = CircuitBreaker(
            BreakerPolicy(
                fail_threshold=1, cooldown_spans=1, probe_successes=1
            )
        )
        breaker.record_failure()
        breaker.should_bypass()
        breaker.should_bypass()
        breaker.record_success()
        delta = stats.delta(base)
        assert delta["breaker_trips"] == 1
        assert delta["breaker_bypasses"] == 1
        assert delta["breaker_recoveries"] == 1


class _AlwaysCrash:
    def __call__(self, value):
        raise WorkerCrashError("scripted crash")


class TestBackendWiring:
    def test_repeated_span_failures_trip_and_bypass(self):
        backend = ProcessPoolBackend(2)
        # degrade=False keeps the failures on the process backend itself
        # (sticky chain degradation would otherwise reroute every later
        # span before the breaker ever saw it).
        policy = ResiliencePolicy(
            max_retries=0,
            backoff_base=0.0,
            backoff_cap=0.0,
            degrade=False,
            breaker=BreakerPolicy(fail_threshold=2, cooldown_spans=100),
        )
        try:
            with pytest.raises(WorkerCrashError):
                backend.run([(_AlwaysCrash(), (1,))], policy=policy)
            assert backend.breaker.state is BreakerState.CLOSED
            with pytest.raises(WorkerCrashError):
                backend.run([(_AlwaysCrash(), (1,))], policy=policy)
            assert backend.breaker.state is BreakerState.OPEN
            assert backend.breaker.trips == 1
            # An OPEN breaker routes new spans straight to the fallback
            # (inline) without paying the failure tax; results are
            # still correct.
            results = backend.run([(int, ("42",))], policy=policy)
            assert results == [42]
            assert backend.breaker.bypasses == 1
        finally:
            backend.close()

    def test_reset_degradation_also_resets_the_breaker(self):
        backend = ProcessPoolBackend(2)
        policy = ResiliencePolicy(
            max_retries=0,
            backoff_base=0.0,
            backoff_cap=0.0,
            degrade=False,
            breaker=BreakerPolicy(fail_threshold=1),
        )
        try:
            with pytest.raises(WorkerCrashError):
                backend.run([(_AlwaysCrash(), (1,))], policy=policy)
            assert backend.breaker.state is BreakerState.OPEN
            backend.reset_degradation()
            assert backend.breaker.state is BreakerState.CLOSED
        finally:
            backend.close()

    def test_healthy_spans_keep_the_breaker_closed(self):
        backend = ProcessPoolBackend(2)
        policy = ResiliencePolicy(
            breaker=BreakerPolicy(fail_threshold=1)
        )
        try:
            assert backend.run([(int, ("7",))], policy=policy) == [7]
            assert backend.breaker.state is BreakerState.CLOSED
        finally:
            backend.close()

    def test_no_breaker_without_policy(self):
        backend = ProcessPoolBackend(2)
        try:
            backend.run([(int, ("7",))])
            assert backend.breaker is None
        finally:
            backend.close()
