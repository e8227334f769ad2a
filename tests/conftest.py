"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import random
import signal
import threading

import pytest

from repro.core.crypto_core import CryptoCore
from repro.core.harness import run_task
from repro.core.params import Direction
from repro.crypto.aes import expand_key
from repro.mccp.channel import PacketJob
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder
from repro.unit.timing import DEFAULT_TIMING


@pytest.fixture
def rng():
    """Deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def rb(rng):
    """Deterministic random-bytes factory."""

    def _rb(n: int) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(n))

    return _rb


def run_single_core(task, key=None, trace=None):
    """Run one formatted task on a fresh single core; returns (run, core, sim)."""
    sim = Simulator()
    core = CryptoCore(sim, DEFAULT_TIMING, trace=trace)
    if key is not None:
        core.key_cache.install(expand_key(key), 8 * len(key))
    run = run_task(sim, core, task)
    return run, core, sim


def enqueue(device, channel_id, data, aad=b"", direction=Direction.ENCRYPT,
            nonce=b"", tag=None):
    """Queue one packet on an MCCP channel as a :class:`PacketJob`;
    returns the queue depth."""
    return device.enqueue_job(
        channel_id, PacketJob(direction, nonce, data, aad, tag)
    )


def drain(device, channel_id, backend=None):
    """Dispatch a channel's queue batch by batch; the results in order."""
    channel = device.scheduler.get_channel(channel_id)
    results = []
    while channel.pending:
        handle = device.dispatch_jobs_async(
            channel_id, channel.take_batch(), backend
        )
        results.extend(handle.result())
    return results


@pytest.fixture
def single_core_runner():
    """Fixture exposing :func:`run_single_core`."""
    return run_single_core


@pytest.fixture
def hang_guard():
    """Wall-clock guard for tests that exercise hang recovery.

    ``pytest-timeout`` is not a baked-in dependency, so this is a
    SIGALRM-based stand-in: ``with hang_guard(seconds):`` fails the
    test (rather than hanging the whole suite) if the block overruns.
    Degrades to a no-op where SIGALRM cannot be armed (non-main
    thread, platforms without setitimer).
    """

    @contextlib.contextmanager
    def _guard(seconds: float):
        can_alarm = (
            hasattr(signal, "SIGALRM")
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if not can_alarm:
            yield
            return

        def _expired(signum, frame):
            raise TimeoutError(
                f"hang_guard: test block exceeded {seconds:.1f}s wall clock"
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return _guard


@pytest.fixture
def traced_runner():
    """Runner that also returns an enabled trace recorder."""

    def _run(task, key=None):
        trace = TraceRecorder(enabled=True)
        run, core, sim = run_single_core(task, key, trace)
        return run, core, sim, trace

    return _run
