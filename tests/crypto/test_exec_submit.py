"""The asynchronous backend half: submit()/result().

The contract under test is :class:`repro.crypto.fast.exec.BatchHandle`:
``submit()`` returns immediately, ``result()`` blocks and returns
exactly what ``run()`` would have (same results in submission order,
same exceptions, same recovery behaviour), and both results and
errors are memoized — one execution no
matter how often the handle is drained.  ``seal_open_submit`` rides the
same contract at the batch-AEAD layer.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.crypto.fast.batch import seal_open_many, seal_open_submit
from repro.crypto.fast.exec import (
    BatchHandle,
    InlineBackend,
    ProcessPoolBackend,
    ResiliencePolicy,
)
from repro.errors import WorkerCrashError

#: No-backoff budget so retry tests don't sleep.
FAST = ResiliencePolicy(max_retries=2, backoff_base=0.0, backoff_cap=0.0)

KEY = bytes(range(16))


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture(params=["inline", "process"])
def any_backend(request, process_backend):
    if request.param == "inline":
        backend = InlineBackend()
        yield backend
        backend.close()
    else:
        yield process_backend


# Worker-side helpers: top-level so process-pool workers can unpickle
# them.  Cross-process state lives in files under the test's tmp_path.


def _wait_for(gate, value):
    """Block until *gate* exists (30 s cap), then return *value*."""
    deadline = time.monotonic() + 30
    while not os.path.exists(gate) and time.monotonic() < deadline:
        time.sleep(0.005)
    return value


def _boom(_):
    raise ValueError("non-retryable")


def _flaky_double(log, value):
    """Raise WorkerCrashError on the first call (per *log*), then 2x."""
    with open(log, "a") as handle:
        handle.write("call\n")
    with open(log) as handle:
        if sum(1 for _ in handle) == 1:
            raise WorkerCrashError("transient")
    return value * 2


def _ccm_packets(count, size=256):
    return [
        ((i + 1).to_bytes(13, "big"), bytes([i & 0xFF]) * size)
        for i in range(count)
    ]


# -- handle semantics ---------------------------------------------------------


def test_submit_matches_run_in_submission_order(any_backend):
    calls = [(int, (str(n),)) for n in range(20)]
    handle = any_backend.submit(calls)
    assert isinstance(handle, BatchHandle)
    assert handle.result() == any_backend.run(calls) == list(range(20))


def test_empty_submit_is_immediately_done(any_backend):
    handle = any_backend.submit([])
    assert handle.result() == []


def test_result_is_memoized_single_execution():
    counter = {"calls": 0}

    def bump(value):
        counter["calls"] += 1
        return value

    handle = InlineBackend().submit([(bump, (1,)), (bump, (2,))])
    assert handle.result() == [1, 2]
    assert handle.result() == [1, 2]
    assert counter["calls"] == 2  # one execution per call, not per drain


def test_serial_guard_defers_single_calls_to_result(process_backend):
    """A one-call batch is never launched: result() computes it in the
    draining thread."""
    ident = {}

    def record(value):
        ident["thread"] = threading.get_ident()
        return value

    handle = process_backend.submit([(record, (7,))])
    assert "thread" not in ident  # nothing ran yet
    assert handle.result() == [7]
    assert ident["thread"] == threading.get_ident()


def test_errors_are_memoized_and_reraised(process_backend):
    handle = process_backend.submit([(_boom, (1,)), (int, ("2",))])
    with pytest.raises(ValueError, match="non-retryable"):
        handle.result()
    with pytest.raises(ValueError, match="non-retryable"):
        handle.result()  # memoized, not re-executed


def test_recovery_runs_inside_result(process_backend, tmp_path):
    """Retries happen when the handle is drained, with the same policy
    semantics as the synchronous run() path."""
    log = str(tmp_path / "calls")
    handle = process_backend.submit(
        [(_flaky_double, (log, 21)), (int, ("7",))], policy=FAST
    )
    assert handle.result() == [42, 7]
    with open(log) as calls:
        assert len(calls.readlines()) == 2


def test_submit_on_degraded_backend_delegates():
    backend = ProcessPoolBackend(workers=2)
    try:
        backend.inline_reason = "test-injected"
        handle = backend.submit([(len, (b"abc",)), (len, (b"de",))])
        assert handle.result() == [3, 2]
    finally:
        backend.close()


def test_overlap_with_submitting_thread(process_backend, tmp_path):
    """The point of submit(): the caller makes progress while workers
    run the batch."""
    gate = str(tmp_path / "release")
    started = time.monotonic()
    # The workers block until the gate opens, so submit() returning at
    # all proves the caller was not made to wait for them.
    handle = process_backend.submit([(_wait_for, (gate, 1)), (_wait_for, (gate, 2))])
    assert time.monotonic() - started < 10
    open(gate, "w").close()
    assert handle.result() == [1, 2]


# -- seal_open_submit ---------------------------------------------------------


def test_seal_open_submit_matches_sync(any_backend):
    packets = _ccm_packets(24)
    sealed_sync, _ = seal_open_many("ccm", KEY, packets, [], 8)
    opens = [
        (nonce, ct, tag)
        for (nonce, _), (ct, tag) in zip(packets, sealed_sync)
    ]
    expected = seal_open_many(
        "ccm", KEY, packets, opens, 8, backend=any_backend
    )
    handle = seal_open_submit(
        "ccm", KEY, packets, opens, 8, backend=any_backend
    )
    assert handle.result() == expected
    assert handle.result() == expected  # memoized


def test_seal_open_submit_single_packet_serial(any_backend):
    packets = _ccm_packets(1)
    handle = seal_open_submit("ccm", KEY, packets, [], 8, backend=any_backend)
    sealed, opened = handle.result()
    assert opened == []
    assert (sealed, []) == seal_open_many("ccm", KEY, packets, [], 8)


def test_seal_open_submit_rejects_unknown_mode(process_backend):
    with pytest.raises(ValueError, match="unknown batch mode"):
        seal_open_submit("ctr", KEY, [], [], 16, backend=process_backend)
