"""Pluggable execution backends for the batch crypto sweeps.

The batch engine (:mod:`repro.crypto.fast.batch`) turns N same-key
packets into a handful of fused numpy sweeps, but until this module
every sweep ran on one Python thread — the software restatement of the
paper's many-core parallelism stopped at one core.  An
:class:`ExecutionBackend` is the seam that fixes that: callers hand it
an ordered list of independent ``(fn, args)`` calls (typically one per
packet shard, or one per seal/open direction of a coalesced dispatch)
and get the results back **in submission order**, whatever ran where.
Two implementations:

- :class:`InlineBackend` — run the calls sequentially in the calling
  thread.  The default (``REPRO_BACKEND=inline``).
- :class:`ProcessPoolBackend` — shared-nothing worker processes.  Each
  worker starts with cold memo caches (the pool initializer and the
  ``os.register_at_fork`` hook in :mod:`repro.crypto.fast` both call
  ``clear_caches``) and rebuilds them lazily, so a fork can never
  observe a cache mid-mutation.  Payloads live in a shared-memory
  packet arena (:mod:`repro.crypto.fast.arena`) and shard calls pickle
  only span descriptors; workers stay warm across dispatches, so
  key-schedule/H-power caches persist (a run's
  ``key_schedule_expansions`` counts rebuilds).

  The pool has one health state, :attr:`ProcessPoolBackend.inline_reason`.
  It is set, once and for good, when the host cannot run workers (a
  daemonic process, a pool that fails to start, shared memory that
  cannot be used) or when retries run out on a crash storm or a
  watchdog.  From then on the backend runs every call in the calling
  thread, byte-identically, and the reason says why.

Determinism contract: a backend only ever changes *where* calls run,
never what they compute or the order results come back in — the
equivalence suite pins inline == process byte-for-byte across the
crypto, MCCP and radio layers.

Asynchronous half: :meth:`ExecutionBackend.submit` is the futures
form of :meth:`ExecutionBackend.run` — it hands the calls to the pool
*without waiting* and returns a :class:`BatchHandle` whose
``done()`` probes completion and whose ``result()`` drains
the span (applying the same recovery machinery, so
``backend.run(calls)`` and ``backend.submit(calls).result()`` are
byte-identical — ``run`` is literally implemented that way).  This is
what lets the simulated dataplane overlap sim-event processing with
crypto execution (the paper's pipelining lifted to the system level,
:mod:`repro.radio.comm_controller`): the caller submits a batch, keeps
coalescing the next one, and collects the handle when the completion
is due.  Backends with no overlap to offer (inline, a single-worker
pool, a pool in its inline state) return an *unlaunched* handle that
simply computes at ``result()`` time — same bytes, no concurrency.

Self-healing: the handle owns the recovery loop.  Infrastructure
failures (:class:`repro.errors.BackendError`: a worker crash, a
watchdog timeout, an injected fault) are retried per span with
exponential backoff under a :class:`ResiliencePolicy`.  When the
retries run out, the inline backend raises; the process backend
switches to its inline state (reason recorded, counted as a
degradation in the resilience stats) and finishes the span there.
Crypto errors are never retried or swallowed — a backend changes
where calls run and how infrastructure failures heal, never what
correct calls compute.

Selection: ``REPRO_BACKEND`` in the environment (``inline``, or
``process``/``process:N`` with ``N`` worker cap; ``process-arena`` is
an alias of ``process``) seeds the process-wide default; every
``backend=`` parameter up the stack (``seal_open_submit`` /
``seal_open_many``, ``Mccp.dispatch_jobs_async``,
``WorkloadSpec``) accepts a backend instance, a spec string, or
``None`` for the default.  The default and the spec-shared backends
belong to one process: a forked child builds its own on first use.
"""

from __future__ import annotations

import atexit
import os
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import BackendError, BatchTimeoutError, WorkerCrashError
from repro.resilience import stats as resilience_stats
from repro.resilience.faults import FaultPoint
from repro.resilience.policy import DEFAULT_POLICY, ResiliencePolicy

#: One unit of backend work: a callable plus positional arguments.  A
#: third element — a :class:`FaultPoint` — may ride along when fault
#: injection is active; the backend stamps it into a directive (with
#: the live attempt number and its own name) appended to the args.
Call = Union[Tuple[Callable, tuple], Tuple[Callable, tuple, FaultPoint]]

#: A backend parameter anywhere up the stack: an instance, a spec
#: string ("process:4"), or None for the process-wide default.
BackendSpec = Union["ExecutionBackend", str, None]

#: Smallest shard worth shipping to a worker: below this the dispatch
#: overhead (task hand-off to a worker process) beats the win.
DEFAULT_MIN_SHARD = 4


def _process_worker_init() -> None:
    """Pool initializer: start every worker with cold memo caches.

    Top-level (not a closure) so it pickles by reference under both
    fork and spawn start methods.  Forked workers additionally run the
    ``os.register_at_fork`` hook; spawn workers start cold anyway —
    either way no worker can inherit a parent LRU mid-mutation.
    """
    from repro.crypto.fast import clear_caches
    from repro.resilience.faults import mark_exec_worker

    clear_caches()
    # Lets an injected worker_crash hard-exit the child (a genuine
    # BrokenProcessPool) instead of raising into the parent.
    mark_exec_worker()


class _Success:
    """Per-call outcome: the call returned *value*."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


class _Failure:
    """Per-call outcome: the call raised *error*."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def _serial_outcomes(calls: Sequence[Tuple[Callable, tuple]]) -> List[object]:
    """Run prepared calls in the calling thread, one outcome per call.

    Retryable (:class:`BackendError`) failures keep the sweep going so
    every retryable span is known before the retry round; the first
    non-retryable failure stops execution immediately — it will be
    raised anyway, and later calls must not run twice.
    """
    outcomes: List[object] = []
    for fn, args in calls:
        try:
            outcomes.append(_Success(fn(*args)))
        except BackendError as exc:
            outcomes.append(_Failure(exc))
        except Exception as exc:
            outcomes.append(_Failure(exc))
            break
    return outcomes


class BatchHandle:
    """One in-flight backend span: the futures half of the API.

    Returned by :meth:`ExecutionBackend.submit`.  ``done()`` reports,
    without blocking, whether ``result()``
    would still have to wait on remote workers; ``result()`` waits for
    the span, runs the same retry/watchdog/degradation machinery the
    blocking :meth:`ExecutionBackend.run` applies, and returns the
    per-call results in submission order — byte-identical to what
    ``run()`` on the same calls would have returned.

    The outcome is memoized: every ``result()`` call after the first
    returns the same list (or re-raises the same error), mirroring
    ``concurrent.futures`` semantics.  Handles are not thread-safe;
    one owner collects them.
    """

    __slots__ = ("_backend", "_calls", "_policy", "_token", "_results", "_error")

    def __init__(
        self,
        backend: Optional["ExecutionBackend"],
        calls: List[Call],
        policy: Optional[ResiliencePolicy],
        token: Optional[object],
    ):
        self._backend = backend
        self._calls = calls
        self._policy = policy
        #: Backend-private record of the already-launched first attempt
        #: (e.g. a futures list).  None = nothing is in flight; the
        #: whole span runs synchronously inside :meth:`result`.
        self._token = token
        self._results: Optional[List[object]] = None
        self._error: Optional[BaseException] = None

    @classmethod
    def completed(cls, results: List[object]) -> "BatchHandle":
        """A handle that is already done (empty spans, precomputed work)."""
        handle = cls(None, [], None, None)
        handle._results = results
        return handle

    def done(self) -> bool:
        """True when :meth:`result` will not block on in-flight work.

        Non-blocking.  An unlaunched handle (no async capability — see
        :meth:`ExecutionBackend.submit`) reports True: its ``result()``
        computes in the calling thread, it never *waits*.  Note that a
        True here does not promise the recovery machinery will not run
        — a collected failure may still retry inside ``result()``.
        """
        if self._results is not None or self._error is not None:
            return True
        if self._token is None:
            return True
        return self._backend._token_done(self._token)

    def result(self) -> List[object]:
        """Wait for the span; results in submission order (memoized).

        First call drains the in-flight attempt (watchdogged per the
        policy) and heals failures exactly as
        :meth:`ExecutionBackend.run` would: per-span retries with
        backoff, then the process backend's switch to inline.  Call
        exceptions and exhausted infrastructure failures raise — and
        raise again on every later call.
        """
        if self._error is not None:
            raise self._error
        if self._results is None:
            token, self._token = self._token, None
            try:
                self._results = self._backend._run_recovering(
                    self._calls, self._policy, token
                )
            except BaseException as exc:
                self._error = exc
                raise
        return self._results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "in-flight"
        return f"<BatchHandle {len(self._calls)} call(s), {state}>"


class ExecutionBackend(ABC):
    """Where the batch engine's independent sweeps execute."""

    #: Stable identifier recorded in bench metadata and artifacts.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Per-instance recovery budget (None = module default).
        self.resilience: Optional[ResiliencePolicy] = None

    @property
    @abstractmethod
    def workers(self) -> int:
        """Upper bound on concurrently executing calls (>= 1)."""

    def run(
        self,
        calls: Sequence[Call],
        policy: Optional[ResiliencePolicy] = None,
    ) -> List[object]:
        """Execute every call; results in submission order.

        Implemented as submit-then-drain — ``self.submit(calls,
        policy).result()`` — so the blocking and futures halves of the
        API can never diverge.  Exceptions raised by a call propagate
        to the caller (after all submitted work has been collected or
        abandoned by the pool) — a backend never swallows a crypto
        error.  Infrastructure failures (:class:`BackendError`) are
        healed instead: failed spans retry with exponential backoff,
        and a watchdogged span that overruns is abandoned and retried.
        When retries run out the inline backend raises; the process
        backend enters its inline state and finishes the span there.
        """
        return self.submit(calls, policy).result()

    def submit(
        self,
        calls: Sequence[Call],
        policy: Optional[ResiliencePolicy] = None,
    ) -> BatchHandle:
        """Launch the calls without waiting; a :class:`BatchHandle`.

        The futures half of :meth:`run`: pool backends hand the span
        to their workers immediately and return, so the caller can
        keep doing other work (coalescing the next batch, advancing
        sim time) while the crypto executes — ``handle.result()``
        later collects it, byte-identical to what ``run()`` would have
        returned.  Backends with no overlap to offer — inline, a
        single-worker pool or one in its inline state, a one-call
        span — return an *unlaunched* handle whose ``result()`` simply
        computes on the spot: same results, no concurrency.

        Only the first attempt is launched eagerly; all recovery
        (retries, watchdog, the switch to inline) runs inside
        ``result()``, where failures surface exactly as :meth:`run`
        surfaces them.  The watchdog budget covers the *collection* of
        the span, mirroring the blocking path's accounting.
        """
        calls = list(calls)
        if not calls:
            return BatchHandle.completed([])
        if policy is None:
            policy = self.resilience or DEFAULT_POLICY
        try:
            token = self._launch(calls, 0)
        except BackendError:
            # The pool died before the span launched: result() starts
            # attempt 0 again on a fresh pool.
            token = None
        return BatchHandle(self, calls, policy, token)

    def _launch(self, calls: List[Call], attempt: int) -> Optional[object]:
        """Start one attempt of *calls* without waiting; a token, or None.

        None means this backend has nothing to launch (no pool, one
        worker, a serial-sized span): the calls run in the calling
        thread instead.  A non-None token is backend-private state for
        :meth:`_token_done` / :meth:`_token_collect` (for the pool:
        the futures list).
        """
        return None

    def _token_done(self, token: object) -> bool:
        """Non-blocking: has every launched call finished (or died)?"""
        return all(future.done() for future in token)

    def _token_collect(
        self, token: object, timeout: Optional[float]
    ) -> List[object]:
        """Drain a launched attempt into per-call outcomes (in order).

        Returns :class:`_Success`/:class:`_Failure` wrappers.  Raises
        :class:`BackendError` for *pool-level* failures that doomed
        the whole span — a broken process pool, a watchdog timeout —
        which the retry loop owns.  Only backends whose
        :meth:`_launch` returns tokens implement it.
        """
        raise NotImplementedError

    def _execute(
        self, calls: List[Call], attempt: int, timeout: Optional[float]
    ) -> List[object]:
        """Run one attempt of *calls*: launch, then collect.

        Calls the backend does not launch run in the calling thread
        (the outcomes may then stop short at a non-retryable failure).
        """
        token = self._launch(calls, attempt)
        if token is None:
            return _serial_outcomes(
                [self._prepare(call, attempt) for call in calls]
            )
        return self._token_collect(token, timeout)

    def _prepare(
        self, call: Call, attempt: int
    ) -> Tuple[Callable, tuple]:
        """Bind a call for execution, stamping any fault directive."""
        if len(call) == 2:
            return call  # type: ignore[return-value]
        fn, args, point = call
        return fn, (*args, point.directive(attempt, self.name))

    def _run_recovering(
        self,
        calls: List[Call],
        policy: ResiliencePolicy,
        token: Optional[object] = None,
    ) -> List[object]:
        """Every call's result, healing infrastructure failures.

        *token*, when given, is attempt 0 already launched by
        :meth:`submit`; every later attempt runs through
        :meth:`_execute` on the calls still failing.
        """
        results: List[object] = [None] * len(calls)
        pending = list(range(len(calls)))
        attempt = 0
        while True:
            failed: List[int] = []
            span_error: Optional[BackendError] = None
            try:
                if token is not None:
                    launched, token = token, None
                    outcomes = self._token_collect(
                        launched, policy.watchdog_seconds
                    )
                else:
                    outcomes = self._execute(
                        [calls[i] for i in pending],
                        attempt,
                        policy.watchdog_seconds,
                    )
            except BackendError as exc:
                failed, span_error = pending, exc
            else:
                for index, outcome in zip(pending, outcomes):
                    if not isinstance(outcome, _Failure):
                        results[index] = outcome.value
                    elif isinstance(outcome.error, BackendError):
                        failed.append(index)
                        if span_error is None:
                            span_error = outcome.error
                    else:
                        raise outcome.error
                if not failed:
                    return results
            pending = failed
            if attempt < policy.max_retries:
                attempt = self._note_retry(attempt, policy)
                continue
            healed = self._exhausted(
                span_error, [calls[i] for i in pending], policy
            )
            for index, value in zip(pending, healed):
                results[index] = value
            return results

    @staticmethod
    def _note_retry(attempt: int, policy: ResiliencePolicy) -> int:
        resilience_stats.add("retries")
        pause = policy.backoff(attempt)
        if pause > 0:
            time.sleep(pause)
        return attempt + 1

    def _exhausted(
        self, error: BackendError, calls: List[Call], policy: ResiliencePolicy
    ) -> List[object]:
        """Retries ran out on *calls*: raise *error*, or their results."""
        raise error

    def shard_spans(
        self, count: int, min_shard: int = DEFAULT_MIN_SHARD
    ) -> List[Tuple[int, int]]:
        """Split ``range(count)`` into contiguous per-worker spans.

        At most :attr:`workers` spans, each at least *min_shard* items
        (so tiny batches never shard), sizes differing by at most one
        so the merge is deterministic: concatenating span results in
        order reproduces the unsharded result order exactly.
        """
        if count <= 0:
            return []
        shards = min(max(1, self.workers), max(1, count // max(1, min_shard)))
        if shards <= 1:
            return [(0, count)]
        base, extra = divmod(count, shards)
        spans, start = [], 0
        for index in range(shards):
            stop = start + base + (1 if index < extra else 0)
            spans.append((start, stop))
            start = stop
        return spans

    def close(self) -> None:
        """Release pooled workers (idempotent; inline is a no-op)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


class InlineBackend(ExecutionBackend):
    """Run every call sequentially in the calling thread (default).

    No pool to break, no worker to crash, nothing for a watchdog to
    abandon: injected worker faults are inert here.  A call that keeps
    raising :class:`BackendError` past its retries raises to the
    caller.
    """

    name = "inline"

    @property
    def workers(self) -> int:
        return 1


def _pooled_outcomes(futures, timeout: Optional[float]):
    """Collect future results in submission order under one deadline.

    The deadline covers the whole span, not each future: a hung worker
    must cost one watchdog budget, however wide the batch.  Raises
    :class:`BatchTimeoutError` on expiry with the futures abandoned
    (cancelled where still possible).
    """
    from concurrent.futures import BrokenExecutor, CancelledError
    from concurrent.futures import TimeoutError as FutureTimeout

    deadline = None if timeout is None else time.monotonic() + timeout
    outcomes: List[object] = []
    for future in futures:
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        try:
            outcomes.append(_Success(future.result(remaining)))
        except FutureTimeout:
            for pending in futures:
                pending.cancel()
            resilience_stats.add("watchdog_fires")
            raise BatchTimeoutError(
                f"backend span exceeded its {timeout:.3f}s watchdog"
            ) from None
        except BrokenExecutor:
            # Pool-level, not call-level: the owning backend converts
            # it to a retryable WorkerCrashError.
            raise
        except CancelledError:
            # A watchdog on another span abandoned the pool under it.
            outcomes.append(_Failure(WorkerCrashError("span cancelled: its pool was abandoned")))
        except BackendError as exc:
            outcomes.append(_Failure(exc))
        except Exception as exc:
            outcomes.append(_Failure(exc))
    return outcomes


class ProcessPoolBackend(ExecutionBackend):
    """Shared-nothing worker processes with fork-safe cold caches.

    Calls must be top-level functions with picklable arguments.
    :attr:`inline_reason` is the backend's one health state: once set,
    every call runs in the calling thread — results stay
    byte-identical, only the overlap is lost.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None):
        super().__init__()
        if workers is not None and workers < 1:
            raise ValueError(f"process backend needs >= 1 worker, got {workers}")
        self._requested = workers
        self._pool = None
        self._arena = None
        #: Why every call now runs inline (None = it does not).  Sticky.
        #: Set when the host is a daemonic process, the pool fails to
        #: start, shared memory is unusable, or retries run out on a
        #: crash storm or a watchdog; from then on ``workers == 1`` and
        #: :meth:`dispatch_arena` returns None.
        self.inline_reason: Optional[str] = None

    @property
    def workers(self) -> int:
        if self.inline_reason is not None:
            return 1
        return self._requested or (os.cpu_count() or 1)

    def dispatch_arena(self):
        """The packet arena for descriptor-based dispatches, or None.

        None makes the caller run the dispatch inline: this backend
        cannot run concurrent workers (single-worker, or in its inline
        state — descriptors would only add indirection).  Shared memory
        that turns out to be unusable puts the backend in its inline
        state, so the probe runs once.
        """
        if self.workers <= 1 or self._ensure_pool() is None:
            return None
        if self._arena is None:
            try:
                from repro.crypto.fast.arena import PacketArena

                self._arena = PacketArena()
            except Exception as exc:
                self._go_inline(f"shared-memory arena unavailable: {exc}")
                return None
        return self._arena

    def _go_inline(self, reason: str) -> None:
        """Enter the inline state for good, dropping any pool."""
        self.inline_reason = reason
        self._abandon_pool()

    def _ensure_pool(self):
        if self._pool is not None or self.inline_reason is not None:
            return self._pool
        import multiprocessing

        if multiprocessing.current_process().daemon:
            # Children of daemonic pool workers are forbidden; e.g. a
            # bench kernel running inside the sweep runner's pool.
            self._go_inline("daemonic process cannot spawn workers")
            return None
        try:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_process_worker_init
            )
        except (OSError, ValueError, RuntimeError) as exc:
            self._go_inline(f"process pool unavailable: {exc}")
        return self._pool

    def _abandon_pool(self) -> None:
        """Drop the pool without waiting (hung or broken workers)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    @contextmanager
    def _pool_failures(self):
        """Translate pool-level failures into retryable errors.

        A dead worker (``BrokenProcessPool``) or an expired watchdog
        dooms the whole span, not one call: drop the pool so the retry
        starts on fresh workers, and raise a :class:`BackendError`.
        """
        from concurrent.futures.process import BrokenProcessPool

        try:
            yield
        except BrokenProcessPool as exc:
            self._abandon_pool()
            raise WorkerCrashError(f"process pool broke: {exc}") from exc
        except BatchTimeoutError:
            # The hung worker keeps its slot until the child exits.
            self._abandon_pool()
            raise

    def _prepare(self, call: Call, attempt: int) -> Tuple[Callable, tuple]:
        if self.inline_reason is not None:
            # In the inline state calls run in this thread, where
            # worker faults are inert, exactly as on the inline backend.
            return INLINE._prepare(call, attempt)
        return super()._prepare(call, attempt)

    def _launch(self, calls: List[Call], attempt: int) -> Optional[object]:
        if len(calls) <= 1 or self.workers <= 1:
            return None
        pool = self._ensure_pool()
        if pool is None:
            return None
        with self._pool_failures():
            return [
                pool.submit(fn, *args)
                for fn, args in (self._prepare(call, attempt) for call in calls)
            ]

    def _token_collect(
        self, token: object, timeout: Optional[float]
    ) -> List[object]:
        with self._pool_failures():
            return _pooled_outcomes(token, timeout)

    def _exhausted(
        self, error: BackendError, calls: List[Call], policy: ResiliencePolicy
    ) -> List[object]:
        """Retries ran out: enter the inline state and finish there."""
        if self.inline_reason is not None:
            raise error
        reason = f"{self.name} -> inline: {error}"
        self._go_inline(reason)
        resilience_stats.record_degradation(reason)
        return self._run_recovering(calls, policy)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None


#: Shared inline singleton: shard workers execute through this so a
#: worker can never recursively re-enter its own pool.
INLINE = InlineBackend()


def make_backend(spec: Union[ExecutionBackend, str]) -> ExecutionBackend:
    """Build a backend from a spec: instance, or ``name[:workers]``.

    Accepted names: ``inline`` and ``process`` (a ``:N`` suffix caps
    the worker count, e.g. ``process:4``); ``process-arena`` is an
    alias of ``process``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    text = str(spec).strip().lower()
    name, _, workers_text = text.partition(":")
    try:
        workers = int(workers_text) if workers_text else None
    except ValueError:
        raise ValueError(
            f"bad worker count in backend spec {spec!r}; use e.g. 'process:4'"
        ) from None
    if name in ("", "inline"):
        if workers not in (None, 1):
            raise ValueError("the inline backend has exactly one worker")
        return InlineBackend()
    if name in ("process", "processes", "processpool", "process-arena",
                "process_arena"):
        return ProcessPoolBackend(workers)
    raise ValueError(
        f"unknown execution backend {spec!r}; valid: inline, process[:N], "
        "process-arena[:N] (REPRO_BACKEND uses the same syntax)"
    )


#: Lazily-built process-wide default (None = re-read REPRO_BACKEND).
_DEFAULT_BACKEND: Optional[ExecutionBackend] = None


def default_backend() -> ExecutionBackend:
    """The process-wide backend, seeded from ``REPRO_BACKEND``."""
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        _DEFAULT_BACKEND = make_backend(os.environ.get("REPRO_BACKEND", "inline"))
    return _DEFAULT_BACKEND


def set_default_backend(spec: BackendSpec) -> Optional[ExecutionBackend]:
    """Install the process-wide default; returns the previous one.

    ``None`` uninstalls it, so the next :func:`default_backend` call
    re-reads ``REPRO_BACKEND`` (test isolation hook).  The previous
    backend is returned un-closed — callers own its lifetime.
    """
    global _DEFAULT_BACKEND
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = None if spec is None else make_backend(spec)
    return previous


#: Memoized spec-string resolutions.  Layers may *store* a spec string
#: (e.g. ``CommController.backend = "process:2"``) and resolve it on
#: every dispatch; constructing a fresh pool-backed instance each time
#: would leak one executor per dispatch, so equal specs share one
#: instance for the life of the process.
_SHARED_BACKENDS: dict = {}


def resolve_backend(backend: BackendSpec = None) -> ExecutionBackend:
    """Resolve a ``backend=`` parameter: instance, spec string or None.

    **This is the single normalization point for** :data:`BackendSpec`
    **values.**  Every layer that accepts ``backend=``
    (:func:`~repro.crypto.fast.batch.seal_open_submit`,
    :class:`~repro.mccp.mccp.Mccp`,
    :class:`~repro.radio.comm_controller.CommController`,
    ``SdrPlatform.run_workload``) funnels through here rather than
    re-resolving defensively.  The contract:

    - an :class:`ExecutionBackend` **instance** is a no-op
      pass-through — the very same object comes back, its lifetime
      stays with whoever constructed it, and resolving twice is
      therefore always safe and free;
    - a **spec string** (``"process:4"``) resolves to a process-shared
      instance, memoized per normalized spec, so layers that *store* a
      spec and resolve per dispatch reuse one warm pool instead of
      leaking an executor each time;
    - ``None`` means the process-wide :func:`default_backend` (seeded
      from ``REPRO_BACKEND``).

    Idempotent by construction: ``resolve_backend(resolve_backend(x))
    is resolve_backend(x)`` for every accepted ``x``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return default_backend()
    if isinstance(backend, str):
        key = backend.strip().lower()
        shared = _SHARED_BACKENDS.get(key)
        if shared is None:
            shared = _SHARED_BACKENDS[key] = make_backend(key)
        return shared
    return make_backend(backend)


@atexit.register
def _close_shared_backends() -> None:
    """Shut the module-lifetime pools down before interpreter teardown.

    ProcessPoolExecutor's own atexit hook races module teardown when a
    pool is simply abandoned (spurious ``Exception ignored ...``
    tracebacks on stderr under ``REPRO_BACKEND=process``); closing the
    default and spec-shared backends explicitly drains them while the
    runtime is still whole.
    """
    global _DEFAULT_BACKEND
    for backend in (_DEFAULT_BACKEND, *_SHARED_BACKENDS.values()):
        if backend is not None:
            backend.close()
    _DEFAULT_BACKEND = None
    _SHARED_BACKENDS.clear()


#: Backends a forked child inherited from its parent.  Held, never
#: used: their pools' workers, queues and manager thread belong to the
#: parent, and collecting them would run their finalizers here.
_INHERITED_BACKENDS: list = []


def _forget_inherited_backends() -> None:
    # A forked child (e.g. a sweep-runner pool worker) that submitted
    # to its parent's pool would wait forever.  It re-resolves the
    # default and spec strings on first use, so a daemonic child falls
    # back to inline as _ensure_pool intends.
    global _DEFAULT_BACKEND
    _INHERITED_BACKENDS.extend((_DEFAULT_BACKEND, *_SHARED_BACKENDS.values()))
    _DEFAULT_BACKEND = None
    _SHARED_BACKENDS.clear()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX CI
    os.register_at_fork(after_in_child=_forget_inherited_backends)


__all__ = [
    "Call",
    "BackendSpec",
    "DEFAULT_MIN_SHARD",
    "DEFAULT_POLICY",
    "ResiliencePolicy",
    "BatchHandle",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "INLINE",
    "make_backend",
    "default_backend",
    "set_default_backend",
    "resolve_backend",
]
