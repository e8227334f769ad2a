"""The MCCP device facade (paper Fig. 1).

Builds the whole device — N cores with neighbour-wired inter-core
registers and pairwise-shared instruction memories, key memory/
scheduler, crossbar, task scheduler — and exposes both interfaces:

- the **register-level protocol** of section III.B
  (:meth:`execute_instruction`: 32-bit instruction register in, 8-bit
  return register out, charged scheduler overhead), and
- **convenience methods** (:meth:`open_channel`, :meth:`submit`, …)
  used by the communication controller and the benchmarks.

It also exposes the **batched submission path** (:meth:`enqueue_job` /
:meth:`enqueue_packet` / :meth:`dispatch_jobs` / :meth:`flush_channel`
/ :meth:`flush_batches`): same-key :class:`repro.mccp.channel
.PacketJob` records queue on their channel and drain
:attr:`Channel.coalesce_limit` at a time through the multi-packet
batch engine (:mod:`repro.crypto.fast.batch`) — lane-parallel CBC-MAC,
fused counter sweeps, H-power GHASH.  This layer is the functional
software analogue of the paper's many-channel pipelining, not the
cycle model: it produces the same bytes the simulated cores would
(:meth:`submit` runs the cycle-accurate core path).  Simulated time
for batched dispatches is charged by the communication controller's
dataplane (:mod:`repro.radio.comm_controller`), which pops batches
under the channel's :class:`repro.mccp.channel.FlushPolicy` and calls
:meth:`dispatch_jobs_async` per dispatch; the synchronous
:meth:`flush_channel` / :meth:`flush_batches` remain the zero-sim-time
entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.crypto_core import CryptoCore
from repro.core.params import Algorithm, Direction
from repro.crypto.fast.exec import BackendSpec, resolve_backend
from repro.crypto.modes.ccm import _check_params as _ccm_check_params
from repro.crypto.modes.gcm import VALID_TAG_LENGTHS as _GCM_VALID_TAG_LENGTHS
from repro.errors import (
    ChannelError,
    InjectedFault,
    KeyStoreError,
    NoResourceError,
    ProtocolError,
    QuarantinedPacketError,
)
from repro.mccp.channel import Channel, PacketJob
from repro.resilience import faults as _faults
from repro.resilience import stats as _resilience_stats
from repro.mccp.crossbar import Crossbar
from repro.mccp.instructions import (
    CloseInstr,
    DecryptInstr,
    EncryptInstr,
    Instruction,
    OpenInstr,
    RetrieveDataInstr,
    ReturnCode,
    TransferDoneInstr,
)
from repro.mccp.key_memory import KeyMemory
from repro.mccp.key_scheduler import KeyScheduler
from repro.mccp.task_scheduler import PendingRequest, TaskScheduler
from repro.radio.formatting import FormattedTask
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder
from repro.unit.timing import DEFAULT_TIMING, TimingModel

#: The paper's implemented configuration.
DEFAULT_CORE_COUNT = 4

#: Algorithms the batched submission path can dispatch (GMAC rides GCM
#: with an empty payload, matching the ENCRYPT instruction's
#: authenticated-only form).
BATCHABLE_ALGORITHMS = (Algorithm.GCM, Algorithm.CCM)


@dataclass
class BatchResult:
    """Outcome of one packet dispatched through the batch engine."""

    #: False when tag verification failed (DECRYPT only); no payload is
    #: released in that case, mirroring the core purging its FIFO.
    ok: bool
    #: Ciphertext (ENCRYPT) or plaintext (DECRYPT, empty on failure).
    payload: bytes
    #: The freshly computed tag (ENCRYPT only).
    tag: Optional[bytes] = None
    #: Why the packet failed *other than* authentication: a quarantined
    #: (poisoned) packet or an unreadable key.  ``ok`` is False and the
    #: dataplane routes the job to the dead-letter queue instead of
    #: counting an auth failure.  None on every healthy packet.
    error: Optional[str] = None


#: Attempts at a key-memory read before the whole batch dead-letters
#: (the first try plus two retries, mirroring the backend default).
KEY_FETCH_ATTEMPTS = 3


class DispatchHandle:
    """One in-flight :meth:`Mccp.dispatch_jobs` batch (futures form).

    Returned by :meth:`Mccp.dispatch_jobs_async`.  ``done()`` probes
    the underlying backend span without blocking; ``result()``
    waits, stamps every job's :attr:`PacketJob.result`, updates the
    channel counters, and returns the :class:`BatchResult` list —
    byte-identical to what the blocking :meth:`Mccp.dispatch_jobs`
    returns for the same batch, and memoized.  A batch that
    dead-lettered at submit time (unreadable key) comes back as an
    already-completed handle.

    When its own batch still has to compute, ``result()`` first
    resolves every dispatch the device has in flight together
    (:func:`repro.crypto.fast.batch.resolve_together`): the inline CCM
    ones share one CBC-MAC lane sweep across their keys, and each
    keeps its result for its own ``result()``, where its jobs are
    stamped as before.  GCM and arena dispatches resolve alone.
    """

    __slots__ = (
        "_mccp", "_channel", "_batch",
        "_seal_indices", "_open_indices", "_handle", "_results",
    )

    def __init__(self, mccp, channel, batch, seal_indices, open_indices,
                 handle):
        self._mccp = mccp
        self._channel = channel
        self._batch = batch
        self._seal_indices = seal_indices
        self._open_indices = open_indices
        self._handle = handle
        self._results: Optional[List[BatchResult]] = None

    @classmethod
    def completed(cls, results: List[BatchResult]) -> "DispatchHandle":
        """A handle whose batch already resolved at submit time."""
        handle = cls(None, None, (), (), (), None)
        handle._results = results
        return handle

    def done(self) -> bool:
        """Non-blocking: would :meth:`result` still wait on workers?"""
        if self._results is not None:
            return True
        return self._handle.done()

    def result(self) -> List[BatchResult]:
        """Collect the batch: stamp jobs, update stats (memoized)."""
        if self._results is None:
            self._mccp._resolve_in_flight(self._handle)
            sealed, opened = self._handle.result()
            self._results = self._mccp._finish_batch(
                self._channel, self._batch,
                self._seal_indices, self._open_indices, sealed, opened,
            )
            self._channel.stats["batches"] = (
                self._channel.stats.get("batches", 0) + 1
            )
        return self._results

    def discard(self) -> None:
        """Drop the batch uncollected: no job is stamped, no counter moves.

        Whatever the dispatch holds is released (an arena generation
        only once its workers are done), so an interrupted drain leaks
        nothing.
        """
        if self._results is None:
            self._handle.abandon()


class Mccp:
    """A complete Multi-Core Crypto-Processor instance."""

    def __init__(
        self,
        sim: Simulator,
        core_count: int = DEFAULT_CORE_COUNT,
        timing: TimingModel = DEFAULT_TIMING,
        policy=None,
        trace: Optional[TraceRecorder] = None,
        key_memory: Optional[KeyMemory] = None,
        backend: BackendSpec = None,
        max_channels: Optional[int] = None,
    ):
        if core_count < 1:
            raise ProtocolError("MCCP needs at least one core")
        self.sim = sim
        self.timing = timing
        #: Where batched dispatches execute (:mod:`repro.crypto.fast
        #: .exec`): an :class:`ExecutionBackend`, a spec string, or
        #: None for the process default (``REPRO_BACKEND``).  Per-call
        #: ``backend=`` arguments override it.
        self.backend = backend
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

        self.cores: List[CryptoCore] = [
            CryptoCore(sim, timing, index=i, trace=self.trace)
            for i in range(core_count)
        ]
        # Inter-core ports: each core sends to its right neighbour (ring),
        # matching the paper's neighbour pairing of shared memories.
        for i, core in enumerate(self.cores):
            right = self.cores[(i + 1) % core_count]
            core.unit.ic_out = right.unit.ic_in

        self.key_memory = key_memory if key_memory is not None else KeyMemory()
        self.key_scheduler = KeyScheduler(sim, self.key_memory, timing)
        self.crossbar = Crossbar(sim, timing)
        scheduler_kwargs = {}
        if max_channels is not None:
            # Session-scale workloads multiplex thousands of sessions
            # above the channel layer; the hardware table size stays
            # the default for everyone else.
            scheduler_kwargs["max_channels"] = max_channels
        self.scheduler = TaskScheduler(
            sim,
            self.cores,
            self.key_scheduler,
            self.crossbar,
            timing,
            policy=policy,
            trace=self.trace,
            **scheduler_kwargs,
        )

        #: Mirrors the hardware registers of section III.B.
        self.instruction_register = 0
        self.return_register = 0
        #: Batch-engine handles of in-flight dispatches that may still
        #: resolve together (:func:`repro.crypto.fast.batch
        #: .resolve_together`), in submission order.
        self._in_flight: List[object] = []

    # -- register-level protocol ------------------------------------------------

    def execute_instruction(self, instr: Instruction) -> Tuple[ReturnCode, int]:
        """Run one control instruction; returns (code, aux value).

        This is the four-step protocol collapsed to a call: write the
        instruction register, pulse start, busy-wait done, read the
        return register.  The aux value is the channel id (OPEN) or
        request id (ENCRYPT/DECRYPT/RETRIEVE DATA).

        Note: the register-level path cannot carry the full formatted
        task (the hardware receives data through the FIFOs separately);
        ENCRYPT/DECRYPT here only *reserves* resources.  The
        communication controller model uses :meth:`submit` which takes
        the formatted task directly.
        """
        from repro.mccp.instructions import encode_instruction

        self.instruction_register = encode_instruction(instr)
        try:
            if isinstance(instr, OpenInstr):
                channel = self.scheduler.open_channel(instr.algorithm, instr.key_id)
                code, aux = ReturnCode.OK, channel.channel_id
            elif isinstance(instr, CloseInstr):
                self.scheduler.close_channel(instr.channel_id)
                code, aux = ReturnCode.OK, 0
            elif isinstance(instr, (EncryptInstr, DecryptInstr)):
                # Resource check only (see docstring).
                needed = 1
                if not self.scheduler.idle_core_indices():
                    code, aux = ReturnCode.NO_RESOURCE, 0
                else:
                    code, aux = ReturnCode.OK, needed
            elif isinstance(instr, RetrieveDataInstr):
                request = self.scheduler.next_available_request()
                if request is None:
                    code, aux = ReturnCode.NOT_READY, 0
                else:
                    ok, rid = self.scheduler.retrieve(request)
                    code = ReturnCode.OK if ok else ReturnCode.AUTH_FAIL
                    aux = rid
            elif isinstance(instr, TransferDoneInstr):
                request = self.scheduler.requests.get(instr.request_id)
                if request is None:
                    code, aux = ReturnCode.ERROR, 0
                else:
                    self.scheduler.transfer_done(request)
                    code, aux = ReturnCode.OK, instr.request_id
            else:
                code, aux = ReturnCode.ERROR, 0
        except NoResourceError:
            code, aux = ReturnCode.NO_RESOURCE, 0
        except ChannelError:
            code, aux = ReturnCode.UNKNOWN_CHANNEL, 0

        self.return_register = ((aux & 0xF) << 4) | int(code)
        return code, aux

    # -- convenience API (communication-controller path) --------------------------

    def load_session_key(self, key_id: int, key: bytes) -> None:
        """Main-controller action: install a session key."""
        self.key_memory.load_key(key_id, key)

    def open_channel(
        self, algorithm: Algorithm, key_id: int, tag_length: int = 16
    ):
        """OPEN convenience wrapper; returns the Channel."""
        return self.scheduler.open_channel(algorithm, key_id, tag_length)

    def close_channel(self, channel_id: int) -> None:
        """CLOSE convenience wrapper."""
        self.scheduler.close_channel(channel_id)

    def submit(
        self,
        channel_id: int,
        tasks: Sequence[FormattedTask],
        priority: int = 1,
        job: Optional["PacketJob"] = None,
    ) -> PendingRequest:
        """ENCRYPT/DECRYPT + data upload entry point (see CommController)."""
        return self.scheduler.submit(channel_id, tasks, priority, job=job)

    # -- batched submission path (software multi-packet fast path) -----------------

    def enqueue_packet(
        self,
        channel_id: int,
        data: bytes,
        aad: bytes = b"",
        direction: Direction = Direction.ENCRYPT,
        nonce: Optional[bytes] = None,
        tag: Optional[bytes] = None,
    ) -> int:
        """Queue one packet for batched dispatch; returns queue depth.

        Convenience wrapper over :meth:`enqueue_job` for callers that
        deal in raw bytes rather than :class:`PacketJob` records (the
        communication controller builds jobs directly).
        """
        return self.enqueue_job(
            channel_id,
            PacketJob(
                direction=direction,
                nonce=b"" if nonce is None else bytes(nonce),
                data=bytes(data),
                aad=bytes(aad),
                tag=None if tag is None else bytes(tag),
            ),
        )

    def enqueue_job(self, channel_id: int, job: PacketJob) -> int:
        """Queue one :class:`PacketJob` for batched dispatch.

        Returns the queue depth.  The caller owns the nonce (the
        communication controller issues them; reusing one under the
        same key is a protocol violation this layer cannot detect).
        DECRYPT jobs must carry the received tag.  Nothing runs until a
        flush drains the queue, so callers control the coalescing
        window as well as the per-dispatch width (the channel's
        :class:`repro.mccp.channel.FlushPolicy`).
        """
        channel = self.scheduler.get_channel(channel_id)
        if not channel.is_open:
            raise ChannelError(f"channel {channel_id} is closed")
        if channel.algorithm not in BATCHABLE_ALGORITHMS:
            raise ProtocolError(
                f"batched submission supports AEAD channels, "
                f"not {channel.algorithm.name}"
            )
        if not job.nonce:
            raise ProtocolError("batched packets need a caller-issued nonce")
        if job.direction is Direction.DECRYPT:
            if job.tag is None:
                raise ProtocolError("DECRYPT packets must carry the received tag")
            if len(job.tag) != channel.tag_length:
                # Verifying against whatever length arrives would let a
                # forger downgrade to the shortest valid tag.
                raise ProtocolError(
                    f"channel {channel_id} verifies {channel.tag_length}-byte "
                    f"tags, got {len(job.tag)}"
                )
        if channel.algorithm is Algorithm.CCM:
            # Reject bad nonce/payload sizes now: by flush time the batch
            # has left the queue and an exception would drop its packets.
            _ccm_check_params(bytes(job.nonce), channel.tag_length, len(job.data))
        elif channel.tag_length not in _GCM_VALID_TAG_LENGTHS:
            raise ProtocolError(
                f"channel {channel_id} has GCM tag length "
                f"{channel.tag_length}, valid: {_GCM_VALID_TAG_LENGTHS}"
            )
        job.channel_id = channel_id
        return channel.enqueue(job)

    def dispatch_jobs(
        self,
        channel_id: int,
        jobs: Sequence[PacketJob],
        backend: BackendSpec = None,
    ) -> List[BatchResult]:
        """Run one already-dequeued batch of *jobs* through the engine.

        The blocking form of the dataplane's inner step (the
        communication controller pops a batch, charges its modelled
        control/transfer time, then submits it through
        :meth:`dispatch_jobs_async`).  Each job's :attr:`PacketJob.result`
        is stamped; channel statistics (``packets_processed``,
        ``bytes_processed``, ``auth_failures``, ``stats['batches']``)
        update as the paper's per-channel counters would.  *backend*
        (default: the device's :attr:`backend`) decides where the
        seal/open sweeps execute; results are byte-identical and
        identically ordered whichever backend runs them.

        Implemented as submit-then-drain over
        :meth:`dispatch_jobs_async`, so the two can never diverge.
        """
        return self.dispatch_jobs_async(channel_id, jobs, backend).result()

    def dispatch_jobs_async(
        self,
        channel_id: int,
        jobs: Sequence[PacketJob],
        backend: BackendSpec = None,
    ) -> DispatchHandle:
        """Submit one batch without waiting; a :class:`DispatchHandle`.

        The futures form of :meth:`dispatch_jobs`: the key fetch (with
        its retry loop) and the backend submission happen here, then
        the caller gets the handle back while process workers
        run the crypto — a pipelined drain keeps coalescing the *next*
        batch meanwhile.  An inline CCM dispatch computes nothing yet:
        it waits in the device's in-flight set, and the first
        collection that needs a result resolves the whole set in one
        multi-key engine call (see :class:`DispatchHandle`).  Job
        stamping, channel counters and the quarantine/dead-letter
        routing all run inside ``handle.result()``; an unreadable key
        dead-letters the whole batch immediately and returns an
        already-completed handle.
        """
        channel = self.scheduler.get_channel(channel_id)
        resolved = resolve_backend(
            backend if backend is not None else self.backend
        )
        key, key_error = self._fetch_key_resilient(channel, jobs)
        if key is None:
            results = self._dead_letter_batch(channel, jobs, key_error)
            channel.stats["batches"] = channel.stats.get("batches", 0) + 1
            return DispatchHandle.completed(results)
        return self._start_batch(channel, key, jobs, resolved)

    def _fetch_key_resilient(
        self, channel: Channel, jobs: Sequence[PacketJob]
    ) -> Tuple[Optional[bytes], str]:
        """Key-memory read with retry; ``(key, '')`` or ``(None, why)``.

        A read error — real :class:`KeyStoreError`, or injected at the
        ``key_error`` site — retries up to :data:`KEY_FETCH_ATTEMPTS`
        total attempts; exhaustion reports the reason so the caller can
        dead-letter the batch instead of unwinding the dataplane.
        """
        plan = _faults.active_plan()
        fault_key = (channel.channel_id, jobs[0].sequence if jobs else 0)
        last_error = ""
        for attempt in range(KEY_FETCH_ATTEMPTS):
            try:
                if plan is not None and plan.decide(
                    "key_error", fault_key, attempt
                ):
                    _resilience_stats.record_fault()
                    raise InjectedFault(
                        f"injected key-memory read error "
                        f"(channel {channel.channel_id}, key {channel.key_id})"
                    )
                return self.key_memory.fetch_for_scheduler(channel.key_id), ""
            except (KeyStoreError, InjectedFault) as exc:
                last_error = str(exc)
                if attempt + 1 < KEY_FETCH_ATTEMPTS:
                    _resilience_stats.record_retry()
        return None, last_error

    def _dead_letter_batch(
        self, channel: Channel, jobs: Sequence[PacketJob], reason: str
    ) -> List[BatchResult]:
        """Fail every job in the batch into the dead-letter queue."""
        results = []
        for job in jobs:
            result = BatchResult(ok=False, payload=b"", error=reason)
            job.result = result
            results.append(result)
            channel.packets_processed += 1
            channel.bytes_processed += len(job.data)
            channel.dead_letters.append(job)
        channel.stats["dead_lettered"] = channel.stats.get(
            "dead_lettered", 0
        ) + len(jobs)
        _resilience_stats.record_dead_letter(len(jobs))
        return results

    def flush_channel(
        self, channel_id: int, backend: BackendSpec = None
    ) -> List[BatchResult]:
        """Drain one channel's queue through the batch engine.

        One entry point into the canonical flush lifecycle documented
        on :class:`repro.mccp.channel.FlushPolicy` — specifically the
        *explicit force* trigger, taken with zero simulated time.
        Packets dispatch in submission order, :attr:`Channel
        .coalesce_limit` per batch; results come back in the same
        order.  The simulated dataplane
        (:class:`repro.radio.comm_controller.CommController`) drives
        :meth:`dispatch_jobs_async` itself so it can charge scheduler and
        crossbar time per dispatch; its force-drain is ``flush_now``.
        """
        channel = self.scheduler.get_channel(channel_id)
        results: List[BatchResult] = []
        while channel.pending:
            results.extend(
                self.dispatch_jobs(channel_id, channel.take_batch(), backend)
            )
        return results

    def flush_batches(
        self, backend: BackendSpec = None
    ) -> Dict[int, List[BatchResult]]:
        """Flush every channel with queued packets; id -> results.

        The all-channels form of :meth:`flush_channel` — the same
        *explicit force* trigger of the canonical flush lifecycle
        documented on :class:`repro.mccp.channel.FlushPolicy`, applied
        to every non-empty queue in channel-id order.  Channels drain
        sequentially; a process backend parallelises inside each
        dispatch.
        """
        resolved = resolve_backend(backend if backend is not None else self.backend)
        pending_ids = [
            channel_id
            for channel_id, channel in sorted(self.scheduler.channels.items())
            if channel.pending
        ]
        return {
            channel_id: self.flush_channel(channel_id, resolved)
            for channel_id in pending_ids
        }

    def _start_batch(
        self,
        channel: Channel,
        key: bytes,
        batch: Sequence[PacketJob],
        backend: BackendSpec = None,
    ) -> DispatchHandle:
        """Submit one coalesced batch; seals and opens share a sweep.

        The two direction lists go through :func:`repro.crypto.fast
        .batch.seal_open_submit` as one backend pass, so a mixed
        batch's encrypt and decrypt sweeps overlap across workers —
        and the submission returns immediately, leaving the caller
        free until :meth:`DispatchHandle.result`.

        Dispatches run with ``isolate=True``: a packet-level failure (a
        poisoned packet under fault injection) quarantines alone — the
        job gets a failed :class:`BatchResult` carrying the error,
        joins the channel's dead-letter queue, and its batchmates'
        results stay byte-identical to the fault-free run.  Only
        genuine tag-verification failures count toward
        :attr:`Channel.auth_failures`.

        The dispatch is tagged with ``key_ref=(key_id, epoch)`` so the
        arena dataplane's persistent workers can keep their per-key
        warm caches honest: :meth:`repro.mccp.key_scheduler
        .KeyScheduler.invalidate` bumps the epoch on rekey, and workers
        drop exactly the rotated key's warm record (results never
        depend on this — it is purely a cache-invalidation signal).
        """
        from repro.crypto.fast import batch as fast_batch
        from repro.crypto.fast.arena import key_epoch

        plan = _faults.active_plan()
        if plan is not None:
            # Mark injected batch errors while channel/sequence are in
            # hand; the engine checks nonce membership, which crosses
            # process boundaries with the plan.
            for job in batch:
                if plan.decide(
                    "batch_error", (channel.channel_id, job.sequence)
                ) and not plan.is_poisoned(job.nonce):
                    plan.poison(job.nonce)
                    _resilience_stats.record_fault()
        mode = "gcm" if channel.algorithm is Algorithm.GCM else "ccm"
        seal_indices = [
            i for i, p in enumerate(batch) if p.direction is Direction.ENCRYPT
        ]
        open_indices = [
            i for i, p in enumerate(batch) if p.direction is Direction.DECRYPT
        ]
        handle = fast_batch.seal_open_submit(
            mode,
            key,
            [(batch[i].nonce, batch[i].data, batch[i].aad) for i in seal_indices],
            [
                (batch[i].nonce, batch[i].data, batch[i].tag, batch[i].aad)
                for i in open_indices
            ],
            channel.tag_length,
            backend=backend,
            isolate=True,
            key_ref=(channel.key_id, key_epoch(channel.key_id)),
        )
        if handle.fusable:
            self._in_flight.append(handle)
        return DispatchHandle(
            self, channel, list(batch), seal_indices, open_indices, handle
        )

    def _resolve_in_flight(self, handle) -> None:
        """Before *handle* is collected, resolve it with its neighbours.

        Only a collection that still has to compute runs the joint
        resolution, so every dispatch submitted before it joins: a
        drain that reaps an already resolved batch leaves the others
        waiting for the next one.  Whatever cannot join resolves alone
        when collected.
        """
        from repro.crypto.fast import batch as fast_batch

        if handle.fusable:
            fast_batch.resolve_together(self._in_flight)
        self._in_flight = [
            other for other in self._in_flight
            if other.fusable and other is not handle
        ]

    def _finish_batch(
        self,
        channel: Channel,
        batch: Sequence[PacketJob],
        seal_indices: Sequence[int],
        open_indices: Sequence[int],
        sealed,
        opened,
    ) -> List[BatchResult]:
        """Fan collected sweep results back onto the jobs, in order."""
        results: List[Optional[BatchResult]] = [None] * len(batch)
        for i, item in zip(seal_indices, sealed):
            if isinstance(item, QuarantinedPacketError):
                results[i] = BatchResult(ok=False, payload=b"", error=str(item))
            else:
                ciphertext, tag = item
                results[i] = BatchResult(ok=True, payload=ciphertext, tag=tag)
        for i, item in zip(open_indices, opened):
            if isinstance(item, QuarantinedPacketError):
                results[i] = BatchResult(ok=False, payload=b"", error=str(item))
            else:
                results[i] = BatchResult(
                    ok=item is not None, payload=item or b""
                )
        for job, result in zip(batch, results):
            job.result = result
            channel.packets_processed += 1
            channel.bytes_processed += len(job.data)
            if result.error is not None:
                channel.dead_letters.append(job)
                channel.stats["dead_lettered"] = (
                    channel.stats.get("dead_lettered", 0) + 1
                )
                _resilience_stats.record_quarantine()
                _resilience_stats.record_dead_letter()
            elif not result.ok:
                channel.auth_failures += 1
        return results

    @property
    def idle_cores(self) -> int:
        """Number of currently idle cores."""
        return len(self.scheduler.idle_core_indices())

    def utilisation(self) -> float:
        """Fraction of cores currently busy."""
        busy = sum(1 for c in self.cores if c.busy)
        return busy / len(self.cores)
