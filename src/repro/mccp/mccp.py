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
:meth:`dispatch_jobs_async`): same-key :class:`repro.mccp.channel
.PacketJob` records queue on their channel and drain
:attr:`Channel.coalesce_limit` at a time through the multi-packet
batch engine (:mod:`repro.crypto.fast.batch`) — lane-parallel CBC-MAC,
fused counter sweeps, H-power GHASH.  This layer is the functional
software analogue of the paper's many-channel pipelining, not the
cycle model: it produces the same bytes the simulated cores would
(:meth:`submit` runs the cycle-accurate core path).  Its one caller is
the communication controller's dataplane
(:mod:`repro.radio.comm_controller`): it pops batches under the
channel's :class:`repro.mccp.channel.FlushPolicy`, charges their
simulated time, and calls :meth:`dispatch_jobs_async` per dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.crypto_core import CryptoCore
from repro.core.params import Algorithm, Direction
from repro.crypto.fast.exec import BackendSpec
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
    """One in-flight batch dispatch (futures form).

    Returned by :meth:`Mccp.dispatch_jobs_async`.  ``result()`` waits,
    stamps every job's :attr:`PacketJob.result`, updates the channel
    counters, and returns the :class:`BatchResult` list (memoized).
    A batch that dead-lettered at submit time (unreadable key) comes
    back as an already-completed handle.

    An inline dispatch computes nothing when submitted: it stays
    :attr:`deferred` until its own ``result()`` computes it alone, or
    until a barrier — a :meth:`gather` handle over it — computes every
    deferred member in one engine call.  Arena dispatches start on
    their workers at submission and are never deferred.  Callers that
    do not collect a handle themselves hear of its results through
    :meth:`add_done_callback`.
    """

    __slots__ = (
        "_mccp", "_channel", "_batch",
        "_seal_indices", "_open_indices", "_handle", "_results",
        "_callbacks", "_members",
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
        self._callbacks: List = []
        #: The dispatches a :meth:`gather` handle collects; else None.
        self._members: Optional[List["DispatchHandle"]] = None

    @classmethod
    def completed(cls, results: List[BatchResult]) -> "DispatchHandle":
        """A handle whose batch already resolved at submit time."""
        handle = cls(None, None, (), (), (), None)
        handle._results = results
        return handle

    @classmethod
    def gather(cls, handles: Sequence["DispatchHandle"]) -> "DispatchHandle":
        """The barrier: one handle over several dispatches.

        Its ``result()`` computes every deferred member in one pass of
        :func:`repro.crypto.fast.batch.resolve_deferred` — every
        CBC-MAC chain and counter run of all of them share sweeps —
        then collects each member in order as its own ``result()``
        would (jobs, counters, done callbacks), and returns their
        results concatenated.  Byte-identical to collecting each alone,
        including quarantines.  ``result()`` is all a gathered handle
        offers.
        """
        handle = cls(None, None, (), (), (), None)
        handle._members = list(handles)
        return handle

    @property
    def deferred(self) -> bool:
        """Has the batch computed nothing yet (see the class docstring)?"""
        return self._results is None and self._handle.deferred

    def add_done_callback(self, callback) -> None:
        """Call ``callback(results)`` once ``result()`` has collected the
        batch — right away if it already has."""
        if self._results is not None:
            callback(self._results)
        else:
            self._callbacks.append(callback)

    def result(self) -> List[BatchResult]:
        """Collect the batch: stamp jobs, update stats (memoized)."""
        if self._results is None:
            if self._members is not None:
                self._results = self._collect_members()
            else:
                sealed, opened = self._handle.result()
                self._results = self._mccp._finish_batch(
                    self._channel, self._batch,
                    self._seal_indices, self._open_indices, sealed, opened,
                )
                self._channel.stats["batches"] += 1
            callbacks, self._callbacks = self._callbacks, []
            for callback in callbacks:
                callback(self._results)
        return self._results

    def _collect_members(self) -> List[BatchResult]:
        """A :meth:`gather` handle's ``result()``: compute, then collect.

        The members are let go of here, so the dispatches are freed as
        the collection ends rather than whenever the handle goes.
        """
        from repro.crypto.fast import batch as fast_batch

        members, self._members = self._members, []
        fast_batch.resolve_deferred(
            [member._handle for member in members if member.deferred]
        )
        return [result for member in members for result in member.result()]

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
        max_channels: Optional[int] = None,
    ):
        if core_count < 1:
            raise ProtocolError("MCCP needs at least one core")
        self.sim = sim
        self.timing = timing
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
        self.key_scheduler = KeyScheduler(self.key_memory, timing)
        self.crossbar = Crossbar(timing)
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
            timing,
            policy=policy,
            trace=self.trace,
            **scheduler_kwargs,
        )

        #: Mirrors the return register of section III.B.
        self.return_register = 0

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
                raise ProtocolError(f"cannot execute {instr!r}")
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

    def dispatch_jobs_async(
        self,
        channel_id: int,
        jobs: Sequence[PacketJob],
        backend: BackendSpec = None,
    ) -> DispatchHandle:
        """Submit one already-dequeued batch of *jobs*; a :class:`DispatchHandle`.

        The communication controller pops a batch, charges its modelled
        control/transfer time, then submits it here.  The key fetch
        (with its retry loop) and the backend submission happen now,
        then the caller gets the handle back while process workers run
        the crypto — a pipelined drain keeps coalescing the *next*
        batch meanwhile.  An inline dispatch computes nothing yet: it
        is :attr:`DispatchHandle.deferred` until its ``result()``, or a
        barrier over many dispatches (:meth:`DispatchHandle.gather`),
        computes it.  Which packets quarantine is decided here,
        whenever the bytes are computed.

        ``handle.result()`` stamps each job's :attr:`PacketJob.result`
        and updates the channel statistics (``packets_processed``,
        ``bytes_processed``, ``auth_failures``, ``stats['batches']``)
        as the paper's per-channel counters would, routing quarantined
        packets to the dead-letter queue.  *backend* (None: the process
        default) decides where the seal/open sweeps execute; results
        are byte-identical and identically ordered whichever backend
        runs them.  An unreadable key dead-letters the whole batch
        immediately and returns an already-completed handle.
        """
        channel = self.scheduler.get_channel(channel_id)
        key, key_error = self._fetch_key_resilient(channel, jobs)
        if key is None:
            results = self._dead_letter_batch(channel, jobs, key_error)
            channel.stats["batches"] += 1
            return DispatchHandle.completed(results)
        return self._start_batch(channel, key, jobs, backend)

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
                    _resilience_stats.add("faults_injected")
                    raise InjectedFault(
                        f"injected key-memory read error "
                        f"(channel {channel.channel_id}, key {channel.key_id})"
                    )
                return self.key_memory.fetch_for_scheduler(channel.key_id), ""
            except (KeyStoreError, InjectedFault) as exc:
                last_error = str(exc)
                if attempt + 1 < KEY_FETCH_ATTEMPTS:
                    _resilience_stats.add("retries")
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
        channel.stats["dead_lettered"] += len(jobs)
        _resilience_stats.add("dead_lettered", len(jobs))
        return results

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
        """
        from repro.crypto.fast import batch as fast_batch

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
                    _resilience_stats.add("faults_injected")
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
        )
        return DispatchHandle(
            self, channel, list(batch), seal_indices, open_indices, handle
        )

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
                channel.stats["dead_lettered"] += 1
                _resilience_stats.add("quarantined")
                _resilience_stats.add("dead_lettered")
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
