"""The communication controller (paper sections III.A, VI.B).

Sits between the radio's waveforms and the MCCP: formats every packet
(the cores never format data), issues the control-protocol calls,
uploads/downloads FIFO data through the crossbar, reacts to the
``Data Available`` interrupt, and reassembles secured packets.

Since the dataplane refactor everything flows through one submission
pipeline built around :class:`repro.mccp.channel.PacketJob`:

- :meth:`submit_job` formats a packet into a job and enqueues it on
  its channel (no blocking);
- the channel's :class:`repro.mccp.channel.FlushPolicy` decides when
  queued jobs dispatch — a size threshold (``coalesce_limit``) and a
  sim-time idle deadline (``flush_deadline``) so low-traffic channels
  never stall a packet waiting for batch-mates;
- each dispatch pops one batch, *submits* it to the batch engine
  (:meth:`repro.mccp.mccp.Mccp.dispatch_jobs_async`), charges the
  modelled control + crossbar transfer time and reaps the
  channel's oldest submissions FIFO once more than
  :attr:`CommController.pipeline_depth` are in flight, fanning
  completions back out to per-packet :class:`CompletedTransfer`
  records with correct per-packet latency accounting.  Reaping an
  inline dispatch computes nothing: one barrier
  (:meth:`CommController.resolve`) computes every such dispatch of the
  run together, at its end or on the first read of a deferred
  output.  Depth 0 reaps
  each dispatch as soon as it is submitted (synchronous); a deeper
  pipeline keeps coalescing the next batch while process workers run
  the current one — out-of-order wall-clock completion, strictly
  in-order per-channel fan-out, identical bytes and cycle stamps (the
  paper's pipelining lifted to the system level);
- :meth:`process_packet` / :meth:`secure_packet_sync` are thin
  wrappers over the same job abstraction at batch width 1, running on
  the cycle-accurate simulated cores (``via_cores``) — the engine the
  paper's timing numbers come from.

Implemented as simulation processes so upload, core processing and
download genuinely overlap, which is what the multi-core throughput
numbers depend on.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Deque, Dict, Iterator, List, Optional, Set

from repro.core.params import Algorithm, Direction
from repro.errors import ProtocolError
from repro.mccp.channel import Channel, PacketJob
from repro.mccp.mccp import BATCHABLE_ALGORITHMS, DispatchHandle, Mccp
from repro.mccp.task_scheduler import PendingRequest
from repro.radio.formatting import (
    build_job,
    expected_output_words,
    format_task,
    job_transfer_words,
    parse_output,
)
from repro.radio.packet import Packet, SecuredPacket
from repro.resilience import faults as _faults
from repro.resilience import stats as _resilience_stats
from repro.sim.kernel import Delay, Event, Simulator
from repro.utils.bits import words32_to_bytes


def _output(name: str, doc: str) -> property:
    """A transfer output that a deferred transfer computes on first read."""
    slot = "_" + name

    def read(self):
        if self._resolver is not None:
            self._resolver.resolve()
        return getattr(self, slot)

    def write(self, value) -> None:
        setattr(self, slot, value)

    return property(read, write, doc=doc)


class CompletedTransfer:
    """One finished packet job with parsed outputs.

    ``request`` is set for jobs that ran on the simulated cores;
    batch-engine jobs carry ``request=None`` and reference their
    :class:`PacketJob` instead.  ``channel_id``/``sequence`` identify
    the packet either way.  ``download_done_cycle`` is when the job
    finished; on the cores, ``download_end_cycle`` is when the
    crossbar's download of its output ended (0 if nothing was read).

    A batch-engine transfer may be *deferred*: its dispatch was reaped
    — completion cycle stamped, completion event fired — before any
    byte was computed, and ``payload``, ``tag`` and ``ok`` are not
    final yet.  :meth:`CommController.resolve`, the barrier that
    ``run_workload`` and ``SessionManager.run`` pass before they
    report, computes every deferred dispatch of the controller at
    once.  Reading ``payload``, ``tag`` or ``ok`` of a deferred
    transfer runs that barrier first, so a simulation driven by hand
    (``flush_now``, ``sim.run``) reads final values too.  Nothing a
    simulation decides depends on these outputs, so deferring them
    moves no cycle.
    """

    __slots__ = (
        "request", "job", "channel_id", "sequence", "_payload", "_tag",
        "_ok", "download_done_cycle", "download_end_cycle", "extra", "_resolver", "__weakref__",
    )

    def __init__(
        self,
        request: Optional[PendingRequest] = None,
        job: Optional[PacketJob] = None,
        channel_id: int = -1,
        sequence: int = 0,
        payload: bytes = b"",
        tag: Optional[bytes] = None,
        ok: bool = True,
        download_done_cycle: int = 0,
    ):
        self.request = request
        self.job = job
        self.channel_id = channel_id
        self.sequence = sequence
        self._payload = payload
        self._tag = tag
        self._ok = ok
        self.download_done_cycle = download_done_cycle
        self.download_end_cycle = 0
        self.extra: dict = {}
        #: The controller whose barrier computes this transfer's
        #: outputs; None once they are final.
        self._resolver: Optional["CommController"] = None

    payload = _output("payload", "Ciphertext (ENCRYPT) or plaintext (DECRYPT).")
    tag = _output("tag", "The computed tag (ENCRYPT only).")
    ok = _output("ok", "False on a failed authentication or a dead letter.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "deferred" if self._resolver is not None else f"ok={self._ok}"
        return (
            f"<CompletedTransfer ch{self.channel_id} seq{self.sequence} "
            f"{state} @{self.download_done_cycle}>"
        )


class _InflightDispatch:
    """One submitted-but-uncollected dispatch of a channel's drain.

    ``dispatched_cycle`` is the sim cycle right after the dispatch's
    control + crossbar delays: completions are stamped with it at reap
    time, so latency accounting does not depend on the pipeline depth —
    only wall-clock execution overlaps.
    """

    __slots__ = ("handle", "batch", "dispatched_cycle")

    def __init__(self, handle, batch: List[PacketJob], dispatched_cycle: int):
        self.handle = handle
        self.batch = batch
        self.dispatched_cycle = dispatched_cycle


class CommController:
    """Drives the MCCP on behalf of the radio."""

    def __init__(
        self, sim: Simulator, mccp: Mccp, seed: int = 0, backend=None
    ):
        self.sim = sim
        self.mccp = mccp
        self._seed = seed
        #: Execution backend for batched dispatches (:mod:`repro.crypto
        #: .fast.exec` spec/instance; None defers to the MCCP's own
        #: default and ultimately ``REPRO_BACKEND``).
        self.backend = backend
        self._nonce_counter = seed << 32
        #: Finished transfers: core-path requests key by request id,
        #: batch-path jobs by a negative job counter (-1, -2, ...).
        self.completed: Dict[int, CompletedTransfer] = {}
        # -- per-run counters (restarted by run_state) -----------------
        #: Per-packet latency records (creation -> download done).
        self.latencies: List[int] = []
        #: The same records keyed by the job's priority class — the
        #: feed for the per-class SLA percentiles (0 = control,
        #: 1 = interactive, 2 = bulk).
        self.class_latencies: Dict[int, List[int]] = {}
        self.auth_failures = 0
        #: NoResourceError retries observed by job-pipeline callers
        #: (radio-side backpressure; see SdrPlatform.run_workload).
        self.backpressure_retries = 0
        #: The cycle the current (or last) run started at: arrivals and
        #: the report's ``total_cycles`` count from here.
        self.run_start = 0
        #: Per-channel dead-letter queue: failed CompletedTransfers for
        #: jobs that ended unrecoverably (quarantined packet, key-read
        #: exhaustion) — never auth failures, which stay in the normal
        #: completion accounting.  ``transfer.extra['dead_letter']``
        #: carries the reason.
        self.dead_letter: Dict[int, List[CompletedTransfer]] = {}
        # -- flush-policy machinery (batched dispatch) -----------------
        self._jobs_completed = 0
        self._flush_scheduled: Set[int] = set()
        self._draining: Set[int] = set()
        self._drain_done: Dict[int, Event] = {}
        self._deadlines: Dict[int, object] = {}
        # -- dispatch pipeline -----------------------------------------
        #: Dispatches one channel may keep in flight before its drain
        #: blocks to reap the oldest.  0 is the synchronous dataplane:
        #: every dispatch is reaped as soon as it is submitted.  Above
        #: 0 the simulator coalesces and flushes the next batch while
        #: process workers run the current one; completions still fan
        #: out strictly in per-channel submission order, stamped with
        #: the same cycles as at depth 0.
        #: Under the arena dataplane each in-flight dispatch also pins
        #: one arena generation (its slab region stays reserved until
        #: the handle is reaped), so this bound doubles as the arena's
        #: high-water mark: slab footprint is at most ``pipeline_depth
        #: + 1`` generations per channel.
        self.pipeline_depth = 0
        #: Per-channel FIFO of submitted-but-uncollected dispatches;
        #: the FIFO *is* the in-order fan-out guarantee.
        self._inflight: Dict[int, Deque[_InflightDispatch]] = {}
        #: Every dispatch reaped deferred, in reap order: the work of
        #: the next :meth:`resolve`.
        self._unresolved: List[DispatchHandle] = []
        #: Peak number of concurrently in-flight dispatches across all
        #: channels (reported by ``run_workload`` as pipeline overlap).
        self.pipeline_in_flight_peak = 0

    # -- per-run dataplane state -------------------------------------------------

    @contextmanager
    def run_state(
        self, backend=None, pipeline_depth: int = 0
    ) -> Iterator[_resilience_stats.RunCounters]:
        """Install one run's dispatch state and open its counter scope.

        *backend* replaces the controller's own only when given;
        *pipeline_depth* always applies.  The per-run counters —
        latencies, auth failures, backpressure retries, the
        in-flight peak and the task scheduler's core submits — restart
        at zero and :attr:`run_start` records the current cycle, so
        everything the run reports is its own; dispatches an earlier
        simulation left deferred are resolved first, into the counters
        they belong to.  Yields the run's resilience counter scope
        (:func:`repro.resilience.stats.counting`).  The dispatch state
        is restored in a ``finally``, so a run that raises leaves the
        controller as it found it.
        """
        self.resolve()
        saved = (self.backend, self.pipeline_depth)
        if backend is not None:
            self.backend = backend
        self.pipeline_depth = pipeline_depth
        self.pipeline_in_flight_peak = 0
        self.latencies = []
        self.class_latencies = {}
        self.auth_failures = 0
        self.backpressure_retries = 0
        self.mccp.scheduler.requests_submitted = 0
        self.run_start = self.sim.now
        try:
            with _resilience_stats.counting() as counters:
                yield counters
        finally:
            self.backend, self.pipeline_depth = saved

    # -- nonce management -------------------------------------------------------

    def next_nonce(self, algorithm: Algorithm) -> bytes:
        """Fresh, never-repeating nonce of the mode's radio length."""
        self._nonce_counter += 1
        return self._encode_nonce(algorithm, self._nonce_counter)

    def nonce_for(self, channel: Channel, sequence: int) -> bytes:
        """Deterministic per-(channel, sequence) nonce.

        Unlike the shared :meth:`next_nonce` counter, the value does
        not depend on the interleaving of submissions across channels,
        so a workload replayed through a different dataplane (per-packet
        cores vs batched engine) secures every packet under the same
        nonce — the property the byte-equivalence suite pins.  Unique
        per (seed, channel, sequence), and kept disjoint from the
        :meth:`next_nonce` counter space by the top marker bit (a
        counter value would need seed >= 2^63 to set it), so the two
        issuers can safely share a session key.
        """
        value = (
            (1 << 95)  # marker: deterministic-nonce space
            | ((self._seed & 0x7FFF) << 80)
            | ((channel.channel_id & 0xFFFF) << 64)
            | (sequence & 0xFFFFFFFFFFFFFFFF)
        )
        return self._encode_nonce(channel.algorithm, value)

    @staticmethod
    def _encode_nonce(algorithm: Algorithm, value: int) -> bytes:
        if algorithm is Algorithm.GCM:
            return value.to_bytes(12, "big")
        if algorithm is Algorithm.CCM:
            return value.to_bytes(13, "big")
        if algorithm is Algorithm.CTR:
            return (value << 16).to_bytes(16, "big")
        raise ProtocolError(f"{algorithm!r} takes no nonce")

    # -- unified job submission ----------------------------------------------------

    def submit_job(
        self,
        channel: Channel,
        packet: Packet,
        direction: Direction = Direction.ENCRYPT,
        nonce: Optional[bytes] = None,
        tag: Optional[bytes] = None,
        completion: Optional[Event] = None,
    ) -> PacketJob:
        """Format *packet* into a job and enqueue it (non-blocking).

        The batched half of the pipeline: the job joins its channel's
        coalescing queue and the flush policy decides when it
        dispatches.  Returns the job; its ``completion`` event triggers
        with the :class:`CompletedTransfer` once the dispatch that
        carries it drains.  Channels whose algorithm the batch engine
        cannot run (CTR streams, two-core CCM splits) must go through
        :meth:`process_packet` instead — the same job abstraction on
        the cores engine.
        """
        if channel.algorithm not in BATCHABLE_ALGORITHMS:
            raise ProtocolError(
                f"channel {channel.channel_id} ({channel.algorithm.name}) "
                "cannot use the batched dataplane; submit via process_packet"
            )
        if nonce is None:
            nonce = self.nonce_for(channel, packet.sequence)
        job = build_job(channel, packet, direction, nonce=nonce, tag=tag)
        job.enqueued_cycle = self.sim.now
        job.completion = (
            completion
            if completion is not None
            else self.sim.event(f"job.ch{channel.channel_id}.s{packet.sequence}")
        )
        self.mccp.enqueue_job(channel.channel_id, job)
        self._note_enqueue(channel)
        return job

    # -- flush-policy machinery ----------------------------------------------------

    def _note_enqueue(self, channel: Channel) -> None:
        """Apply the channel's flush policy after one enqueue."""
        policy = channel.flush_policy
        if channel.pending_count >= policy.coalesce_limit:
            self._schedule_drain(channel, force=False, cause="size")
        elif policy.flush_deadline is None:
            pass  # size-only: caller drains explicitly at end of stream
        elif policy.flush_deadline == 0:
            self._schedule_drain(channel, force=True, cause="deadline")
        else:
            self._arm_deadline(channel)

    def _arm_deadline(self, channel: Channel) -> None:
        """Ensure a deadline wake-up exists for the oldest queued job."""
        cid = channel.channel_id
        if cid in self._deadlines:
            return
        anchor = channel.oldest_pending_cycle
        if anchor is None:
            return
        due = max(self.sim.now, anchor + channel.flush_policy.flush_deadline)
        self._deadlines[cid] = self.sim.call_at(due, self._deadline_fired, channel)

    def _deadline_fired(self, channel: Channel) -> None:
        self._deadlines.pop(channel.channel_id, None)
        if channel.pending:
            self._schedule_drain(channel, force=True, cause="deadline")

    def _schedule_drain(self, channel: Channel, force: bool, cause: str) -> None:
        """Spawn (at most one) drain process for *channel*."""
        cid = channel.channel_id
        if cid in self._flush_scheduled:
            return
        self._flush_scheduled.add(cid)

        def proc():
            try:
                yield from self._drain_channel(channel, force=force, cause=cause)
            finally:
                self._flush_scheduled.discard(cid)
                self._after_drain(channel)

        self.sim.add_process(proc(), name=f"dataplane.flush.ch{cid}")

    def _after_drain(self, channel: Channel) -> None:
        """Re-apply the policy to whatever is still (or newly) queued."""
        if channel.pending:
            self._note_enqueue(channel)

    def _drain_channel(self, channel: Channel, force: bool, cause: str):
        """Process: pop and dispatch batches per the flush policy.

        The *dispatch* step of the canonical flush lifecycle documented
        on :class:`repro.mccp.channel.FlushPolicy`.  Each dispatch
        charges one scheduler control overhead (the coalesced
        ENCRYPT/DECRYPT instruction — amortised across the batch, which
        is the point of coalescing) plus the crossbar word time of
        everything the batch moves, then runs the batch engine and
        stamps per-packet completions.  ``force`` drains under-filled
        batches (deadline/end-of-stream); otherwise only full batches
        leave.

        Every dispatch is *submitted* as soon as its batch leaves the
        queue, before those delays: the channel's key is read from key
        memory at that moment — the control instruction precedes the
        crossbar upload in the model — so a key rewritten while the
        drain sleeps in the control or crossbar charge applies to the
        next batch, not this one (a rekey barrier cannot land there
        anyway: ``flush_now`` waits for the drain).  Submitting early
        lets process workers start during the modelled delay, and it is
        when the fault plan decides which of the batch's packets
        quarantine.  Completions are stamped with the cycle after
        the delays.  After the delays the drain reaps the
        channel's oldest handle while more than :attr:`pipeline_depth`
        are in flight — at depth 0 that is the dispatch just submitted,
        so the batch completes before the drain goes on.  Reaping an
        inline dispatch computes no byte: its transfers are deferred to
        the run's barrier (:meth:`resolve`), which computes every
        channel's dispatches of the whole run together.  A forced
        drain reaps every outstanding handle before it returns, so
        end-of-stream semantics (and ``close_channel``'s in-flight
        guard) do not depend on the depth.  Reaping is strictly FIFO
        per channel, which is what turns out-of-order wall-clock
        completion into in-order per-channel fan-out.
        """
        cid = channel.channel_id
        while cid in self._draining:
            # Another process is flushing this channel; sleep until its
            # drain-done event instead of polling the sim clock.
            yield self._drain_done[cid]
        transfers: List[CompletedTransfer] = []
        self._draining.add(cid)
        self._drain_done[cid] = self.sim.event(f"dataplane.drained.ch{cid}")
        queue = self._inflight.setdefault(cid, deque())
        try:
            while channel.pending and (
                force
                or channel.pending_count >= channel.flush_policy.coalesce_limit
            ):
                batch = channel.take_batch()
                # Popped jobs leave `pending` but must stay visible to
                # close_channel until their completions fire — the
                # dispatch is about to yield simulated time.
                channel.in_flight += len(batch)
                handle = None
                try:
                    handle = self.mccp.dispatch_jobs_async(
                        cid, batch, backend=self.backend
                    )
                    yield self.mccp.scheduler.overhead_delay()
                    words = sum(job_transfer_words(job) for job in batch)
                    yield Delay(words * self.mccp.timing.crossbar_word_cycles)
                except BaseException:
                    channel.in_flight -= len(batch)
                    if handle is not None:
                        handle.discard()
                    raise
                queue.append(_InflightDispatch(handle, batch, self.sim.now))
                channel.stats[f"flush_{cause}"] += 1
                if self.pipeline_depth:
                    # Overlap exists only when dispatches may stay in
                    # flight; a synchronous run reports a peak of 0.
                    depth = sum(len(q) for q in self._inflight.values())
                    if depth > self.pipeline_in_flight_peak:
                        self.pipeline_in_flight_peak = depth
                while len(queue) > self.pipeline_depth:
                    transfers.extend(self._reap_oldest(channel))
            if force:
                # A forced drain is a pipeline barrier: everything this
                # channel still has in flight (including batches earlier
                # size-triggered drains left cooking) fans out before we
                # return, so flush_now callers see a fully quiesced
                # channel.
                while queue:
                    transfers.extend(self._reap_oldest(channel))
        finally:
            self._draining.discard(cid)
            self._drain_done.pop(cid).trigger()
        if not channel.pending and cid in self._deadlines:
            self.sim.cancel(self._deadlines.pop(cid))
        return transfers

    def _reap_oldest(self, channel: Channel) -> List[CompletedTransfer]:
        """Collect the channel's oldest in-flight dispatch; fan out.

        Completion records are stamped with the dispatch's recorded
        cycle, not the reap cycle, keeping latency accounting
        independent of the pipeline depth.  A deferred dispatch
        (:attr:`repro.mccp.mccp.DispatchHandle.deferred`) is fanned out
        without computing a byte: its transfers wait for
        :meth:`resolve`.  Any other dispatch is collected here, which
        for an arena dispatch blocks (wall-clock, zero sim time) until
        its workers finish — the same retries/quarantine machinery the
        blocking dispatch applies runs here.
        """
        entry = self._inflight[channel.channel_id].popleft()
        try:
            results = None if entry.handle.deferred else entry.handle.result()
        finally:
            channel.in_flight -= len(entry.batch)
        transfers = [
            self._complete_batch_job(job, entry.dispatched_cycle)
            for job in entry.batch
        ]
        if results is None:
            for transfer in transfers:
                transfer._resolver = self
            entry.handle.add_done_callback(partial(self._settle, transfers))
            self._unresolved.append(entry.handle)
        else:
            self._settle(transfers, results)
        return transfers

    def resolve(self) -> None:
        """The barrier: compute every deferred transfer's outputs.

        Every dispatch reaped deferred since the last barrier runs
        through one :meth:`repro.mccp.mccp.DispatchHandle.gather` handle —
        the CBC-MAC chains and counter runs of all of them as the
        lanes of shared sweeps — then each dispatch stamps its jobs and
        channel counters and its transfers get their final ``payload``,
        ``tag`` and ``ok``, auth failures and dead letters routed as
        if each had been collected when reaped.  ``run_workload`` and
        ``SessionManager.run`` call it before they fill their report;
        reading a deferred transfer's outputs calls it too.  Never a
        side effect of ``flush_now``, so rekeys and teardowns do not
        narrow the sweeps.
        """
        if self._unresolved:
            barrier, self._unresolved = DispatchHandle.gather(self._unresolved), []
            barrier.result()

    def flush_now(self, channel: Channel):
        """Process: force-drain everything queued on *channel*.

        The *explicit force* trigger of the canonical flush lifecycle
        documented on :class:`repro.mccp.channel.FlushPolicy` — the
        end-of-stream hook for size-only policies and workload tails,
        where waiting out an idle deadline after the last packet would
        charge phantom latency.  It is also the pipeline barrier: the
        returned transfers include any still-in-flight batches from
        earlier drains, reaped in submission order, so the channel is
        fully quiesced on return.
        """
        transfers = yield from self._drain_channel(
            channel, force=True, cause="forced"
        )
        return transfers

    def _complete_batch_job(self, job: PacketJob, stamp: int) -> CompletedTransfer:
        """Fan one batch-engine job back out to a per-packet record.

        *stamp* is the cycle the job's dispatch completed at (see
        :class:`_InflightDispatch`), whichever cycle it is reaped at.
        The outputs come later, from :meth:`_settle`.
        """
        transfer = CompletedTransfer(
            job=job,
            channel_id=job.channel_id,
            sequence=job.sequence,
            download_done_cycle=stamp,
        )
        self._jobs_completed += 1
        self.completed[-self._jobs_completed] = transfer
        self._finish_job(job, transfer, stamp)
        return transfer

    def _settle(self, transfers: List[CompletedTransfer], results) -> None:
        """Give a dispatch's transfers their outcomes (BatchResults)."""
        for transfer, result in zip(transfers, results):
            transfer._resolver = None
            transfer._payload, transfer._tag, transfer._ok = (
                result.payload, result.tag, result.ok,
            )
            if result.ok:
                continue
            if result.error is not None:
                # Unrecoverable failure, not a forged tag: route to the
                # channel's dead-letter queue for SLA drop accounting.
                transfer.extra["dead_letter"] = result.error
                self.dead_letter.setdefault(transfer.channel_id, []).append(
                    transfer
                )
            else:
                self.auth_failures += 1

    def _finish_job(
        self, job: PacketJob, transfer: CompletedTransfer, stamp: int
    ) -> None:
        """Stamp *job* done at *stamp*: latency, record, completion event.

        The job keeps only a weak link to its record and lets go of its
        completion event once fired (the waiters hold it), so a
        finished job and its record form no reference cycle.
        """
        job.completed_cycle = stamp
        job.transfer = transfer
        latency = stamp - job.created_cycle
        self.latencies.append(latency)
        self.class_latencies.setdefault(job.priority, []).append(latency)
        completion, job.completion = job.completion, None
        if completion is not None and not completion.triggered:
            completion.trigger(transfer)

    # -- cores engine (cycle-accurate width-1 path) --------------------------------

    def process_packet(
        self,
        channel,
        packet: Packet,
        direction: Direction = Direction.ENCRYPT,
        nonce: Optional[bytes] = None,
        tag: Optional[bytes] = None,
        two_core: bool = False,
        completion: Optional[Event] = None,
    ):
        """Generator process: one packet through the pipeline, width 1.

        Builds the same :class:`PacketJob` the batched path uses and
        runs it on the simulated cores (format, submit, upload, await,
        download) — the cycle-accurate engine.  Triggers *completion*
        (if given) with a :class:`CompletedTransfer`; also records it
        in :attr:`completed`.  Raises :class:`NoResourceError` out of
        the submit step if no core is idle — callers that want queueing
        catch it and retry (see :class:`repro.radio.sdr_platform`).
        """
        if nonce is None:
            nonce = self.next_nonce(channel.algorithm)
        job = build_job(
            channel,
            packet,
            direction,
            nonce=nonce,
            tag=tag,
            two_core=two_core,
            via_cores=True,
        )
        job.completion = completion
        transfer = yield from self._run_core_job(channel, job)
        return transfer

    def _run_core_job(self, channel, job: PacketJob):
        """Generator: carry one job out on the simulated cores."""
        result = format_task(
            channel.algorithm,
            channel.key_bits,
            job.direction,
            nonce=job.nonce,
            aad=job.aad,
            data=job.data,
            tag_length=channel.tag_length,
            tag=job.tag,
            two_core=job.two_core,
        )
        tasks = result if isinstance(result, tuple) else (result,)
        job.enqueued_cycle = self.sim.now
        plan = _faults.active_plan()
        if plan is not None and plan.decide(
            "core_stall", (job.channel_id, job.sequence)
        ):
            # An injected core stall costs simulated cycles only; the
            # job's bytes are untouched and order is preserved because
            # the stall happens before the core is even requested.
            _resilience_stats.add("faults_injected")
            yield Delay(plan.stall_cycles)
        # ENCRYPT/DECRYPT control instruction (scheduler software cost).
        yield self.mccp.scheduler.overhead_delay()
        request = self.mccp.submit(
            channel.channel_id, tasks, job.priority, job=job
        )
        ready = request.ready_event  # cleared once it fires

        # Upload every task's input stream (one word per crossbar-port
        # cycle).  Encrypt output is drained *while* the core runs: a
        # 2 KB packet plus its tag is 129 blocks, one more than the
        # output FIFO holds, so the hardware communication controller
        # must also read as data becomes available.  Decrypt output is
        # only read after RETRIEVE DATA returns OK (section IV.C).
        out_task = tasks[-1]
        nwords = expected_output_words(out_task)
        sink: List[int] = []
        is_decrypt = job.direction is Direction.DECRYPT
        download = None
        if not is_decrypt and nwords:
            download = self.mccp.crossbar.download_words(
                self.mccp.cores[request.output_core_index], sink, nwords
            )
        for core_index, task in zip(request.core_indices, tasks):
            core = self.mccp.cores[core_index]
            upload = self.mccp.crossbar.upload_blocks(core, task.input_blocks)
            yield upload.done

        # Wait for the core(s) — the Data Available interrupt edge.
        yield ready

        # RETRIEVE DATA.
        yield self.mccp.scheduler.overhead_delay()
        ok, _rid = self.mccp.scheduler.retrieve(request)
        transfer = CompletedTransfer(
            request=request,
            job=job,
            channel_id=job.channel_id,
            sequence=job.sequence,
            ok=ok,
        )
        if ok:
            if is_decrypt and nwords:
                download = self.mccp.crossbar.download_words(
                    self.mccp.cores[request.output_core_index], sink, nwords
                )
            if download is not None:
                transfer.download_end_cycle = yield download.done
            transfer.payload, transfer.tag = parse_output(
                out_task, words32_to_bytes(sink)
            )
        else:
            self.auth_failures += 1
        yield self.mccp.scheduler.overhead_delay()
        self.mccp.scheduler.transfer_done(request)
        transfer.download_done_cycle = self.sim.now
        self.completed[request.request_id] = transfer
        self._finish_job(job, transfer, self.sim.now)
        return transfer

    # -- convenience wrappers ------------------------------------------------------

    def secure_packet_sync(
        self, channel, packet: Packet, two_core: bool = False,
        limit: int = 200_000_000,
    ) -> SecuredPacket:
        """Blocking helper: run the whole encrypt path for one packet.

        *limit* is a cycle budget counted from the call.
        """
        done = self.sim.event("secure_packet")

        def proc():
            transfer = yield from self.process_packet(
                channel, packet, Direction.ENCRYPT, two_core=two_core,
            )
            done.trigger(transfer)

        self.sim.add_process(proc(), name="secure_packet")
        transfer: CompletedTransfer = self.sim.run_until_event(
            done, limit=self.sim.now + limit
        )
        return SecuredPacket(
            channel_id=packet.channel_id,
            header=packet.header,
            ciphertext=transfer.payload,
            tag=transfer.tag,
            nonce=b"",
            sequence=packet.sequence,
            completed_cycle=self.sim.now,
        )
