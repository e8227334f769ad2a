"""The Task Scheduler (paper sections III.A–III.C).

Dispatches cryptographic tasks to cores: allocates channels (OPEN),
selects cores for ENCRYPT/DECRYPT via a pluggable mapping policy
(first-idle by default, as in the paper's current release), launches
the Key Scheduler, loads firmware, raises the ``Data Available``
interrupt when a core finishes (each request's ``ready_event``), and
answers RETRIEVE DATA.

Each control instruction is charged
:attr:`TimingModel.scheduler_overhead_cycles` of 8-bit-controller
software time, which is where the small fixed gap between theoretical
and packet throughput partly comes from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.crypto_core import CoreResult, CryptoCore
from repro.core.params import Algorithm
from repro.errors import ChannelError, NoResourceError, ProtocolError
from repro.mccp.channel import Channel, PacketJob
from repro.mccp.key_scheduler import KeyScheduler
from repro.radio.formatting import FormattedTask
from repro.sim.kernel import Delay, Event, Simulator
from repro.sim.tracing import TraceRecorder
from repro.unit.timing import TimingModel

#: The paper's hardware channel-table size; the software scheduler
#: accepts a larger ``max_channels`` for session-scale workloads
#: (thousands of concurrent sessions above the channel layer).
MAX_CHANNELS = 16


class RequestState(enum.Enum):
    """Lifecycle of one ENCRYPT/DECRYPT request."""

    RUNNING = "running"
    DATA_AVAILABLE = "data_available"
    RETRIEVED = "retrieved"
    DONE = "done"


@dataclass
class PendingRequest:
    """Book-keeping for one in-flight packet task."""

    request_id: int
    channel_id: int
    core_indices: Tuple[int, ...]
    tasks: Tuple[FormattedTask, ...]
    submit_cycle: int
    state: RequestState = RequestState.RUNNING
    results: List[CoreResult] = field(default_factory=list)
    complete_cycle: Optional[int] = None
    #: Triggers when the request is done; cleared once it fires.
    done_event: Optional[Event] = None
    #: Triggers when all cores finished (the Data Available edge);
    #: cleared once it fires (wait on the event taken at submit).
    ready_event: Optional[Event] = None
    #: The dataplane job this request carries out (None for callers
    #: that drive :meth:`TaskScheduler.submit` with raw tasks).
    job: Optional["PacketJob"] = None

    @property
    def auth_failed(self) -> bool:
        """True if any participating core reported AUTH_FAIL."""
        return any(r.auth_failed for r in self.results)

    @property
    def output_core_index(self) -> int:
        """The core whose output FIFO holds the request's results.

        For two-core CCM that is the CTR-role core (the second index).
        """
        return self.core_indices[-1]


class TaskScheduler:
    """Core allocation and request tracking."""

    def __init__(
        self,
        sim: Simulator,
        cores: Sequence[CryptoCore],
        key_scheduler: KeyScheduler,
        timing: TimingModel,
        policy=None,
        trace: Optional[TraceRecorder] = None,
        max_channels: int = MAX_CHANNELS,
    ):
        from repro.sched.first_idle import FirstIdlePolicy

        if max_channels < 1:
            raise ProtocolError("max_channels must be >= 1")
        self.max_channels = max_channels
        self.sim = sim
        self.cores = list(cores)
        self.key_scheduler = key_scheduler
        self.timing = timing
        self.policy = policy if policy is not None else FirstIdlePolicy()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

        self.channels: Dict[int, Channel] = {}
        self.requests: Dict[int, PendingRequest] = {}
        self._next_channel = 0
        self._next_request = 0
        self.requests_submitted = 0

    # -- channels ----------------------------------------------------------

    def open_channel(
        self, algorithm: Algorithm, key_id: int, tag_length: int = 16
    ) -> Channel:
        """OPEN: allocate a channel bound to (algorithm, key id)."""
        if len(self.channels) >= self.max_channels:
            raise NoResourceError("no free channel slots")
        key_bits = self.key_scheduler.key_memory.key_bits(key_id)
        channel = Channel(
            channel_id=self._next_channel,
            algorithm=algorithm,
            key_id=key_id,
            key_bits=key_bits,
            tag_length=tag_length,
        )
        self.channels[channel.channel_id] = channel
        self._next_channel += 1
        self.trace.record(
            self.sim.now, "sched", "open", channel=channel.channel_id,
            algorithm=algorithm.name,
        )
        return channel

    def close_channel(self, channel_id: int) -> None:
        """CLOSE: tear the channel down (pending requests must be done)."""
        channel = self._channel(channel_id)
        busy = [
            r for r in self.requests.values()
            if r.channel_id == channel_id and r.state is not RequestState.DONE
        ]
        if busy:
            raise ChannelError(
                f"channel {channel_id} has {len(busy)} unfinished requests"
            )
        if channel.pending or channel.in_flight:
            raise ChannelError(
                f"channel {channel_id} has {len(channel.pending)} packets "
                f"queued for batched dispatch and {channel.in_flight} in a "
                "dispatch in flight (flush first)"
            )
        channel.close()
        del self.channels[channel_id]

    def get_channel(self, channel_id: int) -> Channel:
        """Resolve an open channel id; raises :class:`ChannelError`."""
        return self._channel(channel_id)

    def _channel(self, channel_id: int) -> Channel:
        try:
            return self.channels[channel_id]
        except KeyError as exc:
            raise ChannelError(f"unknown channel {channel_id}") from exc

    # -- core selection -----------------------------------------------------

    def idle_core_indices(self) -> List[int]:
        """Cores currently free (ordered by index).

        A core whose output FIFO still holds words is *not* free even
        though its firmware has halted: the hardware keeps a core
        allocated until TRANSFER DONE (section IV.C), and remapping it
        earlier would start the next task's drainer against a FIFO the
        previous task's drainer is still popping — the two download
        processes would interleave and scatter both packets' words.
        The encrypt path rarely hits the window (its output is drained
        while the core runs), but DECRYPT output legitimately sits in
        the FIFO from RESULT until the post-RETRIEVE download, which
        receive-side workloads exposed.
        """
        return [
            c.index
            for c in self.cores
            if not c.busy and not c.out_fifo.can_pop()
        ]

    # -- request submission ----------------------------------------------------

    def submit(
        self,
        channel_id: int,
        tasks: Sequence[FormattedTask],
        priority: int = 1,
        job: Optional[PacketJob] = None,
    ) -> PendingRequest:
        """Assign a formatted packet task to core(s), first-idle order.

        *tasks* holds one task (single-core modes) or the (MAC, CTR)
        pair of a two-core CCM split; *job* is the dataplane
        :class:`PacketJob` the request carries out, if any.  Raises
        :class:`NoResourceError` when not enough idle cores exist —
        the error-flag path of the paper's ENCRYPT instruction.
        """
        channel = self._channel(channel_id)
        if not channel.is_open:
            raise ChannelError(f"channel {channel_id} is closed")
        needed = len(tasks)
        chosen = self.policy.select_cores(self, needed, priority)
        if chosen is None or len(chosen) < needed:
            raise NoResourceError(
                f"{needed} idle core(s) required, "
                f"{len(self.idle_core_indices())} available"
            )

        request = PendingRequest(
            request_id=self._next_request,
            channel_id=channel_id,
            core_indices=tuple(chosen),
            tasks=tuple(tasks),
            submit_cycle=self.sim.now,
            job=job,
        )
        self._next_request += 1
        self.requests[request.request_id] = request
        self.requests_submitted += 1
        request.done_event = self.sim.event(f"req{request.request_id}.done")
        request.ready_event = self.sim.event(f"req{request.request_id}.ready")

        if len(chosen) == 2:
            # Cross-wire the inter-core shift registers for this pair:
            # the MAC core forwards the MAC to the CTR core, and (on
            # decryption) the CTR core forwards plaintext back.
            mac_core, ctr_core = self.cores[chosen[0]], self.cores[chosen[1]]
            mac_core.unit.ic_out = ctr_core.unit.ic_in
            ctr_core.unit.ic_out = mac_core.unit.ic_in

        for core_index, task in zip(chosen, tasks):
            core = self.cores[core_index]
            # Round keys must be in the core's cache before start.
            if task.params.algorithm is not Algorithm.WHIRLPOOL:
                if (
                    not core.key_cache.loaded
                    or core.key_cache.key_id != channel.key_id
                ):
                    self.key_scheduler.load_sync(channel.key_id, core.key_cache)
            done = core.assign_task(task.params)
            done.add_waiter(
                lambda result, req=request, idx=core_index: self._core_finished(
                    req, idx, result
                )
            )
        self.trace.record(
            self.sim.now,
            "sched",
            "submit",
            request=request.request_id,
            cores=list(chosen),
            algorithm=channel.algorithm.name,
        )
        return request

    def _core_finished(self, request: PendingRequest, core_index: int, result) -> None:
        request.results.append(result)
        if len(request.results) == len(request.core_indices):
            request.state = RequestState.DATA_AVAILABLE
            request.complete_cycle = self.sim.now
            channel = self.channels.get(request.channel_id)
            if channel is not None:
                channel.packets_processed += 1
                if request.auth_failed:
                    channel.auth_failures += 1
            # A fired event holds the request as its value: the request
            # lets go of it, so the pair is no reference cycle.
            ready, request.ready_event = request.ready_event, None
            if ready is not None:
                ready.trigger(request)
            self.trace.record(
                self.sim.now, "sched", "data_available", request=request.request_id
            )

    # -- retrieval ---------------------------------------------------------------

    def next_available_request(self) -> Optional[PendingRequest]:
        """Oldest request waiting for RETRIEVE DATA."""
        waiting = [
            r for r in self.requests.values()
            if r.state is RequestState.DATA_AVAILABLE
        ]
        return min(waiting, key=lambda r: r.request_id) if waiting else None

    def retrieve(self, request: PendingRequest) -> Tuple[bool, int]:
        """RETRIEVE DATA: returns (ok, request_id).

        On AUTH_FAIL the output FIFO was already purged by the core and
        the request is done (there is nothing to read).
        """
        if request.state is not RequestState.DATA_AVAILABLE:
            raise ProtocolError(
                f"request {request.request_id} not in DATA_AVAILABLE state"
            )
        if request.auth_failed:
            request.state = RequestState.DONE
            self._finish(request)
            return False, request.request_id
        request.state = RequestState.RETRIEVED
        return True, request.request_id

    def transfer_done(self, request: PendingRequest) -> None:
        """TRANSFER DONE: finish the request."""
        request.state = RequestState.DONE
        self._finish(request)

    def _finish(self, request: PendingRequest) -> None:
        done, request.done_event = request.done_event, None
        if done is not None and not done.triggered:
            done.trigger(request)

    # -- timing helper -------------------------------------------------------------

    def overhead_delay(self) -> Delay:
        """The scheduler-software cost of one control instruction."""
        return Delay(self.timing.scheduler_overhead_cycles)
