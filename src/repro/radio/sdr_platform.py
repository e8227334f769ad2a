"""The secure SDR platform model (paper sections I and III.A).

Assembles the full system: main controller (session-key provisioning
into the key memory), the MCCP red/black boundary, the communication
controller, and per-channel traffic.  The platform's
:meth:`run_workload` is the workhorse of the multi-channel benchmarks.
It replays generated traffic through one of two dataplanes, both built
on the same :class:`repro.mccp.channel.PacketJob` pipeline:

- ``dataplane="cores"`` (default) — every packet runs the
  cycle-accurate simulated-core path at batch width 1, blocking
  per-channel and retrying on core exhaustion (the radio-side
  queueing the paper leaves to the communication controller);
- ``dataplane="batched"`` — packets are formatted into jobs and
  enqueued per channel; the channel's :class:`repro.mccp.channel
  .FlushPolicy` coalesces same-key jobs and dispatches them through
  the multi-packet batch engine, with per-packet completions fanning
  back out for latency accounting.  Channels the batch engine cannot
  serve (CTR streams, two-core CCM) transparently fall back to the
  cores path;
- ``dataplane="pipelined"`` — the same batched pipeline with up to
  ``WorkloadSpec.pipeline_depth`` dispatches per channel left in
  flight: the simulator keeps coalescing the next batch while process
  workers run the current one.  ``"batched"`` is this pipeline at
  depth 0 (each dispatch is reaped as soon as it is submitted).  Same
  bytes, same per-channel completion order, same cycle stamps — only
  wall-clock overlaps.

Every run is described by one :class:`WorkloadSpec` —
``platform.run_workload(WorkloadSpec(configs, dataplane="pipelined"))``.

Both dataplanes secure every packet under the same deterministic
per-(channel, sequence) nonce, so they produce byte-identical secured
packets — the equivalence the dataplane test suite pins.

Receive-side traffic: a run may declare an ``rx_fraction`` — that
share of each AEAD channel's packets arrive as *secured* packets off
the air and flow through the dataplane as DECRYPT jobs.
The platform plays the peer radio: it pre-seals the payload under the
channel key and the deterministic per-(channel, sequence) nonce, then
degrades the transmission per the channel model — ``loss_rate``
packets never arrive (counted, never submitted) and ``corrupt_rate``
of the arrivals carry a flipped tag byte, exercising the batch
engine's early-reject/verify paths under realistic traffic.  Failed
authentications are per-packet isolated and tallied in
:attr:`WorkloadReport.auth_failures`.  The rx decisions derive only
from ``(seed, channel, sequence)``, so both dataplanes and every
execution backend replay the identical mixed workload.

``WorkloadSpec(backend=...)`` selects where the batched dispatches'
seal/open sweeps execute (:mod:`repro.crypto.fast.exec`): inline or a
process pool — outputs and completion order are identical on both.

Each run is self-contained.  It runs inside
:meth:`CommController.run_state`, which restarts the per-run counters,
opens the run's resilience counter scope and records the start cycle.
Arrivals, the cycle ``limit`` and ``total_cycles`` all count from that
cycle, so a second run on a reused platform reports what a fresh
platform would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.throughput import WorkloadReport
from repro.core.params import Algorithm, Direction
from repro.crypto.fast.exec import BackendSpec
from repro.errors import BackpressureError, NoResourceError
from repro.mccp.channel import Channel, FlushPolicy
from repro.mccp.key_memory import KeyMemory
from repro.mccp.mccp import BATCHABLE_ALGORITHMS, Mccp
from repro.radio.admission import AdmissionController, AdmissionPolicy
from repro.radio.comm_controller import CommController
from repro.radio.packet import MAX_PAYLOAD_BYTES, Packet
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import GeneratedPacket, TrafficGenerator, TrafficPattern
from repro.resilience.stats import COUNTERS, RunCounters
from repro.resilience.faults import injected_faults
from repro.sim.kernel import Delay, Simulator

__all__ = ["ChannelConfig", "SdrPlatform", "WorkloadReport", "WorkloadSpec"]

#: The dataplanes :meth:`SdrPlatform.run_workload` can replay through.
DATAPLANES = ("cores", "batched", "pipelined")


@dataclass
class ChannelConfig:
    """One channel of the workload."""

    standard: RadioStandard
    key: bytes
    pattern: TrafficPattern = TrafficPattern.SATURATING
    packets: int = 8
    priority: int = 1
    two_core_ccm: bool = False
    #: Payload size of every packet (None: the standard's nominal size).
    payload_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.payload_bytes is not None and not 0 <= self.payload_bytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload_bytes must be in 0..{MAX_PAYLOAD_BYTES}, got {self.payload_bytes}"
            )


@dataclass
class WorkloadSpec:
    """Everything one :meth:`SdrPlatform.run_workload` replay needs.

    A spec is a value object, so the same workload can be replayed
    across dataplanes/backends with
    ``dataclasses.replace(spec, dataplane=...)``.
    """

    #: The channels to provision and their traffic.
    configs: Sequence[ChannelConfig] = field(default_factory=tuple)
    #: Simulated-cycle budget per channel-drained wait, counted from
    #: the run's start cycle.
    limit: int = 2_000_000_000
    #: ``"cores"``, ``"batched"`` or ``"pipelined"`` (module docstring).
    dataplane: str = "cores"
    #: Every channel's flush policy for the batched dataplanes (None:
    #: the channel default).
    flush_policy: Optional[FlushPolicy] = None
    #: Where batched dispatches' crypto sweeps execute for this run
    #: (:mod:`repro.crypto.fast.exec`; None keeps the platform's own).
    backend: BackendSpec = None
    #: Fraction of each channel's packets that are receive-side
    #: (DECRYPT) traffic.  Only AEAD channels generate rx traffic (CTR
    #: streams have no tag to verify and keep transmitting).
    rx_fraction: float = 0.0
    #: Channel model for the rx share: fraction of secured packets
    #: lost before arrival (never submitted, counted in the report).
    loss_rate: float = 0.0
    #: Fraction of *arriving* rx packets whose tag is corrupted in
    #: flight (fails authentication; the dataplane must reject it
    #: without disturbing batch-mates).
    corrupt_rate: float = 0.0
    #: Dispatches a channel may keep in flight under the pipelined
    #: dataplane before its drain blocks to reap the oldest (the other
    #: dataplanes run at depth 0; see :func:`_comm_pipeline_depth`).
    pipeline_depth: int = 2
    #: High watermark of every channel's coalescing queue (None =
    #: unbounded queues, the historical behaviour).  A bounded queue
    #: raises :class:`repro.errors.BackpressureError` at the mark and
    #: feeds the admission controller's shed logic.
    queue_capacity: Optional[int] = None
    #: Admission-control policy for the run (None = admit everything;
    #: bounded queues then surface as BackpressureError retries).
    admission: Optional[AdmissionPolicy] = None

    def __post_init__(self) -> None:
        if self.dataplane not in DATAPLANES:
            raise ValueError(
                f"unknown dataplane {self.dataplane!r}; valid: "
                + ", ".join(DATAPLANES)
            )
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1 or None, got "
                f"{self.queue_capacity}"
            )
        if self.flush_policy is not None:
            self.flush_policy.check_capacity(self.queue_capacity, "WorkloadSpec")


def _comm_pipeline_depth(dataplane: str, pipeline_depth: int) -> int:
    """The communication controller's depth for a run's dataplane.

    Only ``"pipelined"`` leaves dispatches in flight; every other
    dataplane reaps each dispatch as soon as it is submitted (depth 0).
    """
    return pipeline_depth if dataplane == "pipelined" else 0


@dataclass(frozen=True)
class _RxPlan:
    """One receive-side packet as the channel delivered it."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes
    lost: bool


def _check_rate(name: str, value: float) -> float:
    """Validate a probability knob (rx_fraction/loss_rate/corrupt_rate)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0.0, 1.0], got {value}")
    return value


def _arrived_packet(item: GeneratedPacket, now: int) -> Packet:
    """Re-stamp creation at actual arrival for latency accounting.

    The single place a packet's ``created_cycle`` is set on its way
    into the dataplane — ``dataclasses.replace`` keeps every other
    field, so adding a field to :class:`Packet` can't silently drop it
    here.
    """
    return replace(item.packet, created_cycle=now)


def _fill_report(
    report: WorkloadReport,
    comm: CommController,
    counters: RunCounters,
    channels: Sequence[Channel],
    controller: Optional[AdmissionController] = None,
) -> WorkloadReport:
    """Resolve the run's deferred dispatches, then fill *report*.

    Called inside the run's :meth:`CommController.run_state`: the comm
    and scheduler counters, *counters* and the run's freshly opened
    *channels* hold only this run's activity.  The barrier
    (:meth:`CommController.resolve`) computes the bytes of every
    dispatch the run reaped deferred — all of them in shared sweeps —
    so the auth failures, dead letters and transfers the report and
    its readers see are final.  Shared by
    :meth:`SdrPlatform.run_workload` and the session layer
    (:mod:`repro.radio.sessions`), so workload replays and session
    storms account identically.
    """
    comm.resolve()
    report.total_cycles = comm.sim.now - comm.run_start
    report.pipeline_in_flight_peak = comm.pipeline_in_flight_peak
    report.latencies = list(comm.latencies)
    report.per_class_latencies = {
        priority: list(samples)
        for priority, samples in comm.class_latencies.items()
    }
    report.core_submits = comm.mccp.scheduler.requests_submitted
    report.backpressure_retries = comm.backpressure_retries
    report.auth_failures = comm.auth_failures
    for name in COUNTERS:
        setattr(report, name, counters[name])
    report.degradation_reasons = list(counters.degradation_reasons)
    for channel in channels:
        stats = channel.stats
        report.per_channel_queue_peak[channel.channel_id] = stats["queue_peak"]
        report.per_channel_batches[channel.channel_id] = stats["batches"]
        report.backpressure_signals += stats["backpressure_signals"]
        for cause in ("size", "deadline", "forced"):
            count = stats[f"flush_{cause}"]
            if count:
                report.flush_causes[cause] = (
                    report.flush_causes.get(cause, 0) + count
                )
    if controller is not None:
        report.admitted_by_class = dict(controller.admitted)
        report.shed_by_class = controller.shed_by_class()
        report.shed_causes = controller.shed_causes()
        report.shed_packets = sorted(controller.shed_set())
        report.deferrals = controller.deferrals
    return report


class SdrPlatform:
    """Main controller + MCCP + communication controller."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        core_count: int = 4,
        policy=None,
        seed: int = 0,
        backend: BackendSpec = None,
        key_slots: Optional[int] = None,
        max_channels: Optional[int] = None,
    ):
        self.sim = sim if sim is not None else Simulator()
        # Session-scale runs outgrow the hardware's 32-slot key memory
        # and 16-entry channel table; both stay the defaults unless a
        # caller (e.g. the session layer) asks for more.
        key_memory = KeyMemory(slots=key_slots) if key_slots is not None else None
        self.mccp = Mccp(
            self.sim,
            core_count=core_count,
            policy=policy,
            key_memory=key_memory,
            max_channels=max_channels,
        )
        self.comm = CommController(self.sim, self.mccp, seed=seed, backend=backend)
        self._next_key_id = 0
        self.seed = seed

    # -- provisioning ------------------------------------------------------------

    def provision_channel(self, config: ChannelConfig):
        """Load the session key and OPEN a channel for *config*."""
        profile = STANDARD_PROFILES[config.standard]
        key_id = self._next_key_id
        self._next_key_id += 1
        self.mccp.load_session_key(key_id, config.key)
        channel = self.mccp.open_channel(
            profile.algorithm, key_id, tag_length=profile.tag_length or 16
        )
        return channel, profile

    # -- workload execution ---------------------------------------------------------

    def run_workload(self, spec: WorkloadSpec) -> WorkloadReport:
        """Replay every channel's traffic to completion; returns the report.

        *spec* carries the channels, dataplane, flush policy, backend,
        rx mix and pipeline depth.  Every engine reports into the same
        :class:`WorkloadReport`, which additionally carries the queue
        depth / backpressure statistics of the batched pipeline, the
        rx loss/auth-failure tallies, and the pipelined dataplane's
        in-flight overlap peak.

        Raises :class:`ValueError` for a channel that splits CCM over
        two cores on a one-core platform: no core pair ever frees.
        """
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(
                f"run_workload needs a WorkloadSpec, got {type(spec).__name__}"
            )
        configs = spec.configs
        cores = len(self.mccp.cores)
        for index, config in enumerate(configs):
            if (
                config.two_core_ccm
                and cores < 2
                and STANDARD_PROFILES[config.standard].algorithm is Algorithm.CCM
            ):
                raise ValueError(
                    f"channel {index} ({config.standard.name}) splits CCM over two "
                    f"cores, but the platform has {cores}"
                )
        dataplane = spec.dataplane
        flush_policy = spec.flush_policy
        backend = spec.backend
        rx_fraction = spec.rx_fraction
        loss_rate = spec.loss_rate
        corrupt_rate = spec.corrupt_rate
        limit = spec.limit
        report = WorkloadReport(total_cycles=0, packets_done=0, payload_bytes=0)
        report.dataplane = dataplane
        done_events = []
        channels: List[Channel] = []
        controller = (
            AdmissionController(spec.admission)
            if spec.admission is not None
            else None
        )
        with self.comm.run_state(
            backend, _comm_pipeline_depth(dataplane, spec.pipeline_depth)
        ) as counters:
            self._launch_channels(
                configs, dataplane, flush_policy, report, done_events,
                channels, rx_fraction, loss_rate, corrupt_rate,
                spec.queue_capacity, controller,
            )
            for event in done_events:
                self.sim.run_until_event(event, limit=self.comm.run_start + limit)
            return _fill_report(report, self.comm, counters, channels, controller)

    def _launch_channels(
        self,
        configs: Sequence[ChannelConfig],
        dataplane: str,
        flush_policy: Optional[FlushPolicy],
        report: WorkloadReport,
        done_events: list,
        channels: List[Channel],
        rx_fraction: float,
        loss_rate: float,
        corrupt_rate: float,
        queue_capacity: Optional[int] = None,
        controller: Optional[AdmissionController] = None,
    ) -> None:
        """Provision every channel and spawn its traffic process.

        Every channel is provisioned and its traffic generated first,
        then one :meth:`_rx_plans` call builds all channels' rx plans,
        then the processes spawn in channel order.
        """
        launches = []
        for config in configs:
            channel, profile = self.provision_channel(config)
            channels.append(channel)
            if flush_policy is not None:
                channel.flush_policy = flush_policy
            if queue_capacity is not None:
                channel.capacity = queue_capacity
            if config.payload_bytes is not None:
                profile = replace(profile, payload_bytes=config.payload_bytes)
            generator = TrafficGenerator(
                channel_id=channel.channel_id,
                profile=profile,
                pattern=config.pattern,
                seed=self.seed,
                priority=config.priority,
            )
            launches.append((config, channel, generator.generate(config.packets)))
        rates = (
            _check_rate("rx_fraction", rx_fraction),
            _check_rate("loss_rate", loss_rate),
            _check_rate("corrupt_rate", corrupt_rate),
        )
        all_plans = self._rx_plans([
            (channel, schedule, *rates) for _config, channel, schedule in launches
        ])
        for (config, channel, schedule), plans in zip(launches, all_plans):
            finished = self.sim.event(f"chan{channel.channel_id}.drained")
            done_events.append(finished)
            batched = (
                dataplane in ("batched", "pipelined")
                and channel.algorithm in BATCHABLE_ALGORITHMS
                and not (
                    config.two_core_ccm and channel.algorithm is Algorithm.CCM
                )
            )
            process = (
                self._batched_channel_process
                if batched
                else self._core_channel_process
            )
            self.sim.add_process(
                process(
                    channel, config, schedule, plans, report, finished,
                    controller,
                ),
                name=f"chan{channel.channel_id}",
            )

    # -- receive-side traffic --------------------------------------------------------

    def _rx_plans(
        self,
        requests: Sequence[
            Tuple[Channel, Sequence[GeneratedPacket], float, float, float]
        ],
    ) -> List[List[Optional[_RxPlan]]]:
        """Per-packet rx decisions and pre-sealed arrivals (None = tx).

        One ``(channel, schedule, rx_fraction, loss_rate,
        corrupt_rate)`` request per channel, one plan list per request.
        The platform plays the peer radio here, outside simulated time.
        For each channel it first draws every packet's decisions — rx
        or tx, then loss, then tag corruption — from one rng seeded by
        ``(seed, channel_id)``, in sequence order.  It then seals the rx
        packets under each channel's key and their deterministic
        per-(channel, sequence) nonces, every channel's in one
        multi-key batch call whose counters and CBC-MAC chains share
        sweeps (:mod:`repro.crypto.fast.batch`) — byte-identical to
        per-packet seals — and flips a tag byte on the corrupted ones.
        So the same mixed workload replays identically through either
        dataplane and any execution backend.  The peer radio is outside the fault domain:
        an active fault plan never affects the seal here, and a
        poisoned rx nonce faults at dispatch instead.
        """
        from repro.crypto.fast.batch import _seal_open_whole

        all_plans: List[List[Optional[_RxPlan]]] = []
        sealing = []  # (plans, rows, nonces, dispatch) per rx channel
        for channel, schedule, rx_fraction, loss_rate, corrupt_rate in requests:
            plans: List[Optional[_RxPlan]] = [None] * len(schedule)
            all_plans.append(plans)
            if rx_fraction <= 0.0 or channel.algorithm not in BATCHABLE_ALGORITHMS:
                continue
            rng = random.Random(
                (self.seed << 20) ^ (channel.channel_id << 4) ^ 0x52585F
            )
            rows = []  # (schedule index, lost, corrupted) per rx packet
            for index in range(len(schedule)):
                if rng.random() >= rx_fraction:
                    continue
                lost = rng.random() < loss_rate
                corrupted = not lost and rng.random() < corrupt_rate
                rows.append((index, lost, corrupted))
            packets = [schedule[index].packet for index, _, _ in rows]
            nonces = [self.comm.nonce_for(channel, p.sequence) for p in packets]
            sealing.append((plans, rows, nonces, (
                "ccm" if channel.algorithm is Algorithm.CCM else "gcm",
                self.mccp.key_memory.fetch_for_scheduler(channel.key_id),
                [(n, p.payload, p.header) for n, p in zip(nonces, packets)],
                (),
                channel.tag_length,
            )))
        with injected_faults(None):
            sealed = _seal_open_whole([dispatch for *_, dispatch in sealing])
        for (plans, rows, nonces, _dispatch), (channel_sealed, _) in zip(
            sealing, sealed
        ):
            for (index, lost, corrupted), nonce, (ciphertext, tag) in zip(
                rows, nonces, channel_sealed
            ):
                if corrupted:
                    tag = tag[:-1] + bytes([tag[-1] ^ 0xFF])
                plans[index] = _RxPlan(nonce, ciphertext, tag, lost)
        return all_plans

    def _rx_arrival(
        self, report: WorkloadReport, packet: Packet, plan: _RxPlan
    ) -> Optional[Packet]:
        """Count one rx packet; returns its arrived form (None = lost)."""
        report.rx_packets += 1
        if plan.lost:
            report.rx_lost += 1
            return None
        return replace(packet, payload=plan.ciphertext)

    # -- channel processes ----------------------------------------------------------

    def _account(self, report: WorkloadReport, channel: Channel, nbytes: int):
        report.packets_done += 1
        report.payload_bytes += nbytes
        report.per_channel_bytes[channel.channel_id] = (
            report.per_channel_bytes.get(channel.channel_id, 0) + nbytes
        )

    def _core_channel_process(
        self, channel, config, schedule, plans, report, finished,
        controller=None,
    ):
        """Width-1 pipeline on the simulated cores (cycle model)."""
        start = self.comm.run_start
        for item, plan in zip(schedule, plans):
            arrival = start + item.arrival_cycle
            if self.sim.now < arrival:
                yield Delay(arrival - self.sim.now)
            packet = _arrived_packet(item, self.sim.now)
            direction = Direction.ENCRYPT
            nonce = self.comm.nonce_for(channel, packet.sequence)
            tag = None
            if plan is not None:
                arrived = self._rx_arrival(report, packet, plan)
                if arrived is None:
                    continue
                packet, direction, nonce, tag = (
                    arrived, Direction.DECRYPT, plan.nonce, plan.tag,
                )
            if controller is not None:
                admitted = yield from controller.gate(
                    self.sim, channel, packet.priority, packet.sequence
                )
                if not admitted:
                    continue
                controller.note_admitted(packet.priority)
            while True:
                try:
                    yield from self.comm.process_packet(
                        channel,
                        packet,
                        direction,
                        nonce=nonce,
                        tag=tag,
                        two_core=config.two_core_ccm
                        and channel.algorithm is Algorithm.CCM,
                    )
                    break
                except NoResourceError:
                    # All cores busy: radio-side queueing, retry shortly.
                    self.comm.backpressure_retries += 1
                    yield Delay(50)
            self._account(report, channel, len(packet.payload))
        finished.trigger()

    def _submit_gated(self, channel, packet, controller, **kwargs):
        """Process: admission-gate + enqueue one packet (None = shed).

        The single producer-side funnel into a bounded channel.  With a
        controller, its :meth:`~repro.radio.admission
        .AdmissionController.gate` decides admit/defer/shed before the
        enqueue ever happens; without one, a full queue surfaces as
        :class:`~repro.errors.BackpressureError` and the producer backs
        off in simulated time until the drain makes room — bounded
        queues never grow past their watermark either way.
        """
        if controller is not None:
            admitted = yield from controller.gate(
                self.sim, channel, packet.priority, packet.sequence
            )
            if not admitted:
                return None
            job = self.comm.submit_job(channel, packet, **kwargs)
            controller.note_admitted(packet.priority)
            return job
        while True:
            try:
                return self.comm.submit_job(channel, packet, **kwargs)
            except BackpressureError:
                # Queue at its high watermark: radio-side back-off,
                # retried once the flush machinery has drained room.
                self.comm.backpressure_retries += 1
                yield Delay(50)

    def _batched_channel_process(
        self, channel, config, schedule, plans, report, finished,
        controller=None,
    ):
        """Coalescing pipeline through the batch engine.

        Packets become jobs as they arrive — no per-packet blocking —
        and the flush policy (size threshold + idle deadline) decides
        when each batch dispatches.  The tail is force-flushed so the
        last under-filled batch never waits out its deadline.
        """
        jobs = []
        start = self.comm.run_start
        for item, plan in zip(schedule, plans):
            arrival = start + item.arrival_cycle
            if self.sim.now < arrival:
                yield Delay(arrival - self.sim.now)
            packet = _arrived_packet(item, self.sim.now)
            if plan is None:
                job = yield from self._submit_gated(
                    channel, packet, controller,
                    direction=Direction.ENCRYPT,
                )
            else:
                arrived = self._rx_arrival(report, packet, plan)
                if arrived is None:
                    continue
                job = yield from self._submit_gated(
                    channel, arrived, controller,
                    direction=Direction.DECRYPT,
                    nonce=plan.nonce,
                    tag=plan.tag,
                )
            if job is not None:
                jobs.append(job)
        yield from self.comm.flush_now(channel)
        for job in jobs:
            if job.transfer is None:
                yield job.completion
            self._account(report, channel, len(job.data))
        finished.trigger()
