"""Throughput accounting: Table II helpers and workload reports.

"MCCP encryption throughputs at 190 MHz (theoretical / 2 KB packet)":
the theoretical column is ``cores * 128 bits / T_loop * f``; the packet
column comes from simulating real 2 KB packets.  ``PAPER_TABLE2`` pins
the published values for paper-vs-measured reporting.

:class:`WorkloadReport` is the aggregate record every
:meth:`repro.radio.sdr_platform.SdrPlatform.run_workload` run (and
every session storm) returns.  Every value in it belongs to that one
run: the platform fills it from the run's own counter scope, so a
reused platform reports each run alone.  Beside the classic
throughput/latency numbers it carries per-channel queue-depth and
backpressure statistics, so a batched run exposes how well the flush
policy coalesced (queue peaks, dispatch widths, what triggered each
flush).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cycles import LoopModel
from repro.analysis.latency import nearest_rank_percentile
from repro.unit.timing import DEFAULT_TIMING, TimingModel

CLOCK_HZ_DEFAULT = 190e6

#: Priority-class display names (control > interactive > bulk; lower
#: integer = more important).  Kept here — not imported from the radio
#: layer — because analysis sits below radio in the dependency order.
CLASS_NAMES: Dict[int, str] = {0: "control", 1: "interactive", 2: "bulk"}


@dataclass
class WorkloadReport:
    """Aggregate results of a workload run."""

    total_cycles: int
    packets_done: int
    payload_bytes: int
    latencies: List[int] = field(default_factory=list)
    per_channel_bytes: Dict[int, int] = field(default_factory=dict)
    # -- dataplane statistics (batched submission pipeline) ------------
    #: Deepest each channel's coalescing queue ever got.
    per_channel_queue_peak: Dict[int, int] = field(default_factory=dict)
    #: Batch-engine dispatches per channel.
    per_channel_batches: Dict[int, int] = field(default_factory=dict)
    #: Flush trigger -> count ("size", "deadline", "forced").
    flush_causes: Dict[str, int] = field(default_factory=dict)
    #: Core-path submissions that hit NoResourceError and retried
    #: (radio-side queueing; always 0 for fully batched workloads).
    backpressure_retries: int = 0
    #: Which dataplane ran the workload ("cores"/"batched"/"pipelined";
    #: empty for reports built outside run_workload).
    dataplane: str = ""
    #: Peak number of concurrently in-flight (submitted, uncollected)
    #: dispatches across all channels — the pipelined dataplane's
    #: overlap; 0 on the synchronous dataplanes.
    pipeline_in_flight_peak: int = 0
    #: ENCRYPT/DECRYPT requests the task scheduler ran on cores (0 when
    #: every packet flowed through the batch engine).
    core_submits: int = 0
    # -- receive-side traffic (rx_fraction workloads) ------------------
    #: Packets generated as receive-side (DECRYPT) traffic, including
    #: the ones the channel model then lost.
    rx_packets: int = 0
    #: Rx packets lost before arrival (never entered the dataplane;
    #: excluded from ``packets_done``).
    rx_lost: int = 0
    #: Packets that failed tag verification (corrupted rx traffic);
    #: each was rejected without releasing plaintext or disturbing its
    #: batch-mates.
    auth_failures: int = 0
    # -- resilience (fault-injection recovery accounting) --------------
    #: Backend spans / key fetches re-attempted after a retryable
    #: failure.
    retries: int = 0
    #: Wall-clock watchdogs that expired a backend span.
    watchdog_fires: int = 0
    #: Process backends that went inline after retries ran out.
    degradations: int = 0
    #: Degradation reasons, in order (e.g. "process -> inline: ...").
    degradation_reasons: List[str] = field(default_factory=list)
    #: Packets bisect-isolated out of a poisoned batch.
    quarantined: int = 0
    #: Jobs routed to a dead-letter queue (quarantines plus key-fetch
    #: exhaustion); capped by ``SlaSpec.max_dead_lettered``.
    dead_lettered: int = 0
    #: Injected faults that fired during the run (best-effort count:
    #: faults inside shared-nothing process workers tally locally).
    faults_injected: int = 0
    #: AES key-schedule rebuilds observed inside arena dispatch workers
    #: during the run.  With persistent warm-cache workers this is zero
    #: in steady state — each worker expands a key once, then serves
    #: every later batch from its warm schedule; a rekey's new key
    #: bytes miss the byte-keyed cache, so only that key re-expands.
    key_schedule_expansions: int = 0
    # -- overload protection / SLA accounting ---------------------------
    #: Per-priority-class latency samples (cycles); the feed for the
    #: p50/p99/p999 SLA percentiles.  Keys are priority integers
    #: (0 = control, 1 = interactive, 2 = bulk).
    per_class_latencies: Dict[int, List[int]] = field(default_factory=dict)
    #: Packets the admission controller admitted, per priority class
    #: (empty when no admission policy ran).
    admitted_by_class: Dict[int, int] = field(default_factory=dict)
    #: Packets shed by admission control, per priority class.  Shed is
    #: its own budget: never counted in ``auth_failures`` or
    #: ``dead_lettered``, and excluded from ``packets_done``.
    shed_by_class: Dict[int, int] = field(default_factory=dict)
    #: Shed counts per cause ("watermark", "pressure", "defer_budget").
    shed_causes: Dict[str, int] = field(default_factory=dict)
    #: The exact shed set as sorted ``(channel_id, sequence)`` pairs —
    #: deterministically reproducible from the seed; the overload
    #: suite pins it equal across backends and dataplanes.
    shed_packets: List[Tuple[int, int]] = field(default_factory=list)
    #: Defer waits the admission controller imposed (a packet may
    #: defer several times before admitting or shedding).
    deferrals: int = 0
    #: Typed :class:`repro.errors.BackpressureError` signals bounded
    #: channel queues raised during the run.
    backpressure_signals: int = 0
    # -- session layer --------------------------------------------------
    #: Sessions the session manager started / ran to teardown.
    sessions_started: int = 0
    sessions_completed: int = 0
    #: Mid-session channel handoffs performed.
    handoffs: int = 0
    #: Per-session rekeys through the key scheduler.
    rekeys: int = 0

    @property
    def shed(self) -> int:
        """Total packets shed by admission control."""
        return sum(self.shed_by_class.values())

    def offered_by_class(self) -> Dict[int, int]:
        """Admitted + shed per class (the admission-visible load)."""
        out = dict(self.admitted_by_class)
        for priority, count in self.shed_by_class.items():
            out[priority] = out.get(priority, 0) + count
        return out

    def drop_fraction(self, priority: int) -> float:
        """Shed share of the offered load for one priority class."""
        offered = self.offered_by_class().get(priority, 0)
        if offered == 0:
            return 0.0
        return self.shed_by_class.get(priority, 0) / offered

    def class_percentile_us(
        self,
        priority: int,
        q: float,
        clock_hz: float = CLOCK_HZ_DEFAULT,
    ) -> float:
        """Exact nearest-rank latency percentile for one class, in us."""
        samples = self.per_class_latencies.get(priority, [])
        return nearest_rank_percentile(samples, q) / clock_hz * 1e6

    def sla_summary(
        self, clock_hz: float = CLOCK_HZ_DEFAULT
    ) -> Dict[str, Dict[str, float]]:
        """p50/p99/p999 + drop fraction per priority class (by name)."""
        out: Dict[str, Dict[str, float]] = {}
        for priority in sorted(
            set(self.per_class_latencies) | set(self.offered_by_class())
        ):
            name = CLASS_NAMES.get(priority, f"p{priority}")
            out[name] = {
                "p50_us": self.class_percentile_us(priority, 0.50, clock_hz),
                "p99_us": self.class_percentile_us(priority, 0.99, clock_hz),
                "p999_us": self.class_percentile_us(priority, 0.999, clock_hz),
                "drop_fraction": self.drop_fraction(priority),
                "completed": float(
                    len(self.per_class_latencies.get(priority, ()))
                ),
                "shed": float(self.shed_by_class.get(priority, 0)),
            }
        return out

    def check_sla(
        self, spec: "SlaSpec", clock_hz: float = CLOCK_HZ_DEFAULT
    ) -> List[str]:
        """Violations of *spec* (empty list = the SLA holds)."""
        return spec.violations(self, clock_hz)

    def throughput_mbps(self, clock_hz: float = CLOCK_HZ_DEFAULT) -> float:
        """Aggregate payload throughput at *clock_hz*."""
        if self.total_cycles == 0:
            return 0.0
        seconds = self.total_cycles / clock_hz
        return 8 * self.payload_bytes / seconds / 1e6

    def mean_latency_us(self, clock_hz: float = CLOCK_HZ_DEFAULT) -> float:
        """Mean packet latency in microseconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies) / clock_hz * 1e6

    def max_latency_us(self, clock_hz: float = CLOCK_HZ_DEFAULT) -> float:
        """Worst-case packet latency in microseconds."""
        if not self.latencies:
            return 0.0
        return max(self.latencies) / clock_hz * 1e6

    @property
    def batches(self) -> int:
        """Total batch-engine dispatches across channels."""
        return sum(self.per_channel_batches.values())

    def mean_batch_width(self) -> float:
        """Average packets per batch-engine dispatch (0 if none ran)."""
        total = self.batches
        if total == 0:
            return 0.0
        batched_packets = self.packets_done - self.core_submits
        return batched_packets / total

    def queue_peak(self) -> int:
        """Deepest coalescing queue observed on any channel."""
        return max(self.per_channel_queue_peak.values(), default=0)


@dataclass(frozen=True)
class ClassSla:
    """Service-level budgets for one priority class (None = unchecked)."""

    #: Latency budgets in microseconds (exact nearest-rank percentiles).
    p50_us: Optional[float] = None
    p99_us: Optional[float] = None
    p999_us: Optional[float] = None
    #: Max shed share of the class's offered load (0.0 = never shed).
    max_drop_fraction: Optional[float] = None
    #: Require at least this many completed packets in the class, so a
    #: latency budget cannot pass vacuously on an empty sample.
    min_completed: int = 0


@dataclass(frozen=True)
class SlaSpec:
    """An asserted service level: per-class budgets + run-level caps.

    Built for scenarios: ``report.check_sla(spec)`` returns a list of
    human-readable violations (empty = the SLA holds), so an
    experiment can hard-fail with the exact broken budget in the
    message.  Latency cuts use the exact nearest-rank percentile
    (:func:`repro.analysis.latency.nearest_rank_percentile`) — every
    reported number is a latency some real packet paid.
    """

    #: Budgets per priority class (0 = control, 1 = interactive,
    #: 2 = bulk).
    classes: Dict[int, ClassSla] = field(default_factory=dict)
    #: Run-level cap on authentication failures (None = unchecked).
    max_auth_failures: Optional[int] = None
    #: Run-level cap on dead-lettered jobs (None = unchecked).
    max_dead_lettered: Optional[int] = None

    def violations(
        self, report: WorkloadReport, clock_hz: float = CLOCK_HZ_DEFAULT
    ) -> List[str]:
        """Every budget *report* breaks, most important class first."""
        out: List[str] = []
        for priority in sorted(self.classes):
            budget = self.classes[priority]
            name = CLASS_NAMES.get(priority, f"p{priority}")
            completed = len(report.per_class_latencies.get(priority, ()))
            if completed < budget.min_completed:
                out.append(
                    f"{name}: only {completed} completed packets "
                    f"(min {budget.min_completed})"
                )
            for q, cap in (
                (0.50, budget.p50_us),
                (0.99, budget.p99_us),
                (0.999, budget.p999_us),
            ):
                if cap is None:
                    continue
                got = report.class_percentile_us(priority, q, clock_hz)
                if got > cap:
                    out.append(
                        f"{name}: p{q * 100:g} latency {got:.1f}us "
                        f"over budget {cap:.1f}us"
                    )
            if budget.max_drop_fraction is not None:
                got = report.drop_fraction(priority)
                if got > budget.max_drop_fraction:
                    out.append(
                        f"{name}: drop fraction {got:.3f} over budget "
                        f"{budget.max_drop_fraction:.3f}"
                    )
        if (
            self.max_auth_failures is not None
            and report.auth_failures > self.max_auth_failures
        ):
            out.append(
                f"auth failures {report.auth_failures} over budget "
                f"{self.max_auth_failures}"
            )
        if (
            self.max_dead_lettered is not None
            and report.dead_lettered > self.max_dead_lettered
        ):
            out.append(
                f"dead-lettered {report.dead_lettered} over budget "
                f"{self.max_dead_lettered}"
            )
        return out


#: Table II as published: {(mode_config, key_bits): (theoretical, 2KB)}
#: mode_config in {"gcm_1", "gcm_4x1", "ccm_1", "ccm_4x1", "ccm_2", "ccm_2x2"}.
PAPER_TABLE2: Dict[Tuple[str, int], Tuple[int, int]] = {
    ("gcm_1", 128): (496, 437),
    ("gcm_4x1", 128): (1984, 1748),
    ("ccm_1", 128): (233, 214),
    ("ccm_4x1", 128): (932, 856),
    ("ccm_2", 128): (442, 393),
    ("ccm_2x2", 128): (884, 786),
    ("gcm_1", 192): (426, 382),
    ("gcm_4x1", 192): (1704, 1528),
    ("ccm_1", 192): (202, 187),
    ("ccm_4x1", 192): (808, 748),
    ("ccm_2", 192): (386, 348),
    ("ccm_2x2", 192): (772, 696),
    ("gcm_1", 256): (374, 337),
    ("gcm_4x1", 256): (1496, 1348),
    ("ccm_1", 256): (178, 171),
    ("ccm_4x1", 256): (712, 684),
    ("ccm_2", 256): (342, 313),
    ("ccm_2x2", 256): (684, 626),
}

#: The abstract's headline number: max aggregate throughput.
PAPER_MAX_THROUGHPUT_MBPS = 1700  # "1.7 Gbps"


@dataclass(frozen=True)
class Table2Row:
    """One cell pair of Table II."""

    config: str
    key_bits: int
    theoretical_mbps: float
    packet_mbps: float
    paper_theoretical: int
    paper_packet: int


def mbps(payload_bits: int, cycles: int, clock_hz: float = CLOCK_HZ_DEFAULT) -> float:
    """Convert (bits, cycles) to Mbps at *clock_hz*."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    return payload_bits * clock_hz / cycles / 1e6


def _config_parts(config: str) -> Tuple[str, int, int]:
    """(mode, cores_per_packet, parallel_packets) for a Table II config."""
    table = {
        "gcm_1": ("gcm", 1, 1),
        "gcm_4x1": ("gcm", 1, 4),
        "ccm_1": ("ccm1", 1, 1),
        "ccm_4x1": ("ccm1", 1, 4),
        "ccm_2": ("ccm2", 2, 1),
        "ccm_2x2": ("ccm2", 2, 2),
    }
    return table[config]


def theoretical_mbps(
    config: str,
    key_bits: int,
    timing: TimingModel = DEFAULT_TIMING,
    clock_hz: float = CLOCK_HZ_DEFAULT,
) -> float:
    """The theoretical column of Table II from the loop model."""
    mode, _cores, packets = _config_parts(config)
    loop = LoopModel(timing).period(mode, key_bits)
    return packets * mbps(128, loop, clock_hz)


def theoretical_table2(
    timing: TimingModel = DEFAULT_TIMING, clock_hz: float = CLOCK_HZ_DEFAULT
) -> List[Table2Row]:
    """All Table II rows with the theoretical column filled in."""
    rows = []
    for (config, key_bits), (paper_theo, paper_pkt) in sorted(
        PAPER_TABLE2.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        rows.append(
            Table2Row(
                config=config,
                key_bits=key_bits,
                theoretical_mbps=round(theoretical_mbps(config, key_bits, timing, clock_hz), 1),
                packet_mbps=float("nan"),
                paper_theoretical=paper_theo,
                paper_packet=paper_pkt,
            )
        )
    return rows
