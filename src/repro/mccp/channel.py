"""Channel state (paper section III.B: OPEN/CLOSE lifecycle).

A channel binds an algorithm to a session key id.  Packets from the
same channel may be processed concurrently on different cores
(section IV.D), so the channel itself holds no per-packet state.

Since the dataplane refactor the channel is also the coalescing point
of the unified :class:`PacketJob` pipeline: every packet the radio
submits — whether it will run on the simulated cores or through the
software batch engine — becomes one ``PacketJob``, and batch-engine
jobs queue here until a flush drains them.  The channel's
:class:`FlushPolicy` decides *when* that happens: a size threshold
(``coalesce_limit`` jobs trigger an immediate dispatch) and a sim-time
idle deadline (``flush_deadline`` cycles after the oldest queued job,
so low-rate channels never stall a packet indefinitely waiting for
batch-mates).  That is the software restatement of the paper's
many-channel pipelining — same-key packets share one pass through the
engine instead of paying per-packet dispatch — with the latency
guard-rail a real radio needs.
"""

from __future__ import annotations

import enum
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.params import Algorithm, Direction

#: Default packets-per-dispatch for the batched submission path.  The
#: lane-parallel CBC-MAC and fused counter sweeps amortise best around
#: this width on 2 KB packets; it is a per-channel knob, not a constant.
DEFAULT_COALESCE_LIMIT = 32

#: Default idle deadline (cycles) before an under-filled batch is
#: forced out.  At the paper's 190 MHz clock this is ~43 us — far under
#: every profile's latency budget but long enough for a saturating
#: channel to fill a batch many times over.
DEFAULT_FLUSH_DEADLINE = 8192


@dataclass(frozen=True)
class FlushPolicy:
    """When a channel's queued jobs are dispatched.

    **The canonical flush lifecycle** (the communication controller's
    dataplane runs this sequence):

    1. **Coalesce** — submitted jobs queue in :attr:`Channel.pending`,
       in submission order, until a trigger fires.
    2. **Trigger** — either the *size threshold* (``coalesce_limit``
       queued jobs), the *idle deadline* (``flush_deadline`` cycles
       after the oldest queued job), or an *explicit force*
       (``CommController.flush_now``).
    3. **Dispatch** — jobs pop :attr:`Channel.coalesce_limit` at a
       time (never more per batch) and run through the batch engine;
       while a popped batch is computing it is accounted in
       :attr:`Channel.in_flight`.
    4. **Fan-out** — each job's completion fires in submission order
       within its channel, whatever executed where (and, under the
       pipelined dataplane, in whatever wall-clock order batches
       actually finished).

    ``coalesce_limit`` is the size threshold *and* the per-dispatch
    width cap: reaching it triggers an immediate flush, and no dispatch
    ever exceeds it.  ``flush_deadline`` bounds how long the *oldest*
    queued job may wait (in simulated cycles) before an under-filled
    batch is forced out; ``None`` disables the deadline (size-only
    flushing — callers must drain explicitly at end of stream) and
    ``0`` dispatches on the enqueueing cycle (still coalescing jobs
    that arrive within the same cycle).

    A policy is frozen: it holds for the whole run, and one instance
    may be shared by every channel it configures.
    """

    coalesce_limit: int = DEFAULT_COALESCE_LIMIT
    flush_deadline: Optional[int] = DEFAULT_FLUSH_DEADLINE

    def __post_init__(self) -> None:
        if self.coalesce_limit < 0:
            raise ValueError(
                f"coalesce_limit must be >= 0, got {self.coalesce_limit}; "
                "a negative width would silently disable size-triggered "
                "flushing downstream"
            )
        if self.coalesce_limit == 0:
            # Documented floor: "dispatch immediately" callers write 0.
            object.__setattr__(self, "coalesce_limit", 1)
        if self.flush_deadline is not None and self.flush_deadline < 0:
            raise ValueError(
                f"flush_deadline must be >= 0 or None, got {self.flush_deadline}"
            )

    def check_capacity(self, queue_capacity: Optional[int], where: str) -> None:
        """Reject a queue this policy can never flush.

        A size-only policy (``flush_deadline=None``) dispatches
        only at ``coalesce_limit`` queued jobs; a bounded queue that
        holds fewer never gets there, and its producer backs off
        forever.  *where* names the configuration in the error.
        """
        if (
            self.flush_deadline is None
            and queue_capacity is not None
            and queue_capacity < self.coalesce_limit
        ):
            raise ValueError(
                f"{where}: a size-only flush policy (coalesce_limit="
                f"{self.coalesce_limit}, flush_deadline=None) never flushes a "
                f"queue capped at {queue_capacity} jobs; give it a "
                "flush_deadline, a smaller coalesce_limit or a larger "
                "queue_capacity"
            )


@dataclass
class PacketJob:
    """One packet's traversal of the dataplane, submit to completion.

    The single job abstraction both execution engines share: the
    communication controller formats a radio packet into a job, the
    channel layer queues and coalesces it, and either the cycle-model
    cores (``via_cores=True``) or the software batch engine carry it
    out.  The crypto payload fields (``direction``/``nonce``/``data``/
    ``aad``/``tag``) are what the engines consume; the accounting
    fields let completions fan back out to per-packet records with
    correct latency attribution.

    The payload fields are deliberately buffer-friendly: the batch
    layer treats ``data``/``aad`` as read-only bytes-likes, so the
    arena dataplane (:mod:`repro.crypto.fast.arena`) can copy them
    once into a shared-memory slab and hand workers offset/length
    descriptors instead of pickling payload bytes per dispatch.
    Nothing downstream mutates these fields in place.
    """

    direction: Direction
    #: Caller-owned nonce (the communication controller issues nonces;
    #: the channel layer never invents them).
    nonce: bytes
    #: Plaintext (ENCRYPT) or ciphertext (DECRYPT).
    data: bytes
    aad: bytes = b""
    #: Expected tag (DECRYPT only).
    tag: Optional[bytes] = None

    # -- identity / accounting ------------------------------------------------
    channel_id: int = -1
    sequence: int = 0
    priority: int = 1
    #: Cycle the radio created the packet (latency epoch).
    created_cycle: int = 0
    #: Cycle the job entered its channel queue.
    enqueued_cycle: int = 0
    #: Cycle the completion record was stamped (None while in flight).
    completed_cycle: Optional[int] = None

    # -- routing --------------------------------------------------------------
    #: True = dispatch on the simulated cores (cycle model); False =
    #: coalesce through the software batch engine.
    via_cores: bool = False
    #: Two-core CCM split (cores engine only).
    two_core: bool = False

    # -- completion -----------------------------------------------------------
    #: Kernel Event triggered with the CompletedTransfer (owner-set);
    #: the dataplane lets go of it once fired.
    completion: Optional[Any] = None
    #: Engine-level outcome (:class:`repro.mccp.mccp.BatchResult`).
    result: Optional[Any] = None
    #: Weak link behind :attr:`transfer`.
    _transfer: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def transfer(self) -> Optional[Any]:
        """Comm-level record (:class:`repro.radio.comm_controller
        .CompletedTransfer`), stamped by the dataplane; None in flight.

        Held weakly: the record holds the job (``transfer.job``) and
        the controller's ``completed`` map holds the record, so a
        strong link back would only make every finished job a
        reference cycle.
        """
        return self._transfer() if self._transfer is not None else None

    @transfer.setter
    def transfer(self, record) -> None:
        self._transfer = weakref.ref(record)


class ChannelState(enum.Enum):
    """Lifecycle of a channel."""

    OPEN = "open"
    CLOSED = "closed"


@dataclass
class Channel:
    """One open communication channel."""

    channel_id: int
    algorithm: Algorithm
    key_id: int
    key_bits: int
    state: ChannelState = ChannelState.OPEN
    #: Default tag length for the channel's packets (bytes).
    tag_length: int = 16
    #: Statistics.
    packets_processed: int = 0
    bytes_processed: int = 0
    auth_failures: int = 0
    #: Event counts: ``batches``, ``jobs_enqueued``, ``queue_peak``,
    #: ``backpressure_signals``, ``dead_lettered``, ``flush_<cause>``.
    stats: Counter = field(default_factory=Counter)
    #: Jobs queued for batched dispatch (drained by flush).
    pending: List[PacketJob] = field(default_factory=list)
    #: Jobs popped by a drain but not yet completed (a dispatch in its
    #: simulated control/transfer window).  Teardown guards must treat
    #: these like queued jobs: they are no longer in ``pending`` but
    #: their completions have not fired.
    in_flight: int = 0
    #: When queued jobs dispatch (size threshold + idle deadline).
    flush_policy: FlushPolicy = field(default_factory=FlushPolicy)
    #: Jobs that failed unrecoverably (quarantined packet, unreadable
    #: key) and were pulled out of the normal completion stream's
    #: accounting: each carries a failed ``result`` whose ``error``
    #: says why.  The per-channel quarantine the SLA budgets
    #: (``SlaSpec.max_dead_lettered``) draw drop accounting from.
    dead_letters: List[PacketJob] = field(default_factory=list)
    #: Bound on :attr:`pending` (the high watermark): an enqueue that
    #: would exceed it raises :class:`repro.errors.BackpressureError`
    #: instead of growing the queue.  None (the default) keeps the
    #: historical unbounded behaviour.
    capacity: Optional[int] = None
    #: Hysteresis floor: once the queue has hit the high watermark the
    #: channel stays :attr:`under_pressure` until a drain brings the
    #: depth back to this level (None = ``capacity // 2``).  The
    #: admission controller sheds low-priority traffic while the flag
    #: is set, so shedding doesn't flap per-packet around the
    #: watermark.
    low_watermark: Optional[int] = None
    #: Sticky overload flag (see :attr:`low_watermark`).
    under_pressure: bool = False

    @property
    def coalesce_limit(self) -> int:
        """Max jobs coalesced into one dispatch (flush-policy view)."""
        return self.flush_policy.coalesce_limit

    @property
    def is_open(self) -> bool:
        """Whether the channel accepts new packet requests."""
        return self.state is ChannelState.OPEN

    @property
    def pending_count(self) -> int:
        """Jobs currently waiting for a batched flush."""
        return len(self.pending)

    @property
    def oldest_pending_cycle(self) -> Optional[int]:
        """Enqueue cycle of the oldest queued job (deadline anchor)."""
        return self.pending[0].enqueued_cycle if self.pending else None

    @property
    def effective_low_watermark(self) -> int:
        """Hysteresis floor in jobs (only meaningful when bounded)."""
        if self.low_watermark is not None:
            return self.low_watermark
        return max(1, (self.capacity or 2) // 2)

    def enqueue(self, job: PacketJob) -> int:
        """Queue one job for batched dispatch; returns queue depth.

        On a bounded channel (non-None :attr:`capacity`) an enqueue at
        the high watermark refuses the job with
        :class:`repro.errors.BackpressureError` — the typed signal the
        producer (or the admission controller) reacts to — and marks
        the channel :attr:`under_pressure` until a drain clears it.
        """
        depth = len(self.pending)
        if self.capacity is not None and depth >= self.capacity:
            self.under_pressure = True
            self.stats["backpressure_signals"] += 1
            from repro.errors import BackpressureError

            raise BackpressureError(self.channel_id, depth, self.capacity)
        self.pending.append(job)
        depth += 1
        stats = self.stats
        stats["jobs_enqueued"] += 1
        if depth > stats["queue_peak"]:
            stats["queue_peak"] = depth
        if self.capacity is not None and depth >= self.capacity:
            self.under_pressure = True
        return depth

    def take_batch(self) -> List[PacketJob]:
        """Pop up to :attr:`coalesce_limit` jobs, submission order."""
        limit = max(1, self.coalesce_limit)
        batch, self.pending = self.pending[:limit], self.pending[limit:]
        if (
            self.under_pressure
            and len(self.pending) <= self.effective_low_watermark
        ):
            self.under_pressure = False
        return batch

    def close(self) -> None:
        """Transition to CLOSED (idempotent)."""
        self.state = ChannelState.CLOSED
