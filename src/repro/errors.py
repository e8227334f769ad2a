"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one type at the red/black boundary.  The hierarchy
mirrors the layering of the MCCP device: crypto-level errors, ISA/firmware
errors, device-protocol errors and reconfiguration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class CryptoError(ReproError):
    """Base class for errors in the reference cryptography layer."""


class KeySizeError(CryptoError):
    """Raised when a key has an unsupported length."""


class BlockSizeError(CryptoError):
    """Raised when input violates a block-size constraint."""


class NonceError(CryptoError):
    """Raised when a nonce/IV has an invalid length for the mode."""


class TagError(CryptoError):
    """Raised when an authentication tag parameter is invalid."""


class AuthenticationFailure(CryptoError):
    """Raised (or signalled) when an authentication tag does not verify.

    At the device level the MCCP does not raise: it re-initialises the
    output FIFO and returns ``AUTH_FAIL`` through ``RETRIEVE_DATA``
    (paper section IV.C).  The reference mode implementations raise this
    exception instead; the device model converts it to the flag.
    """


class IsaError(ReproError):
    """Base class for 8-bit controller ISA errors."""


class AssemblerError(IsaError):
    """Raised by the two-pass assembler on malformed source."""


class ExecutionError(IsaError):
    """Raised by the controller interpreter on illegal execution."""


class UnitError(ReproError):
    """Base class for Cryptographic Unit errors."""


class DecodeError(UnitError):
    """Raised when a CU instruction byte cannot be decoded."""


class BankAddressError(UnitError):
    """Raised on an out-of-range bank-register address."""


class CoreError(ReproError):
    """Base class for Cryptographic Core errors."""


class FifoError(CoreError):
    """Raised on FIFO misuse (overflow on push, underflow on pop)."""


class FirmwareError(CoreError):
    """Raised when a firmware program is malformed or unsupported."""


class DeviceError(ReproError):
    """Base class for MCCP top-level errors."""


class ProtocolError(DeviceError):
    """Raised on a malformed control-protocol instruction."""


class NoResourceError(DeviceError):
    """Raised when no cryptographic core (or channel slot) is available.

    The hardware returns an error flag through the return register; the
    Python convenience wrappers raise this exception.
    """


class ChannelError(DeviceError):
    """Raised when a channel id is unknown or in the wrong state."""


class BackpressureError(DeviceError):
    """Raised when an enqueue would push a bounded channel queue past
    its high watermark.

    The typed backpressure signal of the overload-protection layer:
    instead of growing a coalescing queue without bound, a channel with
    a configured :attr:`repro.mccp.channel.Channel.capacity` refuses
    the job and the producer decides — wait and retry (radio-side
    queueing), or hand the packet to the admission controller to defer
    or shed.  Carries enough context for that decision.
    """

    def __init__(self, channel_id: int, depth: int, capacity: int):
        super().__init__(
            f"channel {channel_id} queue is at its high watermark "
            f"({depth}/{capacity} jobs); back off or shed"
        )
        self.channel_id = channel_id
        self.depth = depth
        self.capacity = capacity


class KeyStoreError(DeviceError):
    """Raised on key-memory violations (unknown id, write attempts)."""


class ReconfigError(ReproError):
    """Base class for partial-reconfiguration errors."""


class RegionCapacityError(ReconfigError):
    """Raised when a module does not fit the reconfigurable region."""


class BitstreamError(ReconfigError):
    """Raised when a bitstream is unknown or corrupted."""


class SimulationError(ReproError):
    """Raised by the discrete-event kernel on scheduling misuse."""


class ExperimentError(ReproError):
    """Raised by a scenario of :mod:`repro.experiments` whose output or
    invariant is wrong (a secured packet that is not the gold model's,
    a chaos survivor that differs from the fault-free run, a broken
    overload SLA)."""


class ResilienceError(ReproError):
    """Base class for fault-injection and recovery-path errors.

    The red/black boundary still catches one root type: everything the
    self-healing machinery raises — or deliberately injects — derives
    from here (and therefore from :class:`ReproError`).
    """


class BackendError(ResilienceError):
    """Execution-backend *infrastructure* failure, as opposed to a
    crypto error raised by the work itself.  These are the only errors
    the retry/degradation machinery in ``ExecutionBackend.run`` treats
    as retryable; a crypto error always propagates untouched."""


class WorkerCrashError(BackendError):
    """A pool worker died mid-span (broken process pool, or an injected
    crash simulating one)."""


class BatchTimeoutError(BackendError):
    """A backend span exceeded its wall-clock watchdog budget."""


class QuarantinedPacketError(ResilienceError):
    """A packet poisoned its batch and was bisect-isolated; the batch
    layer returns this in the packet's result slot so batchmates are
    undisturbed and the dataplane can dead-letter just the one job."""


class InjectedFault(ResilienceError):
    """Raised at a fault site on behalf of an active ``FaultPlan``.

    Only ever raised while fault injection is enabled (``REPRO_FAULTS``
    or a programmatic plan); production paths never construct one.
    """


class SchedulerError(ReproError):
    """Raised by task-mapping policies on invalid configuration."""
