"""The Cryptographic Core (paper Fig. 2): FIFOs + controller + CU.

A core is a passive resource the Task Scheduler drives:

1. ``assign_task(params)`` — loads the right firmware into the (shared)
   instruction memory, installs the parameter block, resets the CU and
   spawns the controller process (the paper's start signal).
2. The firmware streams blocks between the FIFOs and the CU.
3. The firmware's write to the result port completes the task: the
   :class:`CoreResult` is published on the ``task_done`` event and, on
   authentication failure, the output FIFO is re-initialised before the
   master can read it (section IV.C's anti-spoofing measure).

The core also owns the key cache and the inter-core mailbox endpoints.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.firmware import firmware_for
from repro.core.firmware.builder import (
    P_CU,
    P_MASK_HI,
    P_MASK_LO,
    P_RESULT,
    P_STATUS,
    RESULT_AUTH_FAIL,
    RESULT_OK,
)
from repro.core.key_cache import KeyCache
from repro.core.params import TaskParams
from repro.errors import CoreError
from repro.isa.controller import Controller8
from repro.isa.program import Program
from repro.sim.fifo import WordFifo
from repro.sim.kernel import Event, Simulator
from repro.sim.tracing import TraceRecorder
from repro.unit.cores.io_core import IoCore
from repro.unit.timing import TimingModel
from repro.unit.unit import CryptoUnit
from repro.unit.whirlpool_unit import WhirlpoolUnit

#: Debug/loopback port used by tests.
P_DEBUG = 0x21


@dataclass(frozen=True)
class CoreResult:
    """Outcome of one packet task."""

    ok: bool
    auth_failed: bool
    start_cycle: int
    end_cycle: int

    @property
    def cycles(self) -> int:
        """Total task latency in cycles."""
        return self.end_cycle - self.start_cycle


class CryptoCore:
    """One of the MCCP's cryptographic cores."""

    def __init__(
        self,
        sim: Simulator,
        timing: TimingModel,
        index: int = 0,
        trace: Optional[TraceRecorder] = None,
        fifo_depth_words: int = 512,
    ):
        self.sim = sim
        self.timing = timing
        self.index = index
        self.name = f"core{index}"
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

        self.in_fifo = WordFifo(sim, fifo_depth_words, f"{self.name}.in")
        self.out_fifo = WordFifo(sim, fifo_depth_words, f"{self.name}.out")
        self.io = IoCore(self.in_fifo, self.out_fifo)
        self.key_cache = KeyCache(f"{self.name}.keys")

        self.unit = CryptoUnit(
            sim,
            self.io,
            self.key_cache.round_keys,
            timing,
            trace=self.trace,
            name=f"{self.name}.cu",
        )
        #: The Whirlpool personality, swapped in by the reconfiguration
        #: manager; ``active_unit`` is whichever personality is loaded.
        self.whirlpool_unit = WhirlpoolUnit(
            sim, self.io, timing, trace=self.trace, name=f"{self.name}.wpu"
        )
        self.active_unit = self.unit

        # A placeholder program; real firmware is loaded per task.
        from repro.isa.assembler import assemble

        # The controller and the done wire point back at the core and its
        # unit weakly, so a finished run is freed by reference counting.
        self.controller = Controller8(
            sim,
            assemble("RETURN", name="idle"),
            device=weakref.proxy(self),
            name=f"{self.name}.ctrl",
        )
        self._wire_unit(self.active_unit)

        self.params: Optional[TaskParams] = None
        self.busy = False
        self.task_done: Optional[Event] = None
        self._task_start_cycle = 0
        #: Completed-task counter.
        self.tasks_completed = 0
        self.auth_failures = 0

    # -- wiring ---------------------------------------------------------------

    def _wire_unit(self, unit) -> None:
        # The CU's done wire *is* the controller's HALT wake line; a HALT
        # catches the (loosely timed) unit up before it sleeps.
        unit.done = self.controller.wake
        self.controller.wake.driver = weakref.proxy(unit)
        self.controller.rebind_ports()

    def use_whirlpool_personality(self, enabled: bool = True) -> None:
        """Swap the CU region's personality (partial reconfiguration)."""
        if self.busy:
            raise CoreError(f"{self.name}: cannot reconfigure while busy")
        self.active_unit = self.whirlpool_unit if enabled else self.unit
        self._wire_unit(self.active_unit)

    # -- PortDevice interface --------------------------------------------------

    def read_port(self, port: int) -> int:
        """Controller INPUT dispatch."""
        if port == P_STATUS:
            return self.active_unit.status_byte()
        if 0x10 <= port <= 0x1F:
            if self.params is None:
                raise CoreError(f"{self.name}: parameter read with no task")
            return self.params.port_value(port)
        return 0

    def writer(self, port: int) -> Callable[[int, int, int], bool]:
        """The controller's ``OUTPUT`` handler for *port*, called with the
        value, the write's cycle and how far that lies ahead of the
        kernel (see :class:`~repro.isa.controller.PortDevice`).  A CU
        issue and a mask write go straight to the unit, which takes them
        ahead when they are private (:meth:`_wire_unit` rebinds them on
        a swap); every other port waits for the kernel."""
        unit = self.active_unit
        if port == P_CU:
            return unit.start
        if port == P_MASK_LO:
            return unit.set_mask_low
        if port == P_MASK_HI:
            return unit.set_mask_high
        core = weakref.proxy(self)  # held weakly, as the controller holds the core

        def write(value: int, cycle: int, ahead: int) -> bool:
            if ahead:
                return False
            core.write_port(port, value)
            return True

        return write

    def write_port(self, port: int, value: int) -> None:
        """Controller OUTPUT dispatch."""
        if port == P_CU:
            self.active_unit.start(value)
        elif port == P_MASK_LO:
            self.active_unit.set_mask_low(value)
        elif port == P_MASK_HI:
            self.active_unit.set_mask_high(value)
        elif port == P_RESULT:
            self._finish_task(value)
        elif port == P_DEBUG:
            # Catch the unit up first so its trace rows stay in cycle order.
            self.active_unit.catch_up()
            self.trace.record(self.sim.now, self.name, "debug", value=value)
        else:
            raise CoreError(f"{self.name}: write to unmapped port {port:#04x}")

    # -- task lifecycle ----------------------------------------------------------

    def assign_task(self, params: TaskParams, program: Optional[Program] = None) -> Event:
        """Start processing one packet; returns the completion event.

        The caller (Task Scheduler) must have installed the round keys
        in the key cache first (for AES algorithms).
        """
        if self.busy:
            raise CoreError(f"{self.name}: task assigned while busy")
        self.params = params
        self.busy = True
        self._task_start_cycle = self.sim.now
        self.task_done = self.sim.event(f"{self.name}.task_done")
        self.active_unit.reset_for_packet()

        if program is None:
            program = firmware_for(params.algorithm, params.direction, params.role)
        self.controller.load_program(program)
        self.controller._stopped = False
        self.controller.stack.clear()
        self.controller.wake.clear_latch()
        self.trace.record(
            self.sim.now,
            self.name,
            "task_start",
            algorithm=params.algorithm.name,
            direction=params.direction.name,
            blocks=params.data_blocks,
        )
        self.sim.add_process(self.controller.run(), name=f"{self.name}.fw")
        return self.task_done

    def _finish_task(self, result_code: int) -> None:
        if not self.busy or self.task_done is None:
            raise CoreError(f"{self.name}: result written with no task")
        unit = self.active_unit
        if unit.busy or unit.queued:
            # Firmware published its result while the CU still has tail
            # work (possible with custom programs that skip the drain
            # fence).  The task is not done — and the core must not be
            # reassignable — until the last STORE lands in the FIFO.
            unit.call_when_idle(lambda: self._finish_task(result_code))
            return
        # Replay the FIFOs' schedules up to now: the task's claimed block
        # moves are all past, and nothing else may touch them for a while.
        self.in_fifo.sync()
        self.out_fifo.sync()
        auth_failed = result_code == RESULT_AUTH_FAIL
        if auth_failed:
            # Security: never expose unauthenticated plaintext.
            self.out_fifo.purge()
            self.auth_failures += 1
        elif result_code != RESULT_OK:
            raise CoreError(
                f"{self.name}: unknown result code {result_code:#04x}"
            )
        result = CoreResult(
            ok=not auth_failed,
            auth_failed=auth_failed,
            start_cycle=self._task_start_cycle,
            end_cycle=self.sim.now,
        )
        self.busy = False
        self.tasks_completed += 1
        self.controller.stop()
        self.trace.record(
            self.sim.now, self.name, "task_done", ok=result.ok, cycles=result.cycles
        )
        self.task_done.trigger(result)
