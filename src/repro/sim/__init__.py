"""Discrete-event, cycle-level simulation kernel.

The MCCP device model runs on this kernel: every hardware component
(8-bit controllers, the Cryptographic Unit's processing cores, FIFOs,
the task scheduler, the communication controller) is either a *process*
(a Python generator that yields delays or events) or a passive structure
touched by processes.  Time is an integer cycle count of the single
MCCP clock domain (190 MHz in the paper; the frequency only matters when
converting cycles to seconds in :mod:`repro.analysis.throughput`).

The kernel is deliberately minimal — a few hundred lines, no
dependencies — in the spirit of "make it work, make it right, then
profile" from the HPC guides; it comfortably simulates millions of
cycles per second of wall time because only *events* cost work, not
cycles.
"""

from repro.sim.kernel import Delay, Event, Process, Simulator
from repro.sim.fifo import WordFifo
from repro.sim.signals import PulseWire
from repro.sim.tracing import TraceRecorder, TraceEvent

__all__ = [
    "Delay",
    "Event",
    "Process",
    "Simulator",
    "WordFifo",
    "PulseWire",
    "TraceRecorder",
    "TraceEvent",
]
