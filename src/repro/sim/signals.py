"""Pulse wires.

:class:`PulseWire` models edge-style strobes (``start``/``done``
handshakes): every pulse creates a fresh one-shot event, and a *latch*
flag absorbs the pulse-before-wait race the paper's custom HALT
instruction must also handle.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim.kernel import Event, Simulator


class PulseWire:
    """A strobe with done-latch semantics.

    ``pulse(value)`` wakes current waiters and sets the latch;
    ``wait()`` returns an event that fires on the next pulse — or
    immediately if the latch is set, consuming it.  This mirrors the
    8-bit controller's HALT: if the Cryptographic Unit finished before
    the controller reached HALT, the controller must not sleep forever.
    """

    def __init__(self, sim: Simulator, name: str = "pulse"):
        self.sim = sim
        self.name = name
        #: The loosely timed component that pulses this wire, if any: a
        #: wait first catches it up (``catch_up()``), and a waiter left
        #: pending asks it for a real wake-up (``wake_on_completion()``).
        self.driver: Any = None
        self._waiters: List[Event] = []
        self._latched = False
        self._latched_value: Any = None
        #: Total number of pulses ever sent.
        self.pulse_count = 0

    def pulse(self, value: Any = None) -> None:
        """Fire the strobe."""
        self.pulse_count += 1
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for ev in waiters:
                ev.trigger(value)
        else:
            self._latched = True
            self._latched_value = value

    def wait(self) -> Event:
        """Event for the next pulse (or the latched one, consuming it)."""
        driver = self.driver
        if driver is not None:
            driver.catch_up()
        ev = self.sim.event(f"{self.name}.pulse")
        if self._latched:
            self._latched = False
            value, self._latched_value = self._latched_value, None
            ev.trigger(value)
        else:
            self._waiters.append(ev)
            if driver is not None:
                driver.wake_on_completion()
        return ev

    def fixed_pulse(self) -> Optional[int]:
        """When a wait started now would be woken, if that is fixed.

        ``-1`` if a pulse is latched (the wait returns at once); the
        cycle of the driver's next pulse if it already knows it
        (``driver.idle_cycle()``); None otherwise.  A caller that
        sleeps to that cycle instead of waiting calls :meth:`consume`
        when it wakes.
        """
        driver = self.driver
        if driver is not None:
            driver.catch_up()
        if self._latched:
            return -1
        return driver.idle_cycle() if driver is not None else None

    def consume(self) -> None:
        """Absorb the pulse a :meth:`fixed_pulse` sleeper woke for."""
        if self.driver is not None:
            self.driver.catch_up()
        self._latched = False
        self._latched_value = None

    @property
    def waiting(self) -> bool:
        """Whether a wait is pending (the next pulse wakes someone)."""
        return bool(self._waiters)

    def clear_latch(self) -> None:
        """Explicitly drop a pending latched pulse."""
        self._latched = False
        self._latched_value = None
