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
        #: wait first catches it up (``catch_up()``), :meth:`fixed_wake`
        #: asks it for the wake-up (``sleep()``), and a waiter left
        #: pending asks it for a real wake-up (``wake_on_completion()``).
        self.driver: Any = None
        #: Pending waits: the next pulse wakes them.
        self.waiters: List[Event] = []
        #: A pulse arrived with no one waiting (its value is kept).
        self.latched = False
        self._latched_value: Any = None
        #: Cycle of the last wake-up :meth:`fixed_wake` fixed (see there).
        self.woke = -1

    def pulse(self, value: Any = None) -> None:
        """Fire the strobe."""
        if self.waiters:
            waiters, self.waiters = self.waiters, []
            for ev in waiters:
                ev.trigger(value)
        else:
            self.latched = True
            self._latched_value = value

    def wait(self) -> Event:
        """Event for the next pulse (or the latched one, consuming it)."""
        driver = self.driver
        if driver is not None:
            driver.catch_up()
        ev = self.sim.event(f"{self.name}.pulse")
        if self.latched:
            self.latched = False
            value, self._latched_value = self._latched_value, None
            ev.trigger(value)
        else:
            self.waiters.append(ev)
            if driver is not None:
                driver.wake_on_completion()
        return ev

    def fixed_wake(self, earliest: int, ahead: int) -> Optional[int]:
        """Where a wait that cannot end before *earliest* wakes, if that
        is already fixed, ahead of the kernel's clock by *ahead* cycles.

        A latched pulse ends it at *earliest*.  A driver answers for
        itself (``driver.sleep(earliest, ahead)``): it knows its next
        pulse, or not yet.  A caller that gets a cycle sleeps to it
        instead of waiting: the driver has been caught up to it and the
        pulse absorbed, and the cycle is kept in :attr:`woke`, so that
        an access the sleeper makes on it is ordered as its wake-up.
        """
        driver = self.driver
        if driver is not None:
            return driver.sleep(earliest, ahead)
        if not self.latched:
            return None
        self.clear_latch()
        self.woke = earliest
        return earliest

    def clear_latch(self) -> None:
        """Explicitly drop a pending latched pulse."""
        self.latched = False
        self._latched_value = None
