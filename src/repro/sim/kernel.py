"""The event queue, processes and events.

Model
-----
- :class:`Simulator` owns an integer clock (``now``, in cycles) and a
  priority queue of pending callbacks.
- A :class:`Process` wraps a generator.  The generator may yield:

  * :class:`Delay` — resume after N cycles;
  * :class:`Event` — resume when the event triggers (the yield
    expression evaluates to the event's value);
  * ``None`` — resume in the same cycle, after already-scheduled
    callbacks (a "delta cycle", useful to let signals settle).

- An :class:`Event` triggers at most once and fans out to any number of
  waiters.  Waiting on an already-triggered event resumes immediately
  with the stored value (latch semantics — this is exactly what the
  paper's custom ``HALT`` needs to avoid the done-pulse race).

Determinism: ties in time are broken by the cycle an entry was
scheduled at, then by insertion order — for ordinary entries that is
just insertion order — so a given program produces one reproducible
schedule.  ``Delay(cycles, ahead)`` lets a temporally decoupled process
(one that simulated *ahead* cycles without yielding) keep the
same-cycle order it would have had stepping cycle by cycle.

Catch-up on access
------------------
A loosely timed component (the Cryptographic Unit, the FIFOs) keeps
some of its future as *virtual* entries: keys ``(time, scheduled,
seq)`` it has computed but not pushed on the heap.  When anything
touches it, it first applies every virtual entry that the stepped
schedule would already have run: those keyed below
:meth:`Simulator.position`, the key of the entry running now.
Such a component registers itself with :meth:`add_timeline`, so that
a run that drains the heap still ends on the cycle of its last
virtual entry, as a stepped model's last event would have set it.
"""

from __future__ import annotations

import weakref
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError


class Delay:
    """Yielded by a process to sleep for *cycles* (must be >= 0).

    *ahead* (``0 <= ahead <= cycles``) is for a process that has already
    simulated *ahead* cycles past ``now`` without yielding: its wake-up
    is ordered among the events of its cycle as if it had been
    scheduled at ``now + ahead``, where a process stepping cycle by
    cycle would have scheduled it.

    A ``__slots__`` object rather than a frozen dataclass: models
    construct one per process step, so construction cost is part of the
    kernel's per-event overhead.  The fields stay read-only (the
    scheduler's Delay fast path relies on construction-time validation,
    so a mutable field could smuggle a negative delay past it).
    """

    __slots__ = ("_cycles", "_ahead")

    def __init__(self, cycles: int, ahead: int = 0):
        if cycles < 0:
            raise SimulationError(f"negative delay: {cycles}")
        if not 0 <= ahead <= cycles:
            raise SimulationError(f"ahead={ahead} outside 0..{cycles}")
        object.__setattr__(self, "_cycles", cycles)
        object.__setattr__(self, "_ahead", ahead)

    @property
    def cycles(self) -> int:
        return self._cycles

    @property
    def ahead(self) -> int:
        return self._ahead

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Delay is immutable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Delay({self._cycles}, ahead={self._ahead})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Delay)
            and other._cycles == self._cycles
            and other._ahead == self._ahead
        )

    def __hash__(self) -> int:
        return hash((Delay, self._cycles, self._ahead))


class Event:
    """A one-shot occurrence processes can wait on.

    Once triggered, the value is latched: late waiters resume
    immediately.  Triggering twice raises.
    """

    __slots__ = ("sim", "name", "_triggered", "_value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event fired with (None until triggered)."""
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event now, resuming all waiters this cycle."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            self.sim.call_soon(cb, value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register *callback(value)*; runs immediately if already fired."""
        if self._triggered:
            self.sim.call_soon(callback, self._value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "triggered" if self._triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Process:
    """A running generator bound to the simulator.

    The process's :attr:`done` event triggers with the generator's
    return value when it finishes.
    """

    __slots__ = ("sim", "name", "generator", "done", "_finished")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.done = Event(sim, f"{self.name}.done")
        self._finished = False

    @property
    def finished(self) -> bool:
        """Whether the generator has run to completion."""
        return self._finished

    def _step(self, send_value: Any = None) -> None:
        try:
            yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self._finished = True
            self.done.trigger(stop.value)
            return
        cls = yielded.__class__
        if cls is Delay:
            # Fast path for the dominant yield: Delay validated its own
            # cycles >= 0, so the scheduled time can never be in the
            # past and the entry is pushed without call_at's guard.
            sim = self.sim
            now = sim.now
            seq = sim._seq
            sim._seq = seq + 1
            sim._pending += 1
            heappush(
                sim._queue,
                (now + yielded._cycles, now + yielded._ahead, seq, _Entry(self._step, None)),
            )
        elif cls is Event or isinstance(yielded, Event):
            yielded.add_waiter(self._step)
        elif yielded is None:
            self.sim.call_soon(self._step, None)
        elif isinstance(yielded, Delay):  # pragma: no cover - Delay subclass
            self.sim.call_at(self.sim.now + yielded.cycles, self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {yielded!r}; expected "
                "Delay, Event or None"
            )


class _Entry:
    """A scheduled callback, as :meth:`Simulator.call_at` returns it.

    The heap holds ``(time, scheduled, seq, entry)`` tuples: ``seq`` is
    unique, so the heap orders by the three ints in C and never compares
    entries.
    """

    __slots__ = ("callback", "argument", "cancelled", "consumed")

    def __init__(self, callback: Callable, argument: Any):
        self.callback = callback
        self.argument = argument
        self.cancelled = False
        self.consumed = False


#: Stamp and sequence number of the position after a finished ``run``:
#: every entry of the current cycle, real or virtual, has run.
_END = 1 << 62


class Simulator:
    """The discrete-event scheduler (one instance per modeled device).

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc():
    ...     yield Delay(5)
    ...     log.append(sim.now)
    >>> _ = sim.add_process(proc())
    >>> sim.run()
    >>> log
    [5]
    """

    def __init__(self) -> None:
        self.now = 0
        self._queue: List[Tuple[int, int, int, _Entry]] = []
        self._seq = 0
        self._running = False
        #: Live count of queued, non-cancelled callbacks (kept exact on
        #: every push/pop/cancel so :attr:`pending_events` is O(1)).
        self._pending = 0
        #: ``scheduled`` stamp and ``seq`` of the entry running now (or
        #: last run); see :meth:`position`.
        self._stamp = -1
        self._order = -1
        self._timelines: "weakref.WeakSet" = weakref.WeakSet()

    # -- scheduling primitives -------------------------------------------

    def call_at(self, time: int, callback: Callable, argument: Any = None) -> _Entry:
        """Schedule ``callback(argument)`` at absolute cycle *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        entry = _Entry(callback, argument)
        heappush(self._queue, (time, self.now, self._seq, entry))
        self._seq += 1
        self._pending += 1
        return entry

    def call_stamped(
        self, time: int, scheduled: int, callback: Callable, argument: Any = None
    ) -> _Entry:
        """Schedule ``callback(argument)`` at *time*, ordered among the
        entries of that cycle as if scheduled at cycle *scheduled*.

        For a loosely timed component that turns a virtual entry into a
        real one: the wake-up keeps the stamp the stepped model would
        have given it (*scheduled* may lie in the past).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        entry = _Entry(callback, argument)
        heappush(self._queue, (time, scheduled, self._seq, entry))
        self._seq += 1
        self._pending += 1
        return entry

    # -- virtual entries -----------------------------------------------------

    def position(self) -> Tuple[int, int, int]:
        """The exclusive upper bound of every key that has already run.

        A virtual entry ``(time, scheduled, seq)`` is in the past iff it
        compares below this tuple.  A component that records a virtual
        entry while an entry runs gives it ``seq = self._seq`` (the
        number the next real entry would get), so it orders after the
        running entry and before every real entry scheduled later.
        """
        return (self.now, self._stamp, self._order + 1)

    def add_timeline(self, component: Any) -> None:
        """Register a component holding virtual entries.

        ``component.horizon()`` returns the cycle of its last virtual
        entry (0 if none); a ``run`` that drains the heap ends on the
        latest of them.  Held weakly.
        """
        self._timelines.add(component)

    def _finish_drained(self) -> None:
        """The heap is empty: run the clock out to the last virtual entry."""
        self._stamp = self._order = _END
        for component in list(self._timelines):
            horizon = component.horizon()
            if horizon > self.now:
                self.now = horizon

    def cancel(self, entry: _Entry) -> bool:
        """Cancel a scheduled entry; returns whether it was still live.

        The entry stays in the heap (lazy deletion) but is skipped by
        the run loop; the pending counter drops immediately, and the
        entry drops its callback and argument, so a cancelled wake-up
        keeps nothing it referred to alive (a bound method would keep
        its owner, and the owner the simulator).  Cancelling an entry
        that already executed (or was cancelled before) is a no-op
        returning False — the counter only moves for live entries.
        """
        if entry.cancelled or entry.consumed:
            return False
        entry.cancelled = True
        entry.callback = entry.argument = None
        self._pending -= 1
        return True

    def call_later(self, delay: int, callback: Callable, argument: Any = None) -> _Entry:
        """Schedule ``callback(argument)`` *delay* cycles from now."""
        return self.call_at(self.now + delay, callback, argument)

    def call_soon(self, callback: Callable, argument: Any = None) -> _Entry:
        """Schedule ``callback(argument)`` later in the current cycle."""
        return self.call_at(self.now, callback, argument)

    # -- processes and events --------------------------------------------

    def add_process(self, generator: Generator, name: str = "") -> Process:
        """Register *generator* as a process starting this cycle."""
        proc = Process(self, generator, name)
        self.call_soon(proc._step, None)
        return proc

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event."""
        return Event(self, name)

    def timeout(self, cycles: int, value: Any = None) -> Event:
        """An event that fires *cycles* from now with *value*."""
        ev = Event(self, f"timeout@{self.now + cycles}")
        self.call_later(cycles, ev.trigger, value)
        return ev

    # -- execution --------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains or *until* cycles is reached.

        ``max_events`` is a runaway guard for buggy models: exceeding it
        raises :class:`SimulationError` instead of hanging the host.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        processed = 0
        queue = self._queue
        pop = heappop
        try:
            while queue:
                time, stamp, order, entry = queue[0]
                if entry.cancelled:
                    pop(queue)
                    continue
                if until is not None and time > until:
                    self.now = until
                    self._stamp = self._order = _END
                    return
                pop(queue)
                entry.consumed = True
                self._pending -= 1
                self.now = time
                self._stamp = stamp
                self._order = order
                entry.callback(entry.argument)
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway model?"
                    )
            if until is None:
                self._finish_drained()
            else:
                if until > self.now:
                    self.now = until
                self._stamp = self._order = _END
        finally:
            self._running = False

    def run_until_event(self, event: Event, limit: int = 1_000_000_000) -> Any:
        """Run until *event* triggers; returns its value.

        Raises :class:`SimulationError` if the queue drains (deadlock)
        or the cycle *limit* passes without the event firing.
        """
        queue = self._queue
        while not event.triggered:
            if not queue:
                raise SimulationError(
                    f"deadlock: queue drained at cycle {self.now} while "
                    f"waiting for {event.name!r}"
                )
            if self.now > limit:
                raise SimulationError(
                    f"cycle limit {limit} exceeded waiting for {event.name!r}"
                )
            time, stamp, order, entry = heappop(queue)
            if entry.cancelled:
                continue
            entry.consumed = True
            self._pending -= 1
            self.now = time
            self._stamp = stamp
            self._order = order
            entry.callback(entry.argument)
        return event.value

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) callbacks (O(1): a live
        counter maintained on push/pop/cancel, not a heap scan)."""
        return self._pending
