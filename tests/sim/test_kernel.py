"""Discrete-event kernel: ordering, processes, events, guards."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Delay, Simulator


def test_callbacks_run_in_time_order():
    sim = Simulator()
    log = []
    sim.call_at(10, lambda _: log.append(10))
    sim.call_at(5, lambda _: log.append(5))
    sim.call_at(5, lambda _: log.append("5b"))
    sim.run()
    assert log == [5, "5b", 10]
    assert sim.now == 10


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_at(10, lambda _: sim.call_at(3, lambda _2: None))
    with pytest.raises(SimulationError):
        sim.run()


def test_process_delay_and_return_value():
    sim = Simulator()

    def proc():
        yield Delay(7)
        yield Delay(3)
        return "done"

    p = sim.add_process(proc())
    sim.run()
    assert sim.now == 10
    assert p.finished
    assert p.done.value == "done"


def test_process_waits_event():
    sim = Simulator()
    ev = sim.event("e")
    log = []

    def waiter():
        value = yield ev
        log.append((sim.now, value))

    sim.add_process(waiter())
    sim.call_at(42, lambda _: ev.trigger("ping"))
    sim.run()
    assert log == [(42, "ping")]


def test_event_latches_for_late_waiters():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(5)
    got = []

    def late():
        got.append((yield ev))

    sim.add_process(late())
    sim.run()
    assert got == [5]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Delay(-1)


def test_invalid_yield_rejected():
    sim = Simulator()

    def proc():
        yield 42

    sim.add_process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_limit():
    sim = Simulator()

    def forever():
        while True:
            yield Delay(10)

    sim.add_process(forever())
    sim.run(until=55)
    assert sim.now == 55


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event("never")
    with pytest.raises(SimulationError):
        sim.run_until_event(ev)


def test_timeout_event():
    sim = Simulator()
    ev = sim.timeout(20, "late")
    value = sim.run_until_event(ev)
    assert value == "late"
    assert sim.now == 20


def test_pending_events_counter_tracks_push_pop():
    sim = Simulator()
    assert sim.pending_events == 0
    entries = [sim.call_at(t, lambda _: None) for t in (1, 2, 3, 4)]
    assert sim.pending_events == 4
    sim.run(until=2)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0
    assert all(e.cancelled is False for e in entries)


def test_cancel_is_lazy_and_counted():
    sim = Simulator()
    log = []
    keep = sim.call_at(5, lambda _: log.append("keep"))
    drop = sim.call_at(3, lambda _: log.append("drop"))
    assert sim.pending_events == 2
    assert sim.cancel(drop) is True
    assert sim.cancel(drop) is False  # idempotent
    assert sim.pending_events == 1
    sim.run()
    assert log == ["keep"]
    assert sim.pending_events == 0
    assert keep.cancelled is False


def test_cancel_after_execution_is_a_noop():
    sim = Simulator()
    entry = sim.call_at(1, lambda _: None)
    sim.run()
    assert sim.pending_events == 0
    # Cancelling an already-executed entry must not drive the counter
    # negative (it was popped, not queued).
    assert sim.cancel(entry) is False
    assert sim.pending_events == 0


def test_cancelled_entry_skipped_in_run_until_event():
    sim = Simulator()
    ev = sim.event("target")
    doomed = sim.call_at(1, lambda _: ev.trigger("wrong"))
    sim.cancel(doomed)
    sim.call_at(2, lambda _: ev.trigger("right"))
    assert sim.run_until_event(ev) == "right"
    assert sim.pending_events == 0


def test_delay_validation_and_equality():
    assert Delay(3) == Delay(3)
    assert Delay(3) != Delay(4)
    assert hash(Delay(3)) == hash(Delay(3))


def test_delay_is_immutable():
    d = Delay(3)
    with pytest.raises(AttributeError):
        d.cycles = -10
    assert d.cycles == 3


def test_delta_cycle_yield_none():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    sim.add_process(a())
    sim.add_process(b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]


def test_delay_ahead_validation():
    assert Delay(5, ahead=3) == Delay(5, ahead=3) != Delay(5)
    assert Delay(5, ahead=3).ahead == 3 and Delay(5).ahead == 0
    for cycles, ahead in ((3, 4), (3, -1)):
        with pytest.raises(SimulationError):
            Delay(cycles, ahead=ahead)


@pytest.mark.parametrize("ahead,expected", [(0, ["proc", "cb"]), (3, ["cb", "proc"])])
def test_delay_ahead_orders_as_if_scheduled_later(ahead, expected):
    """A process that ran *ahead* cycles without yielding wakes after
    same-cycle entries scheduled before ``now + ahead``."""
    sim = Simulator()
    order = []

    def proc():
        yield Delay(5, ahead=ahead)
        order.append("proc")

    def schedule_callback():
        yield Delay(1)
        sim.call_at(5, lambda _: order.append("cb"))

    sim.add_process(proc())
    sim.add_process(schedule_callback())
    sim.run()
    assert order == expected
