"""Pulse wires (done-latch semantics) and the trace recorder."""

from repro.sim.kernel import Simulator
from repro.sim.signals import PulseWire
from repro.sim.tracing import TraceRecorder


def test_pulse_wire_wakes_waiter():
    sim = Simulator()
    p = PulseWire(sim, "p")
    ev = p.wait()
    assert not ev.triggered
    p.pulse("v")
    sim.run()
    assert ev.triggered and ev.value == "v"


def test_pulse_latch_consumed_once():
    sim = Simulator()
    p = PulseWire(sim, "p")
    p.pulse(1)
    first = p.wait()
    assert first.triggered and first.value == 1
    second = p.wait()
    assert not second.triggered  # latch consumed


def test_pulse_latch_is_boolean_not_counter():
    sim = Simulator()
    p = PulseWire(sim, "p")
    p.pulse()
    p.pulse()
    assert p.pulse_count == 2
    assert p.wait().triggered
    assert not p.wait().triggered


def test_clear_latch():
    sim = Simulator()
    p = PulseWire(sim, "p")
    p.pulse()
    p.clear_latch()
    assert not p.wait().triggered


def test_trace_recorder_filters_and_periods():
    t = TraceRecorder(enabled=True)
    for c in (10, 59, 108):
        t.record(c, "cu", "issue", op="SAES")
    t.record(20, "cu", "complete")
    assert len(t) == 4
    assert t.cycles_of("cu", "issue") == [10, 59, 108]
    assert t.periods("cu", "issue") == [49, 49]
    assert len(t.filter(kind="complete")) == 1
    t.clear()
    assert len(t) == 0


def test_trace_disabled_records_nothing():
    t = TraceRecorder(enabled=False)
    t.record(1, "x", "y")
    assert len(t) == 0
