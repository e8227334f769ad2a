"""Every checker is shown to fail: a catalogue of planted faults.

A check that cannot fail passes whatever the model does, and is found
only by hand.  Each fault below is a context manager that breaks the
model in one small, named way; each test plants one and asserts that the
checks claiming to cover it report a failure.  The checks are the
suite's own: a test function of another module is imported as pytest
imports it and called under the fault.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest

import repro.core.harness as harness
import repro.radio.comm_controller as comm_controller
from repro.core.firmware.library import FIRMWARE_LIBRARY
from repro.core.params import Algorithm, CcmRole, Direction
from repro.crypto.fast import aes_ttable, clear_caches
from repro.crypto.fast import bulk as fast_bulk
from repro.errors import ExperimentError
from repro.experiments.fuzz import check_cores_case, generate_cores_case, loop_period_errors
from repro.isa.controller import SYNC_QUANTUM
from repro.sim.fifo import WordFifo, _Flow
from repro.sim.signals import PulseWire
from repro.unit.timing import DEFAULT_TIMING
from repro.unit.unit import LooselyTimedUnit, Timing
from repro.utils.bits import words32_to_bytes

from tests.conftest import cores_replay

TESTS = Path(__file__).resolve().parent


def _test_module(path: str):
    """The test module at *path* (under ``tests/``), imported the way
    pytest's default import mode does: by file name, its directory first
    on ``sys.path``, so a module pytest already collected is reused."""
    directory = str((TESTS / path).parent)
    if directory not in sys.path:
        sys.path.insert(0, directory)
    return importlib.import_module(Path(path).stem)


# -- the faults ------------------------------------------------------------------


@contextmanager
def aes256_one_cycle_slower():
    """AES-256 takes one cycle more than the paper's 60 per block."""
    cycles = DEFAULT_TIMING.aes_cycles
    with mock.patch.dict(cycles, {256: cycles[256] + 1}):
        yield


@contextmanager
def private_issue_one_cycle_late():
    """A CU instruction the controller issues ahead of the kernel lands
    one cycle after its ``OUTPUT``."""
    start = LooselyTimedUnit.start

    def late(self, instr_byte, cycle=None, ahead=0):
        row = self.ISSUE.get(instr_byte)
        if ahead and row is not None and row[3] in (Timing.FIXED, Timing.ENGINE):
            cycle, ahead = cycle + 1, ahead + 1
        return start(self, instr_byte, cycle, ahead)

    with mock.patch.object(LooselyTimedUnit, "start", late):
        yield


@contextmanager
def ahead_claim_one_cycle_late():
    """A ``LOAD`` or ``STORE`` issued ahead of the kernel claims its FIFO
    block one cycle after the cycle the FIFO's schedule fixes."""

    def late(ready):
        def wrapper(self, at, nwords=4):
            cycle = ready(self, at, nwords)
            if cycle is not None and at[0] > self.sim.now:
                cycle += 1
            return cycle

        return wrapper

    with mock.patch.object(WordFifo, "pop_ready", late(WordFifo.pop_ready)), mock.patch.object(
        WordFifo, "push_ready", late(WordFifo.push_ready)
    ):
        yield


@contextmanager
def in_quantum_halt_one_cycle_early():
    """A ``HALT`` that sleeps inside the controller's quantum wakes one
    cycle before the unit's done pulse."""
    fixed_wake = PulseWire.fixed_wake

    def early(self, earliest, ahead):
        wake = fixed_wake(self, earliest, ahead)
        if wake is not None and wake > earliest and wake - 1 - self.sim.now < SYNC_QUANTUM:
            wake -= 1
        return wake

    with mock.patch.object(PulseWire, "fixed_wake", early):
        yield


@contextmanager
def in_block_halt_one_cycle_long():
    """A ``HALT`` inside a translated block sleeps one cycle past the
    wake-up the unit fixed."""
    fixed_wake = PulseWire.fixed_wake

    def late(self, earliest, ahead):
        wake = fixed_wake(self, earliest, ahead)
        if wake is not None and sys._getframe(1).f_code.co_filename.startswith("<PC"):
            wake += 1
        return wake

    with mock.patch.object(PulseWire, "fixed_wake", late):
        yield


@contextmanager
def drained_stretch_one_cycle_late():
    """The FIFO's closed-form drain pops a stretch's last word one cycle
    late, so the run ends, or tries its next pop, a cycle late."""
    drain = _Flow.drain

    def late(self, run, i, last, bound):
        j = drain(self, run, i, last, bound)
        if j > i:
            if run.end is not None:
                run.end = (run.end[0] + 1, run.end[1] + 1)
            else:
                run.stalled += 1
        return j

    with mock.patch.object(_Flow, "drain", late):
        yield


def _flip_first_bit(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x80]) + data[1:]


@contextmanager
def fast_gcm_tag_bit_flipped():
    """The fast one-call GCM seal returns a tag with one bit flipped."""
    seal = fast_bulk.gcm_seal

    def flipped(*args, **kwargs):
        ciphertext, tag = seal(*args, **kwargs)
        return ciphertext, _flip_first_bit(tag)

    with mock.patch.object(fast_bulk, "gcm_seal", flipped):
        yield


@contextmanager
def last_round_key_bit_flipped():
    """The engine's key expansion returns a schedule whose last round
    key has one bit flipped, in every module that imports it by name:
    the key scheduler, the one-call path and the batch engine alike."""
    original = aes_ttable.expand_key_cached

    @functools.lru_cache(maxsize=None)
    def flipped(key):
        *rounds, last = original(key)
        return (*rounds, (last[0] ^ 1, *last[1:]))

    modules = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "expand_key_cached", None) is original
    ]
    with ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "expand_key_cached", flipped))
        # No schedule, table or key-array memo built before the fault
        # may serve under it, nor one built under it after.
        stack.callback(clear_caches)
        clear_caches()
        yield


@contextmanager
def device_output_bit_flipped():
    """A core's output reaches its caller with the first bit flipped,
    through the task harness and through the communication controller."""

    def flipped(words):
        return _flip_first_bit(words32_to_bytes(words))

    with mock.patch.object(harness, "words32_to_bytes", flipped):
        with mock.patch.object(comm_controller, "words32_to_bytes", flipped):
            yield


# -- the checks under them ---------------------------------------------------------

#: A tier-1 cores fuzz seed with GCM-256 tasks of 21 blocks.
GCM256_CORES_SEED = 1


def test_loop_periods_catch_a_slower_aes256():
    with aes256_one_cycle_slower():
        errors = loop_period_errors(cores_replay().mccp)
    # Every one of the 12 tasks loops at 66, not the paper's 65.
    assert len(errors) == 12
    assert all("loop period 66, paper 65" in error for error in errors)


def test_cores_fuzz_catches_a_slower_aes256():
    case = generate_cores_case(GCM256_CORES_SEED)
    with aes256_one_cycle_slower():
        errors = check_cores_case(case)
    assert errors and all("paper 65" in error for error in errors)


def test_cores_fuzz_catches_a_flipped_round_key_bit():
    """The device, the batch engine and the one-call path all expand
    keys through the engine, so only the reference modes see this."""
    case = generate_cores_case(GCM256_CORES_SEED)
    with last_round_key_bit_flipped():
        errors = check_cores_case(case)
    assert any("sealed output differs from the reference" in error for error in errors)
    assert all(error.startswith("cores: ") for error in errors)


def _gcm_encrypt_firmware():
    return next(
        key
        for key in FIRMWARE_LIBRARY
        if key.algorithm is Algorithm.GCM
        and key.direction is Direction.ENCRYPT
        and key.role is CcmRole.SINGLE
    )


def test_stepped_oracle_catches_a_late_private_issue():
    decoupled = _test_module("isa/test_decoupled_controller.py")
    with private_issue_one_cycle_late():
        with pytest.raises(AssertionError):
            decoupled.test_library_firmware_matches_stepped_model(_gcm_encrypt_firmware())
        with pytest.raises(AssertionError):
            decoupled.test_generated_cu_program_matches_stepped(0)


def test_cycle_pins_catch_a_late_private_issue():
    pins = _test_module("radio/test_cores_cycle_pins.py")
    with private_issue_one_cycle_late(), pytest.raises(AssertionError):
        pins.test_cores_dataplane_cycles_are_pinned()


#: Faults in what the controller and its unit do ahead of the kernel.
AHEAD_FAULTS = {
    "late_private_issue": private_issue_one_cycle_late,
    "late_ahead_claim": ahead_claim_one_cycle_late,
    "early_in_quantum_halt": in_quantum_halt_one_cycle_early,
    "long_in_block_halt": in_block_halt_one_cycle_long,
}


@pytest.mark.parametrize("fault", ["late_ahead_claim", "early_in_quantum_halt", "long_in_block_halt"])
def test_stepped_oracle_catches_an_ahead_fault(fault):
    decoupled = _test_module("isa/test_decoupled_controller.py")
    with AHEAD_FAULTS[fault]():
        with pytest.raises(AssertionError):
            decoupled.test_library_firmware_matches_stepped_model(_gcm_encrypt_firmware())
        with pytest.raises(AssertionError):
            decoupled.test_generated_cu_program_matches_stepped(2)


@pytest.mark.parametrize("fault", ["late_ahead_claim", "early_in_quantum_halt", "long_in_block_halt"])
def test_cycle_pins_catch_an_ahead_fault(fault):
    pins = _test_module("radio/test_cores_cycle_pins.py")
    with AHEAD_FAULTS[fault](), pytest.raises(AssertionError):
        pins.test_cores_dataplane_cycles_are_pinned()


@pytest.mark.parametrize("fault", sorted(AHEAD_FAULTS))
def test_cores_fuzz_catches_an_ahead_fault(fault):
    """Loop periods hide these faults (the firmware's slack absorbs a
    cycle); the replay whose controllers step at the kernel does not."""
    case = generate_cores_case(GCM256_CORES_SEED)
    with AHEAD_FAULTS[fault]():
        errors = check_cores_case(case)
    assert "cores: cycles differ from a replay with its controllers stepping" in errors


def test_stepped_fifo_catches_a_late_drained_stretch():
    """Only a run's end shows the fault: a drained stretch is followed
    by a wait, which the next claim ends on its own cycle.  The FIFO
    against the stepped FIFO, a generated program whose drain ends after
    its task, and a cores replay against the stepped model, whose
    transfers record where each download ended, see it."""
    fifo_tests = _test_module("sim/test_fifo.py")
    decoupled = _test_module("isa/test_decoupled_controller.py")
    platform = _test_module("radio/test_cores_stepped_model.py")
    with drained_stretch_one_cycle_late():
        with pytest.raises(AssertionError):
            fifo_tests.test_pushes_claimed_ahead_match_the_stepped_fifo(13, 6, 1)
        with pytest.raises(AssertionError):
            decoupled.test_generated_cu_program_matches_stepped(13)
        with pytest.raises(AssertionError):
            platform.test_cores_dataplane_matches_stepped_model("gcm_4x1")


def test_cycle_pins_catch_a_late_drained_stretch():
    pins = _test_module("radio/test_cores_cycle_pins.py")
    with drained_stretch_one_cycle_late(), pytest.raises(AssertionError):
        pins.test_cores_dataplane_cycles_are_pinned()


def test_mode_mix_catches_a_flipped_fast_gcm_bit():
    stress = _test_module("experiments/test_stress_scenarios.py")
    with fast_gcm_tag_bit_flipped(), pytest.raises(ExperimentError, match="not the reference"):
        stress.test_mode_mix_fast_path_equals_reference("gcm")


def test_gold_model_scenarios_catch_a_flipped_device_output_bit():
    stress = _test_module("experiments/test_stress_scenarios.py")
    reconfig = _test_module("reconfig/test_reconfig.py")
    with device_output_bit_flipped():
        with pytest.raises(ExperimentError, match="key_churn: round 0"):
            stress.test_key_churn_device_output_is_the_gold_model(2)
        with pytest.raises(ExperimentError, match="reconfig_under_load: packet 0"):
            reconfig.test_reconfig_under_load_full_grid(2)
