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
import re
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest

import repro.core.harness as harness
import repro.isa.controller as controller
import repro.radio.comm_controller as comm_controller
import repro.sim.fifo as fifo
from repro.core.firmware.library import FIRMWARE_LIBRARY
from repro.core.params import Algorithm, CcmRole, Direction
from repro.crypto.fast import aes_ttable, aes_vector, clear_caches
from repro.crypto.fast import bulk as fast_bulk
from repro.errors import ExperimentError
from repro.experiments.fuzz import check_cores_case, generate_cores_case, loop_period_errors
from repro.isa.controller import SYNC_QUANTUM
from repro.sim.fifo import WordFifo, _Flow
from repro.sim.signals import PulseWire
from repro.unit.cores import aes_core
from repro.unit.cores.inc_core import inc16
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


@contextmanager
def wake_up_claim_stamped_as_an_instruction():
    """A ``LOAD`` or ``STORE`` claimed ahead of the kernel on a ``HALT``'s
    wake-up is keyed as if the instruction before it had scheduled the
    access, not the wake-up: the unit forgets the wake-up it fixed."""
    sleep = LooselyTimedUnit.sleep

    def forgetful(self, earliest, ahead):
        wake = sleep(self, earliest, ahead)
        self.done.woke = -1
        return wake

    with mock.patch.object(LooselyTimedUnit, "sleep", forgetful):
        yield


@contextmanager
def woken_catch_up_stamped_as_an_instruction():
    """The controller's catch-up right after an in-quantum ``HALT``'s
    wake-up is ordered as if the last instruction had scheduled it."""
    with mock.patch.object(controller, "_WOKEN", controller._CATCH_UP):
        yield


@contextmanager
def claim_and_attempt_ties_inverted():
    """A claim and a run's attempt on one cycle and stamp run in the
    opposite order."""
    claim_first, attempt_first = fifo._claim_first, fifo._attempt_first

    def attempt(run, tied, limit, created):
        first = attempt_first(run, tied, limit, created)
        return first if created is None else not first

    with mock.patch.object(fifo, "_claim_first", lambda claim, run: not claim_first(claim, run)):
        with mock.patch.object(fifo, "_attempt_first", attempt):
            yield


@contextmanager
def tied_restart_after_the_claim():
    """A claim made with the number of the claim that restarted a run
    comes before the run's next attempt."""
    claim_first, attempt_first = fifo._claim_first, fifo._attempt_first

    def claim(claim, run):
        return claim_first(claim, run) or run.prev == claim[2]

    def attempt(run, tied, limit, created):
        return attempt_first(run, tied, limit, created) and not (tied == 1 and run.key == created)

    with mock.patch.object(fifo, "_claim_first", claim), mock.patch.object(fifo, "_attempt_first", attempt):
        yield


@contextmanager
def in_block_halt_runs_past_the_quantum():
    """A translated block runs on past a ``HALT`` whose wake-up leaves its
    rest beyond the quantum.  Programs translate afresh under the fault,
    and their memoised translations are kept out of it."""
    function, translation = controller._function, controller.translation

    def unchecked(*args, **kwargs):
        return re.sub(r"(cycle = w\n\s+if )(ahead >= )", r"\1False and \2", function(*args, **kwargs))

    def fresh(program):
        saved = program.__dict__.pop("_translation", None)
        try:
            return translation(program)
        finally:
            if saved is None:
                program.__dict__.pop("_translation", None)
            else:
                program._translation = saved

    with mock.patch.object(controller, "_function", unchecked):
        with mock.patch.object(controller, "translation", fresh):
            yield


@contextmanager
def drained_stretch_past_its_bound():
    """The FIFO's closed-form drain applies claimed pushes keyed past the
    position it replays to."""
    drain = _Flow.drain

    def unbounded(self, run, i, last, bound):
        return drain(self, run, i, last, fifo._NEVER)

    with mock.patch.object(_Flow, "drain", unbounded):
        yield


@contextmanager
def remembered_window_one_block_late():
    """A counter run that reads ahead from its second block, in a window
    sized by the core's last long run, fills from one counter too far."""
    bulk = aes_core.bulk

    class Shifted:
        @staticmethod
        def ctr_stream(round_keys, counter, nblocks, inc_bits):
            if sys._getframe(1).f_locals["consumed"] < aes_core.batch.MIN_LANES:
                counter = inc16(int.from_bytes(counter, "big"), 1).to_bytes(16, "big")
            return bulk.ctr_stream(round_keys, counter, nblocks, inc_bits)

    with mock.patch.object(aes_core, "bulk", Shifted):
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


# -- the ahead protocol's rules, each pinned on a generated case -------------------

#: Faults in a rule of the ahead protocol, each with a generated CU
#: program (``_CuProgram``) that the stepped oracle fails under it.
PROTOCOL_FAULTS = {
    "wake_up_claim_stamp": (wake_up_claim_stamped_as_an_instruction, 5),
    "woken_catch_up_stamp": (woken_catch_up_stamped_as_an_instruction, 1),
    "ties_inverted": (claim_and_attempt_ties_inverted, 34),
    "tied_restart_after_the_claim": (tied_restart_after_the_claim, 5),
    "drained_stretch_past_its_bound": (drained_stretch_past_its_bound, 15),
}


@pytest.mark.parametrize("fault", sorted(PROTOCOL_FAULTS))
def test_stepped_oracle_catches_a_protocol_fault(fault):
    decoupled = _test_module("isa/test_decoupled_controller.py")
    plant, seed = PROTOCOL_FAULTS[fault]
    decoupled.test_generated_cu_program_matches_stepped(seed)
    with plant(), pytest.raises(AssertionError):
        decoupled.test_generated_cu_program_matches_stepped(seed)


#: A cores fuzz seed whose GCM tasks split a translated block at a
#: ``HALT`` near the quantum's end.
QUANTUM_SPLIT_CORES_SEED = 7


def test_cores_fuzz_catches_an_in_block_halt_past_the_quantum():
    """The rest of the block runs past the quantum, and the controller's
    next catch-up finds no yield for so many cycles."""
    case = generate_cores_case(QUANTUM_SPLIT_CORES_SEED)
    with in_block_halt_runs_past_the_quantum(), pytest.raises(IndexError):
        check_cores_case(case)
    assert check_cores_case(case) == []


@pytest.mark.skipif(not aes_vector.HAVE_NUMPY, reason="the AES core reads ahead with numpy")
def test_cores_fuzz_catches_a_late_remembered_window():
    case = generate_cores_case(GCM256_CORES_SEED)
    with remembered_window_one_block_late():
        errors = check_cores_case(case)
    assert any("sealed output differs from the reference" in error for error in errors)
