"""chaos_sweep's survivor invariant, on hand-built completion records.

``_check_invariant`` is what makes a chaos cell fail: it raises unless
the faulted run completed the same packets, in the same per-channel
order, with every surviving packet byte-identical to the fault-free
run.  A dead-lettered packet (``ok=False``) is exempt from the byte
check.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.scenarios.chaos import _check_invariant

#: (channel, sequence) -> (payload, tag, ok), as ``_run_cell`` records it.
BASELINE = {
    (0, 0): (b"aa", b"t0", True),
    (0, 1): (b"bb", b"t1", True),
    (1, 0): (b"cc", None, True),
}
ORDER = {0: [0, 1], 1: [0]}


def _faulted(records=None, drop=()):
    """BASELINE with *records* overridden and the keys in *drop* removed."""
    faulted = {**BASELINE, **(records or {})}
    for key in drop:
        del faulted[key]
    return faulted


def test_identical_run_passes():
    _check_invariant("none", BASELINE, dict(BASELINE), ORDER, dict(ORDER))


def test_dead_lettered_survivor_is_exempt_from_the_byte_check():
    faulted = _faulted(records={(0, 1): (b"", None, False)})
    _check_invariant("batch_error", BASELINE, faulted, ORDER, dict(ORDER))


@pytest.mark.parametrize(
    "faulted,order,match",
    [
        (_faulted(drop=[(0, 1)]), ORDER, r"completion sets differ \(lost \[\(0, 1\)\]\)"),
        (_faulted(records={(2, 0): (b"dd", None, True)}), ORDER, "completion sets differ"),
        (dict(BASELINE), {0: [1, 0], 1: [0]}, "completion order changed"),
        (_faulted(records={(0, 0): (b"ax", b"t0", True)}), ORDER, r"survivor \(0, 0\) differs"),
        (_faulted(records={(0, 1): (b"bb", b"tX", True)}), ORDER, r"survivor \(0, 1\) differs"),
    ],
    ids=["lost_packet", "extra_packet", "reordered", "payload_differs", "tag_differs"],
)
def test_broken_survivor_invariant_raises(faulted, order, match):
    with pytest.raises(ExperimentError, match=match):
        _check_invariant("worker_crash", BASELINE, faulted, ORDER, order)


def test_survivor_that_failed_in_the_baseline_but_passed_faulted_raises():
    baseline = _faulted(records={(1, 0): (b"cc", None, False)})
    with pytest.raises(ExperimentError, match=r"survivor \(1, 0\) differs"):
        _check_invariant("worker_crash", baseline, dict(BASELINE), ORDER, dict(ORDER))
