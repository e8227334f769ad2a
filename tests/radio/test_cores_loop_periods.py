"""Section VII.A's loop periods on a perfbench-shaped ``cores`` replay.

``tests/core/test_timing_periods.py`` measures the loop periods on one
core running one packet.  This test measures them on the device the
``cores_cycle`` benchmark replays (:func:`tests.conftest.cores_replay`):
four GCM-256 channels on four cores with received and corrupted
packets, with the crossbar, the Task Scheduler and FIFO contention in
the loop.  The oracle is the paper's equations
(:func:`repro.experiments.fuzz.loop_period_errors`), which share no code
with the controller, the firmware or the timing calibration they check.
"""

from repro.experiments.fuzz import LOOP_MIN_BLOCKS, loop_period_errors

from tests.conftest import cores_replay


def test_cores_replay_loops_at_the_paper_period():
    platform = cores_replay()
    requests = list(platform.mccp.scheduler.requests.values())
    # Every packet is a 2 KB GCM task long enough to be checked.
    assert len(requests) == 12
    assert all(r.tasks[0].params.data_blocks >= LOOP_MIN_BLOCKS for r in requests)
    assert loop_period_errors(platform.mccp) == []
