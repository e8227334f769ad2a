"""Differential fuzzing of the batched dataplane, a tier-1 slice.

:mod:`repro.experiments.fuzz` draws small workload and session-storm
shapes from a seed and replays each through the end-of-run barrier and
with every dispatch computed alone; both must match the per-packet
one-call path, each other, packet conservation, per-channel completion
order and the fault plan's dead-letter set.  CI runs 200 cases
(``python -m repro.experiments.fuzz --cases 200``); this slice keeps
tier-1 within a couple of seconds.
"""

import pytest

from repro.experiments.fuzz import check_case, generate_case, main
from repro.radio.sessions import SessionWorkload

#: Seeds of the tier-1 slice: both shape kinds, faulted and not.
SEEDS = range(16)


def test_cases_are_a_pure_function_of_the_seed():
    assert generate_case(3) == generate_case(3)
    assert generate_case(3) != generate_case(4)
    kinds = {type(generate_case(seed).shape) for seed in SEEDS}
    assert SessionWorkload in kinds and len(kinds) == 2
    assert any(generate_case(seed).batch_error_rate for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_case_holds_every_invariant(seed):
    assert check_case(generate_case(seed)) == []


def test_cli_reports_the_cases_it_ran(capsys):
    assert main(["--cases", "2", "--seed", "100"]) == 0
    assert "2 cases from seed 100: 0 failed" in capsys.readouterr().out
