"""Differential fuzzing of the batched dataplane, a tier-1 slice.

:mod:`repro.experiments.fuzz` draws small workload and session-storm
shapes from a seed and replays each through the end-of-run barrier and
with every dispatch computed alone; both must match the per-packet
one-call path, each other, packet conservation, per-channel completion
order and the fault plan's dead-letter set.  A second pair replays
small workloads on the cycle-level ``cores`` dataplane and on
``batched``, and a third replays a dataplane case with numpy and with
every numpy fast path turned off.  CI runs 200 + 240 cases (``python -m
repro.experiments.fuzz --cases 200 --cores-cases 240``) and 40 numpy
cases (``--cases 0 --numpy-cases 40 --seed 2000``); these slices keep
tier-1 within a few seconds.
"""

from types import SimpleNamespace

import pytest

from repro.core.params import Algorithm, Direction
from repro.crypto.fast import aes_vector
from repro.crypto.modes.gcm import gcm_encrypt
from repro.experiments import fuzz
from repro.experiments.fuzz import (
    check_case,
    check_cores_case,
    check_numpy_case,
    generate_case,
    generate_cores_case,
    main,
)
from repro.radio.sessions import SessionWorkload
from repro.unit.cores import aes_core

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


#: Seeds of the tier-1 numpy-vs-pure-Python slice: a workload and a
#: session storm, faulted, whose CCM chains, counter runs and GHASH tags
#: reach the vector kernels (lane CBC-MAC, keystream and GHASH sweeps).
NUMPY_SEEDS = (1, 2, 9)


@pytest.mark.parametrize("seed", NUMPY_SEEDS)
def test_pure_python_case_matches_numpy(seed):
    assert check_numpy_case(generate_case(seed)) == []


def test_cli_runs_the_numpy_pair(capsys):
    assert main(["--cases", "0", "--numpy-cases", "1", "--seed", "4"]) == 0
    assert "1 numpy cases from seed 4: 0 failed" in capsys.readouterr().out


#: Seeds of the tier-1 ``cores``-vs-``batched`` slice; 81 (two cores)
#: starts a download on a core whose previous download ended on that
#: cycle, before its ``done`` fired.
CORES_SEEDS = (*range(8), 14, 34, 81)
#: Slice seeds whose GCM or two-core CCM counter runs are long enough
#: for the AES core to read ahead, so the pair checks readahead blocks.
READAHEAD_SEEDS = (7, 14, 34)


@pytest.mark.parametrize("seed", CORES_SEEDS)
def test_cores_case_matches_batched(seed, monkeypatch):
    fills = []
    ctr_stream = aes_core.bulk.ctr_stream

    def counted(*args):
        fills.append(args)
        return ctr_stream(*args)

    monkeypatch.setattr(aes_core, "bulk", SimpleNamespace(ctr_stream=counted))
    assert check_cores_case(generate_cores_case(seed)) == []
    if seed in READAHEAD_SEEDS and aes_vector.HAVE_NUMPY:
        assert fills


def test_cores_cases_stay_in_the_cores_envelope():
    sizes = set()
    for seed in range(40):
        spec = generate_cores_case(seed).shape
        assert spec.dataplane == "cores"
        for config in spec.configs:
            assert config.packets <= 8 and config.payload_bytes <= 512
            sizes.add(config.payload_bytes)
    assert 0 in sizes and any(size % 16 for size in sizes)


def test_cores_cases_draw_the_core_count():
    """One, two and four cores; two-core CCM only on two or more."""
    cases = [generate_cores_case(seed) for seed in range(40)]
    assert {case.core_count for case in cases} == {1, 2, 4}
    for case in cases:
        if case.core_count < 2:
            assert not any(config.two_core_ccm for config in case.shape.configs)
    assert any(
        config.two_core_ccm for case in cases if case.core_count >= 2
        for config in case.shape.configs
    )


def test_generator_never_builds_a_rejected_spec():
    """The constructors reject a size-only policy over a queue too small
    for one batch; the generator avoids that shape, so generating never
    raises and every size-only policy it draws fits its queue."""
    for seed in range(400):
        shape = generate_case(seed).shape
        policy, capacity = shape.flush_policy, shape.queue_capacity
        if policy.flush_deadline is None and capacity:
            assert capacity >= policy.coalesce_limit, seed


def test_generator_draws_every_flush_shape():
    """Size-only, zero-deadline and timed policies, over every width."""
    policies = [generate_case(seed).shape.flush_policy for seed in range(400)]
    deadlines = {policy.flush_deadline for policy in policies}
    assert None in deadlines and 0 in deadlines and max(deadlines - {None}) > 0
    assert {policy.coalesce_limit for policy in policies} == set(range(1, 9))


def test_cli_runs_cores_cases(capsys):
    assert main(["--cases", "0", "--cores-cases", "2", "--seed", "5"]) == 0
    assert "2 cores cases from seed 5: 0 failed" in capsys.readouterr().out


#: One wrong completion per kind, against a GCM-128 channel, and the
#: error the reference oracle must report for it.
KEY, NONCE = bytes(range(16)), bytes(12)
SEALED = gcm_encrypt(KEY, NONCE, b"payload", b"hdr")
WRONG_COMPLETIONS = {
    "sealed": (Direction.ENCRYPT, b"payload", bytes(16), True, SEALED[0], "from the reference"),
    "forged": (Direction.DECRYPT, SEALED[0], bytes(16), True, b"payload", "forged rx packet"),
    "clean": (Direction.DECRYPT, SEALED[0], SEALED[1], False, b"", "did not open"),
}


@pytest.mark.parametrize("kind", WRONG_COMPLETIONS)
def test_reference_oracle_flags_a_wrong_completion(kind):
    direction, data, tag, ok, payload, message = WRONG_COMPLETIONS[kind]
    job = SimpleNamespace(
        channel_id=0, sequence=0, direction=direction, nonce=NONCE, data=data, aad=b"hdr", tag=tag
    )
    # A sealed packet carries the device's tag, here the all-zero one.
    transfer = SimpleNamespace(job=job, ok=ok, payload=payload, tag=tag)
    channel = SimpleNamespace(algorithm=Algorithm.GCM, tag_length=16)
    errors = []
    fuzz._check_one(errors, transfer, KEY, channel, reference=True)
    assert len(errors) == 1 and message in errors[0]
