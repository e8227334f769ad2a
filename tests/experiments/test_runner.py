"""Sweep runner and artifact semantics.

The load-bearing guarantees:

- serial and parallel runs of the same seeded sweep produce identical
  cases;
- the JSON/CSV artifacts round-trip;
- the sweep's resilience block sums its own cases' counters.
"""

import csv
import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_sweep, write_artifact
from repro.experiments.runner import build_units, execute_unit
from repro.experiments.scenario import REGISTRY, register, resolve

#: Cheap deterministic scenarios used throughout (quick grids).
SPEC = ["core_scaling", "mode_mix"]


@pytest.fixture(scope="module")
def serial_artifact():
    return run_sweep(SPEC, quick=True, parallel=1, base_seed=7)


def test_serial_run_is_reproducible(serial_artifact):
    again = run_sweep(SPEC, quick=True, parallel=1, base_seed=7)
    assert again["scenarios"] == serial_artifact["scenarios"]


def test_parallel_equals_serial(serial_artifact):
    parallel = run_sweep(SPEC, quick=True, parallel=3, base_seed=7)
    assert parallel["scenarios"] == serial_artifact["scenarios"]


def test_different_base_seed_changes_seeds(serial_artifact):
    other = run_sweep(["mode_mix"], quick=True, parallel=1, base_seed=8)
    ours = serial_artifact["scenarios"]["mode_mix"]["cases"]
    theirs = other["scenarios"]["mode_mix"]["cases"]
    assert [c["seed"] for c in ours] != [c["seed"] for c in theirs]


def test_execute_unit_rejects_bad_metrics():
    units = build_units(resolve("core_scaling"), quick=True, base_seed=0)
    name, index, metrics, counters = execute_unit(units[0])
    assert name == "core_scaling" and index == 0 and metrics["packets_done"] > 0
    assert counters["retries"] == 0 and counters["degradation_reasons"] == []
    with pytest.raises(ExperimentError, match="unknown scenario"):
        execute_unit(("nope", 0, {}, 0, True))


@pytest.fixture
def probe_scenario():
    """Register ``_test_runner_probe`` returning whatever the test sets."""
    result = {}

    @register(name="_test_runner_probe")
    def probe(params, seed, quick):
        if "raise" in result:
            raise result["raise"]
        return result["metrics"]

    try:
        yield result
    finally:
        del REGISTRY["_test_runner_probe"]


@pytest.mark.parametrize(
    "metrics,match",
    [
        ({}, "non-empty metrics dict"),
        ([("packets", 1)], "expected a non-empty metrics dict"),
        ({"packets": [1, 2]}, "JSON-safe scalars"),
        ({"nested": {"a": 1}}, "JSON-safe scalars"),
    ],
    ids=["empty", "not_a_dict", "list_value", "dict_value"],
)
def test_execute_unit_rejects_malformed_metrics(probe_scenario, metrics, match):
    probe_scenario["metrics"] = metrics
    with pytest.raises(ExperimentError, match=match):
        execute_unit(("_test_runner_probe", 0, {}, 0, True))


def test_case_blocks_hold_params_seed_and_metrics_only(serial_artifact):
    for name, block in serial_artifact["scenarios"].items():
        assert set(block) == {"title", "tags", "cases"}, name
        for case in block["cases"]:
            assert set(case) == {"params", "seed", "metrics"}


#: The resilience counters chaos_sweep reports per case.
_CHAOS_COUNTERS = (
    "retries",
    "watchdog_fires",
    "degradations",
    "quarantined",
    "dead_lettered",
    "faults_injected",
)


def _chaos_block_and_case_sum(artifact):
    cases = artifact["scenarios"]["chaos_sweep"]["cases"]
    block = artifact["resilience"]
    assert len(block["degradation_reasons"]) == block["degradations"]
    return (
        {key: block[key] for key in _CHAOS_COUNTERS},
        {key: sum(case["metrics"][key] for case in cases) for key in _CHAOS_COUNTERS},
    )


def test_sweep_resilience_block_belongs_to_its_sweep():
    """Back-to-back sweeps in one process each report their own cases'
    counters, not a running total of the process."""
    first = run_sweep(["chaos_sweep"], quick=True, parallel=1, base_seed=7)
    second = run_sweep(["chaos_sweep"], quick=True, parallel=1, base_seed=7)
    for artifact in (first, second):
        block, case_sum = _chaos_block_and_case_sum(artifact)
        assert block == case_sum
    # chaos_sweep's retries, degradations, watchdog fires and faults
    # fired inside pool workers depend on scheduling; the quarantines
    # follow the fault plan alone.
    for key in ("quarantined", "dead_lettered"):
        assert first["resilience"][key] == second["resilience"][key] > 0


def test_parallel_sweep_resilience_block_sums_its_cases():
    """Counters that moved inside the sweep's pool workers still reach
    the artifact."""
    artifact = run_sweep(["chaos_sweep"], quick=True, parallel=2, base_seed=7)
    block, case_sum = _chaos_block_and_case_sum(artifact)
    assert block == case_sum
    assert block["faults_injected"] > 0 and block["quarantined"] > 0


def test_artifact_roundtrip_json_and_csv(tmp_path, serial_artifact):
    json_path, csv_path = write_artifact(serial_artifact, tmp_path, stem="T")
    assert json_path.name == "T.json" and csv_path.name == "T.csv"
    assert json.loads(json_path.read_text()) == serial_artifact
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    expected = sum(
        len(case["metrics"])
        for block in serial_artifact["scenarios"].values()
        for case in block["cases"]
    )
    assert len(rows) == expected
    assert {row["scenario"] for row in rows} == set(SPEC)


def test_cli_run_and_list(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out = tmp_path / "sweeps"
    assert (
        main(
            [
                "run",
                "table3_comparison",
                "--quick",
                "--out",
                str(out),
                "--stem",
                "CLI",
            ]
        )
        == 0
    )
    assert (out / "CLI.json").exists() and (out / "CLI.csv").exists()
    capsys.readouterr()
    assert main(["list"]) == 0
    assert "table3_comparison" in capsys.readouterr().out
    assert main(["run", "no_such_scenario", "--out", str(out)]) == 2


def test_cli_run_exits_2_when_a_scenario_raises(tmp_path, capsys, probe_scenario):
    from repro.experiments.__main__ import main

    probe_scenario["raise"] = ExperimentError("probe invariant broken")
    out = tmp_path / "sweeps"
    assert main(["run", "_test_runner_probe", "--out", str(out)]) == 2
    assert "probe invariant broken" in capsys.readouterr().err
    assert not out.exists()


def test_cli_has_no_compare_subcommand(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "a.json", "b.json"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
