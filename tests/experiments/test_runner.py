"""Sweep runner and artifact/compare semantics.

The load-bearing guarantees:

- serial and parallel runs of the same seeded sweep produce identical
  deterministic metrics (the acceptance criterion of ISSUE 2);
- the JSON/CSV artifacts round-trip;
- compare fails on deterministic/correctness regressions and warns on
  timing drift (fails on it under ``strict_perf``).
"""

import copy
import csv

import pytest

from repro.errors import ExperimentError
from repro.experiments import compare, load_artifact, run_sweep, write_artifact
from repro.experiments.runner import build_units, execute_unit
from repro.experiments.scenario import REGISTRY, register, resolve

#: Cheap deterministic scenarios used throughout (quick grids).
SPEC = ["core_scaling", "mode_mix"]


@pytest.fixture(scope="module")
def serial_artifact():
    return run_sweep(SPEC, quick=True, parallel=1, base_seed=7)


def _deterministic_view(artifact):
    """Scenario cases with timing metrics stripped."""
    view = {}
    for name, block in artifact["scenarios"].items():
        timing = tuple(block["timing_metrics"])
        view[name] = [
            {
                "params": case["params"],
                "seed": case["seed"],
                "metrics": {
                    k: v
                    for k, v in case["metrics"].items()
                    if not any(k == t or k.endswith(t) for t in timing)
                },
            }
            for case in block["cases"]
        ]
    return view


def test_serial_run_is_reproducible(serial_artifact):
    again = run_sweep(SPEC, quick=True, parallel=1, base_seed=7)
    assert _deterministic_view(again) == _deterministic_view(serial_artifact)


def test_parallel_equals_serial(serial_artifact):
    parallel = run_sweep(SPEC, quick=True, parallel=3, base_seed=7)
    assert _deterministic_view(parallel) == _deterministic_view(serial_artifact)


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
    # chaos_sweep declares retries, degradations, watchdog fires and
    # faults fired inside pool workers scheduling-dependent; the
    # quarantines follow the fault plan alone.
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
    assert load_artifact(json_path) == serial_artifact
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    expected = sum(
        len(case["metrics"])
        for block in serial_artifact["scenarios"].values()
        for case in block["cases"]
    )
    assert len(rows) == expected
    assert {row["scenario"] for row in rows} == set(SPEC)


def test_compare_run_against_itself_passes(serial_artifact):
    report = compare(serial_artifact, copy.deepcopy(serial_artifact))
    assert report.ok and report.exit_code() == 0
    assert report.checked > 0
    assert not report.warnings


def test_compare_fails_on_deterministic_drift(serial_artifact):
    baseline = copy.deepcopy(serial_artifact)
    case = baseline["scenarios"]["core_scaling"]["cases"][0]
    case["metrics"]["packets_done"] += 1
    report = compare(serial_artifact, baseline)
    assert not report.ok and report.exit_code() == 1
    assert any("packets_done" in failure for failure in report.failures)


def test_compare_fails_on_digest_mismatch(serial_artifact):
    baseline = copy.deepcopy(serial_artifact)
    case = baseline["scenarios"]["mode_mix"]["cases"][0]
    case["metrics"]["output_digest"] = "0" * 32
    report = compare(serial_artifact, baseline)
    assert any("output_digest" in failure for failure in report.failures)


def test_compare_missing_scenario_fails(serial_artifact):
    run = copy.deepcopy(serial_artifact)
    del run["scenarios"]["mode_mix"]
    report = compare(run, serial_artifact)
    assert any("mode_mix" in failure for failure in report.failures)


def test_compare_missing_case_only_warns(serial_artifact):
    run = copy.deepcopy(serial_artifact)
    del run["scenarios"]["core_scaling"]["cases"][0]
    report = compare(run, serial_artifact)
    assert report.ok
    assert any("not in run" in warning for warning in report.warnings)


def test_timing_drift_warns_not_fails():
    @register(
        name="_test_timing_probe",
        grid={"width": [1, 2]},
        timing_metrics=("ops_per_s",),
    )
    def probe(params, seed, quick):
        return {"ops_per_s": 100.0 * params["width"], "correct": True}

    try:
        run = run_sweep(["_test_timing_probe"], quick=True, parallel=1, base_seed=0)
    finally:
        del REGISTRY["_test_timing_probe"]
    baseline = copy.deepcopy(run)
    for case in baseline["scenarios"]["_test_timing_probe"]["cases"]:
        case["metrics"]["ops_per_s"] *= 10
    report = compare(run, baseline)
    assert report.ok, report.failures
    assert report.warnings
    strict = compare(run, baseline, strict_perf=True)
    assert not strict.ok

    # Timing drift never excuses a correctness regression.
    broken = copy.deepcopy(run)
    broken["scenarios"]["_test_timing_probe"]["cases"][0]["metrics"]["correct"] = False
    report = compare(broken, run)
    assert any("correct" in failure for failure in report.failures)


def test_compare_rejects_unknown_schemas(serial_artifact):
    with pytest.raises(ExperimentError, match="baseline artifact is not a sweep"):
        compare(serial_artifact, {"something": 1})
    with pytest.raises(ExperimentError, match="missing 'scenarios'"):
        compare({"benchmarks": {}}, serial_artifact)


def test_cli_run_and_compare(tmp_path, capsys):
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
    run_path = out / "CLI.json"
    assert run_path.exists() and (out / "CLI.csv").exists()
    assert main(["compare", str(run_path), str(run_path)]) == 0
    capsys.readouterr()
    assert main(["list"]) == 0
    assert "table3_comparison" in capsys.readouterr().out
    assert main(["run", "no_such_scenario", "--out", str(out)]) == 2
