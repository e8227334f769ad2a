"""Registry resolution, grid expansion and seed derivation."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import case_seed, get, names, resolve
from repro.experiments.scenario import REGISTRY, register

EXPECTED_BUILTINS = {
    "table2_throughput",
    "table3_comparison",
    "table4_reconfig",
    "scheduling_policies",
    "core_scaling",
    "ablation_mapping",
    "mixed_channel_radio",
    "mode_mix",
    "key_churn",
    "reconfig_under_load",
}


def test_builtin_scenarios_registered():
    assert EXPECTED_BUILTINS <= set(names())


def test_get_unknown_scenario_raises():
    with pytest.raises(ExperimentError, match="unknown scenario"):
        get("definitely_not_registered")


def test_resolve_all_and_comma_lists():
    everything = resolve("all")
    assert [s.name for s in everything] == sorted(names())
    pair = resolve("core_scaling,mode_mix")
    assert [s.name for s in pair] == ["core_scaling", "mode_mix"]
    # Duplicates collapse to first occurrence; order follows the spec.
    tripled = resolve(["mode_mix", "core_scaling,mode_mix"])
    assert [s.name for s in tripled] == ["mode_mix", "core_scaling"]
    with pytest.raises(ExperimentError, match="empty scenario spec"):
        resolve([])


def test_grid_expansion_order_and_quick_grid():
    scenario = get("table2_throughput")
    cases = list(scenario.cases(quick=False))
    assert len(cases) == scenario.case_count(quick=False) == 9
    # Cartesian product in declaration order: config varies slowest.
    assert cases[0] == {"config": "gcm_1", "key_bits": 128}
    assert cases[1] == {"config": "gcm_1", "key_bits": 192}
    quick_cases = list(scenario.cases(quick=True))
    assert quick_cases == [
        {"config": "gcm_1", "key_bits": 128},
        {"config": "ccm_1", "key_bits": 128},
    ]


def test_empty_grid_is_one_parameterless_case():
    scenario = get("table3_comparison")
    assert list(scenario.cases()) == [{}]
    assert scenario.case_count() == 1


def test_case_seed_is_deterministic_and_spread():
    a = case_seed(0, "core_scaling", 0)
    assert a == case_seed(0, "core_scaling", 0)
    distinct = {
        case_seed(base, name, index)
        for base in (0, 1)
        for name in ("core_scaling", "mode_mix")
        for index in (0, 1, 2)
    }
    assert len(distinct) == 12
    assert all(seed >= 0 for seed in distinct)


def test_double_registration_rejected():
    @register(name="_test_dup_probe", grid={})
    def probe(params, seed, quick):
        return {"ok": True}

    try:
        with pytest.raises(ExperimentError, match="registered twice"):
            register(name="_test_dup_probe")(probe)
    finally:
        del REGISTRY["_test_dup_probe"]


def test_register_takes_no_timing_metrics_keyword():
    # Every metric is a plain figure; no scenario declares a class of
    # metrics that a gate would treat differently.
    with pytest.raises(TypeError):
        register(name="_test_timing_probe", timing_metrics=("total_cycles",))
    assert "_test_timing_probe" not in REGISTRY



@pytest.fixture
def grid_probe():
    @register(name="_test_grid_probe", grid={"n": [1, 2, 3]})
    def probe(params, seed, quick):
        """First docstring line.

        More detail.
        """
        return {"n": params["n"]}

    try:
        yield REGISTRY["_test_grid_probe"]
    finally:
        del REGISTRY["_test_grid_probe"]


def test_quick_run_without_quick_grid_uses_full_grid(grid_probe):
    assert grid_probe.quick_grid is None
    assert list(grid_probe.cases(quick=True)) == [{"n": 1}, {"n": 2}, {"n": 3}]
    assert grid_probe.case_count(quick=True) == 3


def test_title_and_description_default_to_name_and_docstring(grid_probe):
    assert grid_probe.title == "_test_grid_probe"
    assert grid_probe.description == "First docstring line."
