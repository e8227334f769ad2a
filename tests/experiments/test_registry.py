"""Registry resolution, grid expansion and seed derivation."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import Scenario, case_seed, get, names, resolve
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
    "batch_aead",
    "radio_batch",
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


def test_timing_metric_suffix_matching():
    scenario = Scenario(
        name="x", fn=lambda p, s, q: {}, timing_metrics=("ops_per_s",)
    )
    assert scenario.is_timing_metric("ops_per_s")
    assert scenario.is_timing_metric("encrypt_ops_per_s")
    assert not scenario.is_timing_metric("cycles")
