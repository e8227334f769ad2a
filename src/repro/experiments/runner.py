"""The sweep runner: fan scenario cases out across worker processes.

The unit of work is one *case* — ``(scenario, case_index, params,
seed)`` — so a sweep over many scenarios parallelises across the whole
campaign, not per scenario.  Cases are generated in deterministic order,
seeds are derived per case with :func:`repro.experiments.scenario.
case_seed`, and results are reassembled by ``(scenario, case_index)``,
which is why a parallel run is byte-identical to a serial run of the
same seeded sweep (the property ``tests/experiments/test_runner.py``
locks in).

Worker isolation: every scenario builds its own :class:`Simulator`, so
simulation state never leaks between cases; the process-global crypto
memo caches (AES key-schedule LRU, GHASH Shoup tables) are cleared via
:func:`repro.crypto.fast.clear_caches` before each *timing*-tagged case
so ops/s numbers never depend on which cases shared the worker.
"""

from __future__ import annotations

import datetime
import multiprocessing
import os
import platform
from typing import Dict, List, Sequence, Tuple

from repro.crypto.fast import clear_caches, fast_enabled
from repro.crypto.fast.aes_vector import HAVE_NUMPY
from repro.crypto.fast.exec import default_backend
from repro.errors import ExperimentError
from repro.experiments.scenario import Metrics, Scenario, case_seed, get, resolve
from repro.resilience import stats as resilience_stats

#: One unit of work: (scenario name, case index, params, seed, quick).
RunUnit = Tuple[str, int, Dict[str, object], int, bool]

#: One finished case: (scenario name, case index, metrics, the case's
#: resilience counters as :meth:`RunCounters.as_dict` gives them).
Outcome = Tuple[str, int, Metrics, Dict[str, object]]

#: JSON-safe scalar types a scenario may return as metric values.
_SCALARS = (bool, int, float, str)


def build_units(
    scenarios: Sequence[Scenario], quick: bool, base_seed: int
) -> List[RunUnit]:
    """Expand scenarios into the sweep's ordered work list."""
    units: List[RunUnit] = []
    for scenario in scenarios:
        for index, params in enumerate(scenario.cases(quick)):
            units.append(
                (
                    scenario.name,
                    index,
                    params,
                    case_seed(base_seed, scenario.name, index),
                    quick,
                )
            )
    return units


def execute_unit(unit: RunUnit) -> Outcome:
    """Run one case (in this process); validates the metrics contract.

    The case runs in its own counter scope, whose counters come back
    with its metrics.  Top-level (not a closure) so it pickles by
    reference into multiprocessing workers under both fork and spawn
    start methods.
    """
    name, index, params, seed, quick = unit
    scenario = get(name)
    if "timing" in scenario.tags:
        clear_caches()
    with resilience_stats.counting() as counters:
        metrics = scenario.fn(dict(params), seed, quick)
    if not isinstance(metrics, dict) or not metrics:
        raise ExperimentError(
            f"scenario {name!r} returned {type(metrics).__name__}, "
            "expected a non-empty metrics dict"
        )
    for key, value in metrics.items():
        if not isinstance(value, _SCALARS):
            raise ExperimentError(
                f"scenario {name!r} metric {key!r} is "
                f"{type(value).__name__}; metrics must be JSON-safe scalars"
            )
    return name, index, metrics, counters.as_dict()


def _sum_counters(outcomes: Sequence[Outcome]) -> Dict[str, object]:
    """Every case's resilience counters added up in case order."""
    total = resilience_stats.RunCounters()
    for _name, _index, _metrics, counters in outcomes:
        for key in resilience_stats.COUNTERS:
            total[key] += counters[key]
        total.degradation_reasons.extend(counters["degradation_reasons"])
    return total.as_dict()


def run_sweep(
    spec,
    quick: bool = False,
    parallel: int = 1,
    base_seed: int = 0,
) -> Dict[str, object]:
    """Run the sweep *spec* and return the artifact dict.

    ``parallel <= 1`` runs in-process; otherwise a worker pool of that
    size executes the case list.  Either way the result is assembled in
    case order, so the artifact is independent of scheduling.
    """
    scenarios = resolve(spec)
    units = build_units(scenarios, quick, base_seed)
    if parallel > 1 and len(units) > 1:
        with multiprocessing.get_context().Pool(min(parallel, len(units))) as pool:
            outcomes = pool.map(execute_unit, units)
    else:
        outcomes = [execute_unit(unit) for unit in units]

    by_case = {(name, index): metrics for name, index, metrics, _ in outcomes}
    scenario_block: Dict[str, object] = {}
    for scenario in scenarios:
        cases = []
        for unit_name, case_index, params, seed, _ in units:
            if unit_name != scenario.name:
                continue
            cases.append(
                {
                    "params": params,
                    "seed": seed,
                    "metrics": by_case[(scenario.name, case_index)],
                }
            )
        scenario_block[scenario.name] = {
            "title": scenario.title,
            "tags": list(scenario.tags),
            "timing_metrics": list(scenario.timing_metrics),
            "cases": cases,
        }

    return {
        "schema": "repro.experiments/1",
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fast_enabled": fast_enabled(),
        "have_numpy": HAVE_NUMPY,
        # Execution-backend context (cross-machine honesty for the
        # backend-parametrized scenario cells).
        "backend": default_backend().name,
        "cpu_count": os.cpu_count(),
        # Recovery counters summed over the sweep's cases, wherever
        # they ran — chaos legs and any incidental degradations leave
        # their fingerprint in the artifact next to the backend
        # metadata.
        "resilience": _sum_counters(outcomes),
        "quick": quick,
        "base_seed": base_seed,
        "parallel": parallel,
        "scenarios": scenario_block,
    }
