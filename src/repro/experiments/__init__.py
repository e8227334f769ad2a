"""Parallel scenario-sweep subsystem (ISSUE 2's tentpole).

Turns the repo's one-off benchmarks into declarative, reproducible
experiment campaigns:

- :mod:`repro.experiments.scenario` — the :class:`Scenario` dataclass,
  the ``@register`` decorator and the global registry;
- :mod:`repro.experiments.scenarios` — the built-in library (paper
  tables, scheduling, scaling, ablation, mixed radio traffic, mode
  mixes, key churn, reconfiguration storms, chaos, overload and the
  adaptive flush controller);
- :mod:`repro.experiments.runner` — the multiprocessing sweep runner
  with per-case derived seeds (serial == parallel, guaranteed);
- :mod:`repro.experiments.artifacts` — JSON/CSV artifacts and the
  sweep-vs-sweep ``compare`` gate.

Host speed is measured by ``perfbench/`` alone; a sweep's timing
metrics are context for its deterministic ones, never a speed claim.

CLI::

    python -m repro.experiments list
    python -m repro.experiments run all --quick --parallel 4
    python -m repro.experiments compare RUN.json BASELINE.json
"""

from repro.experiments.artifacts import (
    ComparisonReport,
    compare,
    load_artifact,
    write_artifact,
)
from repro.experiments.runner import run_sweep
from repro.experiments.scenario import (
    REGISTRY,
    Scenario,
    case_seed,
    get,
    names,
    register,
    resolve,
)

__all__ = [
    "REGISTRY",
    "Scenario",
    "ComparisonReport",
    "case_seed",
    "compare",
    "get",
    "load_artifact",
    "names",
    "register",
    "resolve",
    "run_sweep",
    "write_artifact",
]
