"""Parallel scenario-sweep subsystem.

Turns the repo's one-off benchmarks into declarative, reproducible
experiment campaigns:

- :mod:`repro.experiments.scenario` — the :class:`Scenario` dataclass,
  the ``@register`` decorator and the global registry;
- :mod:`repro.experiments.scenarios` — the built-in library (paper
  tables, scheduling, scaling, ablation, mixed radio traffic, mode
  mixes, key churn, reconfiguration storms, chaos and overload);
- :mod:`repro.experiments.runner` — the multiprocessing sweep runner
  with per-case derived seeds (serial == parallel, guaranteed);
- :mod:`repro.experiments.artifacts` — JSON/CSV artifacts.

Scenarios that check outputs or invariants raise inside the sweep;
host speed is measured by ``perfbench/`` alone.

CLI::

    python -m repro.experiments list
    python -m repro.experiments run all --quick --parallel 4
"""

from repro.experiments.artifacts import write_artifact
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
    "case_seed",
    "get",
    "names",
    "register",
    "resolve",
    "run_sweep",
    "write_artifact",
]
