"""Declarative scenario registry for experiment sweeps.

A :class:`Scenario` names one family of experiments: a callable that
turns ``(params, seed, quick)`` into a flat metrics dict, plus a
parameter *grid* whose cartesian product defines the family's cases.
Scenarios register themselves with the :func:`register` decorator, so
the sweep runner, the CLI and the tests all resolve them by name:

    @register(
        name="core_scaling",
        title="Core-count scalability",
        grid={"cores": [1, 2, 4, 8]},
    )
    def core_scaling(params, seed, quick):
        ...
        return {"aggregate_mbps": mbps, "packets_done": done}

Determinism contract
--------------------
A scenario function must be a pure function of ``(params, seed,
quick)``: same inputs, same metrics — regardless of which process runs
it.  This is what lets the runner fan cases out across worker processes
and still guarantee serial/parallel result equality.  The one
exception is a count that depends on the host's process scheduling
(``chaos_sweep``'s recovery counters); a scenario that reports one
says so in its docstring.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentError

#: A scenario's result: metric name -> JSON-safe scalar.
Metrics = Dict[str, object]

#: ``(params, seed, quick) -> metrics``.
ScenarioFn = Callable[[Dict[str, object], int, bool], Metrics]


@dataclass(frozen=True)
class Scenario:
    """One registered experiment family."""

    name: str
    fn: ScenarioFn
    title: str = ""
    description: str = ""
    #: Parameter name -> candidate values; cases are the cartesian
    #: product in declaration order.  Empty grid = one parameterless case.
    grid: Mapping[str, Sequence[object]] = field(default_factory=dict)
    #: Substitute grid for ``--quick`` runs (None = use ``grid``).
    quick_grid: Optional[Mapping[str, Sequence[object]]] = None
    tags: Tuple[str, ...] = ()

    def active_grid(self, quick: bool) -> Mapping[str, Sequence[object]]:
        """The grid in effect for this run mode."""
        if quick and self.quick_grid is not None:
            return self.quick_grid
        return self.grid

    def cases(self, quick: bool = False) -> Iterator[Dict[str, object]]:
        """Yield every parameter combination, in deterministic order."""
        grid = self.active_grid(quick)
        if not grid:
            yield {}
            return
        names = list(grid)
        for combo in itertools.product(*(grid[n] for n in names)):
            yield dict(zip(names, combo))

    def case_count(self, quick: bool = False) -> int:
        """Number of cases the grid expands to."""
        count = 1
        for values in self.active_grid(quick).values():
            count *= len(values)
        return count


#: The global scenario registry: name -> Scenario.
REGISTRY: Dict[str, Scenario] = {}


def register(
    name: str,
    title: str = "",
    description: str = "",
    grid: Optional[Mapping[str, Sequence[object]]] = None,
    quick_grid: Optional[Mapping[str, Sequence[object]]] = None,
    tags: Sequence[str] = (),
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Class-method-style decorator registering a scenario function."""

    def decorator(fn: ScenarioFn) -> ScenarioFn:
        if name in REGISTRY:
            raise ExperimentError(f"scenario {name!r} registered twice")
        doc_first_line = ((fn.__doc__ or "").strip().splitlines() or [""])[0]
        REGISTRY[name] = Scenario(
            name=name,
            fn=fn,
            title=title or name,
            description=description or doc_first_line,
            grid=dict(grid or {}),
            quick_grid=None if quick_grid is None else dict(quick_grid),
            tags=tuple(tags),
        )
        return fn

    return decorator


def get(name: str) -> Scenario:
    """Look up one scenario; raises :class:`ExperimentError` if unknown."""
    _ensure_builtin_scenarios()
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY)) or "<none>"
        raise ExperimentError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def names() -> List[str]:
    """All registered scenario names, sorted."""
    _ensure_builtin_scenarios()
    return sorted(REGISTRY)


def resolve(spec) -> List[Scenario]:
    """Resolve a CLI-style spec into scenarios.

    *spec* may be ``"all"``, one name, a comma-separated string, or a
    sequence of any of those.  Order follows the spec (``all`` =
    sorted); duplicates collapse to the first occurrence.
    """
    _ensure_builtin_scenarios()
    if isinstance(spec, str):
        spec = [spec]
    out: List[Scenario] = []
    seen = set()
    for item in spec:
        parts = (
            sorted(REGISTRY)
            if item == "all"
            else [p for p in item.split(",") if p]
        )
        for part in parts:
            if part not in seen:
                seen.add(part)
                out.append(get(part))
    if not out:
        raise ExperimentError("empty scenario spec")
    return out


def case_seed(base_seed: int, scenario_name: str, case_index: int) -> int:
    """Deterministic per-run seed, stable across processes and sessions.

    Derived with SHA-256 (not ``hash()``, which is salted per process)
    so a sweep's seeds are reproducible from ``(base_seed, scenario,
    case index)`` alone.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{scenario_name}:{case_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _ensure_builtin_scenarios() -> None:
    """Import the built-in scenario library (idempotent).

    Deferred so that ``repro.experiments.scenario`` itself stays
    import-cycle-free and spawned worker processes re-populate the
    registry on first use.
    """
    from repro.experiments import scenarios  # noqa: F401  (side-effect import)
