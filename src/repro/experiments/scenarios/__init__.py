"""Built-in scenario library.

Importing this package populates the registry (each module registers
its scenarios at import time).  Worker processes import it lazily via
``repro.experiments.scenario._ensure_builtin_scenarios``, so the
registry is identical under fork and spawn start methods.
"""

from repro.experiments.scenarios import (  # noqa: F401  (registration imports)
    chaos,
    overload,
    platform,
    stress,
    tables,
)
