"""Print the paper's Tables II-IV next to the reproduced figures::

    PYTHONPATH=src python -m repro.experiments

Table II is measured on simulated 2 KB packets; Tables III and IV
come from the timing, area and bandwidth models.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.experiments.scenarios._util import KEYS
from repro.experiments.scenarios.tables import (
    PAPER_TABLE4_MS,
    TABLE2_CONFIGS,
    table2_throughput,
    table3_comparison,
    table4_reconfig,
)


def _table(title: str, params, cells) -> str:
    """One table: each cell's parameter values, then its figures."""
    metrics = list(cells[0][1])
    rows = [list(values) + [figures[m] for m in metrics] for values, figures in cells]
    return render_table(list(params) + metrics, rows, title=title)


def main() -> None:
    table2 = [
        ((config, key_bits), table2_throughput(config, key_bits))
        for config in TABLE2_CONFIGS
        for key_bits in KEYS
    ]
    table3 = [((), table3_comparison())]
    table4 = [
        ((module, store), table4_reconfig(module, store)) for module, store in PAPER_TABLE4_MS
    ]
    print(
        _table("Table II: MCCP encryption throughputs at 190 MHz", ("config", "key_bits"), table2)
    )
    print()
    print(_table("Table III: comparison with the literature", (), table3))
    print()
    print(_table("Table IV: partial reconfiguration load times", ("module", "store"), table4))


if __name__ == "__main__":
    main()
