"""``python -m repro.experiments`` prints Tables II-IV against the paper."""

from repro.analysis.throughput import PAPER_TABLE2
from repro.experiments.__main__ import main
from repro.experiments.scenarios._util import KEYS
from repro.experiments.scenarios.tables import PAPER_TABLE4_MS, TABLE2_CONFIGS


def test_printer_puts_each_cell_next_to_the_papers(capsys):
    main()
    out = capsys.readouterr().out
    for title in ("Table II:", "Table III:", "Table IV:"):
        assert title in out
    rows = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 2:
            rows[tuple(cells[:2])] = cells[2:]
    for config in TABLE2_CONFIGS:
        for key_bits in KEYS:
            theoretical, packet = PAPER_TABLE2[(config, key_bits)]
            assert rows[(config, str(key_bits))][-2:] == [str(packet), str(theoretical)]
    for (module, store), paper_ms in PAPER_TABLE4_MS.items():
        assert str(paper_ms) in rows[(module, store)]
    assert "gcm_mbps_per_mhz" in out
