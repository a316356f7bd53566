"""Same bits, for every estimate and report of the golden table.

The table (tests/golden_table.json, written by tests/golden.py) holds the
float.hex bound, the method and the witness digest of each pinned estimate,
the float.hex of each pinned ratio, and the JSON reports of the tau, tau-p
and check commands.  A change meant to keep every result recomputes all of
them here and finds them unchanged.
"""

import json

import numpy as np
import pytest

import golden

TABLE = json.loads(golden.TABLE.read_text(encoding="utf-8"))


def test_estimates_and_reports_keep_their_bits():
    # the OpenBLAS ddot kernel is picked by CPU type, and numpy's own
    # reductions may change between versions: elsewhere the table's last
    # bits need not hold
    if np.__version__ != TABLE["numpy"]:
        pytest.skip(f"the table holds for numpy {TABLE['numpy']}; this is {np.__version__}")
    if golden.cpu_model() != TABLE["cpu"]:
        pytest.skip(f"the table holds for the CPU {TABLE['cpu']!r}; this is {golden.cpu_model()!r}")
    got = golden.golden_entries()
    assert len(got["estimates"]) == 2 * 40 + 7 + 3 + 4
    assert len(got["ratios"]) == 8
    for part in ("estimates", "ratios", "cli"):
        moved = [name for name, pin in TABLE[part].items() if got[part].get(name) != pin]
        assert not moved, moved
        assert got[part] == TABLE[part]
