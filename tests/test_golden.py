"""Same bits, for every estimate and report of the golden table.

The table (tests/golden_table.json, written by tests/golden.py) holds the
float.hex bound, the method and the witness digest of each pinned estimate,
the float.hex of each pinned ratio, and the JSON reports of the tau, tau-p
and check commands.  A change meant to keep every result recomputes all of
them here and finds them unchanged.  Three tau_p paths the table does not
reach are pinned here beside it.
"""

import json
from functools import partial

import numpy as np
import pytest

import golden
from haarlab.normlab import _diagonal_example, tau_p_estimate

TABLE = json.loads(golden.TABLE.read_text(encoding="utf-8"))


def _skip_off_the_table_host():
    # the OpenBLAS ddot kernel is picked by CPU type, and numpy's own
    # reductions may change between versions: elsewhere the table's last
    # bits need not hold
    if np.__version__ != TABLE["numpy"]:
        pytest.skip(f"the table holds for numpy {TABLE['numpy']}; this is {np.__version__}")
    if golden.cpu_model() != TABLE["cpu"]:
        pytest.skip(f"the table holds for the CPU {TABLE['cpu']!r}; this is {golden.cpu_model()!r}")


def test_estimates_and_reports_keep_their_bits():
    _skip_off_the_table_host()
    got = golden.golden_entries()
    assert len(got["estimates"]) == 2 * 40 + 7 + 3 + 4
    assert len(got["ratios"]) == 8
    for part in ("estimates", "ratios", "cli"):
        moved = [name for name, pin in TABLE[part].items() if got[part].get(name) != pin]
        assert not moved, moved
        assert got[part] == TABLE[part]


@pytest.mark.parametrize(
    "call, bound, method",
    [
        # 2^11 - 1 indices, past the ascent cutoff: the cheap candidates only
        (
            partial(tau_p_estimate, golden.dense(3, 8, "linf", "l1"), 11, 1.5),
            "0x1.7169ce2057a77p+3",
            "coordinate-aligned",
        ),
        # l2 -> l2 away from p = 2, where the eigensolve does not give the bound
        (
            partial(tau_p_estimate, golden.dense(23, 4, "l2", "l2"), 3, 1.5, seed=3),
            "0x1.976e75ac40841p+1",
            "random-restart-ascent",
        ),
        # p = 1: the level-constant witness puts its weight on one level
        (
            partial(tau_p_estimate, _diagonal_example(4.0 / 3.0, 16), 4, 1.0, seed=4),
            "0x1.0000000000000p+0",
            "coordinate-aligned",
        ),
    ],
    ids=["past the ascent cutoff", "l2->l2 at p 1.5", "diagonal at p 1"],
)
def test_tau_p_paths_off_the_table_keep_their_bits(call, bound, method):
    _skip_off_the_table_host()
    est = call()
    assert (est.lower_bound.hex(), est.method.value) == (bound, method)
