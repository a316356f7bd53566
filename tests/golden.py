"""The golden table: the bits of every estimate and report the table pins.

Each entry is built here from a seed, with nothing taken from the benchmark
directory: the 40 tau-search recipes at seeds 3 and 11, tau_p on the full
trees of depths 3-5, sparse deep sets that the ascent runs on their own
dyadic partition, the log-variant experiment's tree estimates at its
default depth (full trees up to depth 16), the ratios of a deep sparse
set and of full_tree(14), and the JSON of the tau, tau-p and check commands
without their wall time.  An estimate is pinned by the float.hex of its
bound, its method, and the sha256 of its witness's heap ids and rows; a
ratio by its float.hex.

Every np.vecdot row the estimates take has at most 10,000 elements (the
ascent's grids have at most 2^13 cells and m * d stays well below 10,000;
the deeper sets are rated without an ascent, on l1 and linf codomains or
row by row), so OpenBLAS sums each row on one thread and the table does not
depend on the thread count.  The
`ddot` kernel still depends on the CPU type, so the table records the CPU
model and the numpy version it was made with.

Regenerate the table (after a change that is meant to move bits) with

    PYTHONPATH=src python tests/golden.py

and list what moved, old value beside new, without writing the table, with

    PYTHONPATH=src python tests/golden.py --diff

which exits 1 when an entry moved and 0 when none did.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from haarlab.cli import main as cli_main
from haarlab.combination import HaarCombination
from haarlab.dyadic import dyadic_band, full_tree
from haarlab.experiments import ExperimentConfig
from haarlab.normlab import (
    _diagonal_example,
    _tau_estimate,
    tau_estimate,
    tau_p_estimate,
    tau_p_ratio,
    tau_ratio,
)
from haarlab.spaces import Norm, NormedSpaceSpec, OperatorSpec

TABLE = Path(__file__).resolve().parent / "golden_table.json"

P = 4.0 / 3.0  # the paper's exponent for the diagonal example


def cpu_model() -> str | None:
    """The CPU model name the kernel reports, None where it reports none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def pin(est) -> dict:
    f = est.best_witness
    digest = hashlib.sha256(f.heap_ids.tobytes() + f.rows.tobytes()).hexdigest()
    return {"bound": est.lower_bound.hex(), "method": est.method.value, "witness": digest}


def tau_search_recipes(seed: int) -> list[tuple[str, object]]:
    """The 40 tau-search estimates of one seed, as (label, call) pairs: the
    diagonal example on trees, bands, tau_p depths and random subsets, dense
    operators into l1 on a tree and a random subset, and one l2 -> l2."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))

    def est_seed() -> int:
        return int(rng.integers(0, 2**31))

    def subset(depth, size):
        pool = sorted(full_tree(depth))
        picks = rng.choice(len(pool), size=size, replace=False)
        return [pool[int(b)] for b in sorted(picks)]

    def tau(label, op, indices):
        return label, partial(tau_estimate, op, indices, seed=est_seed())

    q = P / (P - 1.0)
    diag = OperatorSpec.diagonal(np.arange(1, 17, dtype=float) ** (-1.0 / q), Norm.L1)
    out = [tau(f"diag tree {n}", diag, sorted(full_tree(n))) for n in (3, 4, 5, 6)]
    for m, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
        out.append(tau(f"diag band {m}..{n}", diag, sorted(dyadic_band(m, n))))
    for n in (3, 4, 5):
        out.append((f"diag tau_p {n}", partial(tau_p_estimate, diag, n, P, seed=est_seed())))
    for depth in (6, 7, 8):
        for size in (6, 12, 18, 24):
            out.append(tau(f"diag subset {depth} ({size})", diag, subset(depth, size)))
    for domain in ("linf", "l2"):
        for dim in (4, 5, 6, 8):
            matrix = rng.standard_normal((dim, dim))
            spaces = NormedSpaceSpec(dim, domain), NormedSpaceSpec(dim, "l1")
            op = OperatorSpec.dense(matrix, *spaces)
            for name, indices in (("tree 3", sorted(full_tree(3))), ("subset 6", subset(6, 10))):
                out.append(tau(f"dense {domain}->l1 d={dim} {name}", op, indices))
    space = NormedSpaceSpec(6, "l2")
    l2 = OperatorSpec.dense(np.random.default_rng(0).standard_normal((6, 6)), space, space)
    out.append(("dense l2->l2 d=6", partial(tau_estimate, l2, sorted(full_tree(3)), seed=0)))
    return out


def dense(seed: int, dim: int, domain: str, codomain: str) -> OperatorSpec:
    matrix = np.random.default_rng(seed).standard_normal((dim, dim))
    return OperatorSpec.dense(matrix, NormedSpaceSpec(dim, domain), NormedSpaceSpec(dim, codomain))


def tau_p_cases() -> list[tuple[str, object]]:
    """tau_p on the full trees of depths 3-5 for dense operators into l1,
    which the ascent wins, and the l2 -> l2 eigensolve at p = 2."""
    ops = {"linf->l1": dense(21, 6, "linf", "l1"), "l2->l1": dense(22, 5, "l2", "l1")}
    out = [
        (f"tau_p {name} depth {n}", partial(tau_p_estimate, op, n, 1.5, seed=n))
        for name, op in ops.items()
        for n in (3, 4, 5)
    ]
    l2 = dense(23, 4, "l2", "l2")
    return out + [("tau_p l2->l2 depth 3", partial(tau_p_estimate, l2, 3, 2.0, seed=3))]


def partition_cases() -> list[tuple[str, object]]:
    """Sparse sets of depths 12 and 13, whose own dyadic partition has far
    fewer leaves than the grid has cells."""
    rng = np.random.default_rng(31)
    pool = sorted(full_tree(12))
    sparse = [pool[int(b)] for b in sorted(rng.choice(len(pool), size=16, replace=False))]
    cases = {
        "branch 13, linf->l1": (dense(34, 6, "linf", "l1"), [(k, 1) for k in range(1, 14)]),
        "two indices 1 and 13, linf->l2": (dense(32, 4, "linf", "l2"), [(1, 1), (13, 77)]),
        "sparse 12, l2->linf": (dense(33, 5, "l2", "linf"), sparse + [(12, 2048)]),
    }
    return [
        (label, partial(tau_estimate, op, s, restarts=3, iterations=20, seed=5))
        for label, (op, s) in cases.items()
    ]


def tree_table_cases() -> list[tuple[str, object]]:
    """The log-variant experiment's tree estimates at its default depth
    (p = 4/3, n = 8): tau of the diagonal example on the full trees of
    depths 2, 4, 8 and 16, d = 16, called as experiments._tree_tau_table
    calls them, with the default budgets and seed."""
    config = ExperimentConfig()
    op = _diagonal_example(P, 16)
    budget = (config.restarts, config.iterations, config.seed)
    return [
        (f"log-variant tree {depth}", partial(_tau_estimate, op, np.arange(1, 1 << depth), *budget))
        for depth in (2, 4, 8, 16)
    ]


def ratio_entries() -> dict:
    """tau_ratio and tau_p_ratio (p = 4/3) of random combinations on
    {(1,1), (20,1)} and on full_tree(14), d = 16, whose grids stream through
    the norm in many blocks, for the diagonal example into l1 and a dense
    l2 -> linf operator."""
    rng = np.random.default_rng(51)
    sets = {"{(1,1), (20,1)}": [(1, 1), (20, 1)], "tree 14": sorted(full_tree(14))}
    ops = {"diag l1": _diagonal_example(P, 16), "dense l2->linf": dense(52, 16, "l2", "linf")}
    out = {}
    for set_name, indices in sets.items():
        f = HaarCombination(16, {a: rng.standard_normal(16) for a in indices})
        for op_name, op in ops.items():
            out[f"tau {op_name} {set_name}"] = tau_ratio(op, f).hex()
            out[f"tau_p {op_name} {set_name}"] = tau_p_ratio(op, f, P).hex()
    return out


def _write(name: str, obj) -> None:
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read(name: str):
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    doc = json.loads(out.getvalue())
    doc.pop("wallTime")
    return {"exit": code, "report": doc}


def cli_reports() -> dict:
    """The JSON of tau and tau-p (their witness files included) and of the
    three check kinds, run in a scratch directory on files written there."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            entries = [k**-0.25 for k in range(1, 9)]
            _write("diag.json", {"kind": "diagonal", "norm": "l1", "entries": entries})
            rows = np.random.default_rng(41).standard_normal((5, 5)).tolist()
            norms = {"domainNorm": "linf", "codomainNorm": "l1"}
            _write("dense.json", {"kind": "dense", "rows": rows, **norms})
            _write("set.json", [[1, 1], [2, 2], [3, 1], [4, 3], [5, 9], [6, 30]])
            rng = np.random.default_rng(42)
            entries = [
                {"k": k, "j": j, "x": rng.standard_normal(5).tolist()}
                for k, j in sorted(full_tree(4))
            ]
            _write("comb.json", {"dim": 5, "entries": entries})
            budget = ["--restarts", "3", "--iters", "15", "--seed", "4"]
            tau = ["tau", "--operator", "dense.json", "--set", "set.json", "--witness", "w.json"]
            tau_p = ["tau-p", "--operator", "diag.json", "--depth", "4", "--p", "1.5"]
            check = ["check", "--operator", "dense.json", "--kind"]
            monotonicity = ["check", "--operator", "diag.json", "--kind", "monotonicity"]
            triangle = [*check, "triangle", "--combination", "comb.json", "--exponent", "1.5"]
            out = {
                "tau": _run([*tau, *budget]),
                "tau-witness": _read("w.json"),
                "tau-p": _run([*tau_p, "--witness", "wp.json", *budget]),
                "tau-p-witness": _read("wp.json"),
                "check comparison": _run([*check, "comparison", "--set", "set.json", *budget]),
                "check monotonicity": _run([*monotonicity, "--m", "1", "--depth", "3", *budget]),
                "check triangle": _run(triangle),
            }
        finally:
            os.chdir(here)
    return out


def golden_entries() -> dict:
    estimates = {}
    for seed in (3, 11):
        for label, call in tau_search_recipes(seed):
            estimates[f"seed {seed}: {label}"] = pin(call())
    for label, call in tau_p_cases() + partition_cases() + tree_table_cases():
        estimates[label] = pin(call())
    return {"estimates": estimates, "ratios": ratio_entries(), "cli": cli_reports()}


def build_table() -> dict:
    return {"numpy": np.__version__, "cpu": cpu_model(), **golden_entries()}


def _leaves(obj, path: str = ""):
    """(path, value) for every scalar in nested dicts and lists, dict keys
    and list positions joined by ' / '."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        yield path, obj
        return
    for key, value in items:
        yield from _leaves(value, f"{path} / {key}" if path else str(key))


def diff(old: dict, new: dict) -> list[str]:
    """One line per entry that moved between two tables, old value beside
    new, in the old table's order and then the new entries."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    absent = "(absent)"
    return [
        f"{path}: {before.get(path, absent)} -> {after.get(path, absent)}"
        for path in {**before, **after}
        if before.get(path, absent) != after.get(path, absent)
    ]


def main(argv: list[str]) -> int:
    """Write the table (no arguments) and return 0; with --diff, print what
    moved against the written table and return 1 when any entry moved, 0
    when none did; 2 for any other arguments."""
    if argv not in ([], ["--diff"]):
        print("usage: golden.py [--diff]", file=sys.stderr)
        return 2
    table = build_table()
    if argv == ["--diff"]:
        old = json.loads(TABLE.read_text(encoding="utf-8"))
        # the JSON round trip turns the new table's tuples into lists, as in the file
        moved = diff(old, json.loads(json.dumps(table)))
        print("\n".join(moved) or "no entry moved")
        return 1 if moved else 0
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
