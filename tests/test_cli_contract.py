"""The exit-code contract of the estimate commands, judged by generated
inputs: `tau` and `tau-p` on malformed operator documents, index sets and
budgets exit 0, 1 or 2 with no traceback, and every exit 2 names the field
or option at fault."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarlab.cli import main

NORMS = ["l1", "l2", "linf"]

# what an entry may hold besides a small float: numbers whose products
# overflow, a subnormal, and what json reads as numbers but no coefficient
# may be
SPECIAL = [0.0, -0.0, 1e-320, 1.7e308, -4.4e243, 10**400, float("nan"), float("inf")]
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def operator_documents(draw, broken: bool):
    """An operator object of each kind with dimensions 1-4 and entries in
    [-10, 10]; where `broken`, one of: a key dropped, a value replaced by
    junk, an entry replaced by a special number, a row or the entries cut
    short, the whole object wrapped under "operator" (which is allowed),
    or a document that is not an operator object at all."""
    kind = draw(st.sampled_from(["dense", "diagonal", "identity"]))
    dim = draw(st.integers(1, 4))
    small = st.floats(-10, 10, allow_nan=False)
    entries = None
    if kind == "dense":
        rows = [[draw(small) for _ in range(dim)] for _ in range(draw(st.integers(1, 4)))]
        doc = {"kind": kind, "rows": rows, "domainNorm": draw(st.sampled_from(NORMS)),
               "codomainNorm": draw(st.sampled_from(NORMS))}
        entries = rows[-1]
    elif kind == "diagonal":
        entries = [draw(small) for _ in range(dim)]
        doc = {"kind": kind, "norm": draw(st.sampled_from(NORMS)), "entries": entries}
    else:
        doc = {"kind": kind, "norm": draw(st.sampled_from(NORMS)), "dim": dim}
    if not broken:
        return doc
    mutation = draw(st.sampled_from(["drop", "junk", "special", "short", "wrap", "other"]))
    key = draw(st.sampled_from(sorted(doc)))
    if mutation == "drop":
        del doc[key]
    elif mutation == "junk":
        doc[key] = draw(junk)
    elif mutation == "special" and entries:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(SPECIAL))
    elif mutation == "special":
        doc["dim"] = draw(st.sampled_from([0, -1, 2000, 1.5, 10**400]))
    elif mutation == "short" and entries:
        entries.pop()
    elif mutation == "wrap":
        doc = {"operator": doc}
    elif mutation == "other":
        doc = draw(st.one_of(junk, st.lists(junk, max_size=2)))
    return doc


# pairs (k, j): Haar indices of levels 1-5, and pairs that are not
haar_pairs = st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, 1 << (k - 1)))
).map(list)
bad_pairs = st.one_of(
    st.tuples(st.integers(-1, 70), st.integers(-1, 40)),
    st.tuples(st.sampled_from([True, 1.5, "1", None]), st.integers(1, 2)),
    st.lists(st.integers(1, 3), max_size=3),
).map(list)
index_sets = st.one_of(
    st.lists(haar_pairs, min_size=1, max_size=6, unique_by=tuple),
    st.lists(haar_pairs, min_size=1, max_size=6, unique_by=tuple).map(lambda s: {"indexSet": s}),
)
broken_index_sets = st.one_of(
    st.just([]),
    st.lists(haar_pairs, min_size=1, max_size=3).map(lambda s: s + s[:1]),  # a duplicate
    st.lists(st.one_of(haar_pairs, bad_pairs), max_size=4).filter(
        lambda s: any(pair not in ([k, j] for k in range(1, 6) for j in range(1, 17)) for pair in s)
    ),
    st.lists(haar_pairs, max_size=2).map(lambda s: {"indices": s}),
    junk,
)
BUDGETS = ["1", "2", "3"]
BROKEN_BUDGETS = ["0", "-1", "100001", "10**9", "2.5", "x", ""]
BROKEN_SEEDS = ["-1", "x", "1e3", ""]


def draw_input(data, fault: str, name: str, valid, broken):
    """The input `name`: drawn from `broken` where it is the example's
    fault, else from `valid`."""
    return data.draw(broken if fault == name else valid, label=name)


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert "Traceback" not in text, text
    return code, out.getvalue()


def assert_contract(code: int, out: str, fault: str):
    """Exit 0 for valid inputs; else 0, 1 or 2, and an exit 2 names the
    broken input (an operator's field is `operator` or one of its keys)."""
    if fault == "none":
        assert code == 0, out
    assert code in (0, 1, 2), out
    if code == 2:
        field = json.loads(out)["error"]["field"]
        assert field is not None and field.split(".")[0].split("[")[0] == fault, (fault, out)


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault=st.sampled_from(["none", "operator", "indexSet", "restarts", "iters", "seed"]),
       data=st.data())
def test_tau_exits_0_1_or_2_and_names_the_field(fault, data):
    operator = draw_input(data, fault, "operator", operator_documents(False),
                          operator_documents(True))
    indices = draw_input(data, fault, "indexSet", index_sets, broken_index_sets)
    restarts, iterations = (
        draw_input(data, fault, name, st.sampled_from(BUDGETS), st.sampled_from(BROKEN_BUDGETS))
        for name in ("restarts", "iters")
    )
    seed = draw_input(data, fault, "seed", st.integers(0, 9).map(str), st.sampled_from(BROKEN_SEEDS))
    with tempfile.TemporaryDirectory() as tmp:
        op, index_set = Path(tmp, "op.json"), Path(tmp, "set.json")
        op.write_text(json.dumps(operator))
        index_set.write_text(json.dumps(indices))
        argv = ["tau", "--operator", str(op), "--set", str(index_set), "--restarts", restarts,
                "--iters", iterations, "--seed", seed]
        assert_contract(*run(argv), fault)


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault=st.sampled_from(["none", "operator", "depth", "p", "restarts", "iters"]),
       data=st.data())
def test_tau_p_exits_0_1_or_2_and_names_the_field(fault, data):
    operator = draw_input(data, fault, "operator", operator_documents(False),
                          operator_documents(True))
    depth = draw_input(data, fault, "depth", st.sampled_from(["1", "2", "3", "4", "5"]),
                       st.sampled_from(["0", "-2", "21", "64", "2.0", "x"]))
    p = draw_input(data, fault, "p", st.sampled_from(["1", "1.25", "1.5", "2"]),
                   st.sampled_from(["0.5", "2.5", "nan", "inf", "-inf", "x"]))
    restarts, iterations = (
        draw_input(data, fault, name, st.sampled_from(BUDGETS), st.sampled_from(BROKEN_BUDGETS))
        for name in ("restarts", "iters")
    )
    with tempfile.TemporaryDirectory() as tmp:
        op = Path(tmp, "op.json")
        op.write_text(json.dumps(operator))
        argv = ["tau-p", "--operator", str(op), "--depth", depth, "--p", p,
                "--restarts", restarts, "--iters", iterations]
        assert_contract(*run(argv), fault)
