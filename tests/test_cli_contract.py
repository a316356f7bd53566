"""The exit-code contract of the commands, judged by generated inputs:
`tau`, `tau-p`, `lh`, `compress`, `fill`, `partition` and the three `check`
kinds on malformed operator documents, index sets, combinations, budgets
and option values exit 0, 1 or 2 with no traceback, and every exit 2 names
the field or option at fault."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarlab.cli import main
from haarlab.combinatorics import local_height

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


def assert_contract(code: int, out: str, fault: str, estimated: bool = False):
    """Exit 0 for valid inputs, or 1 for a report whose checks compare
    `estimated` lower bounds (a small budget may leave one short); else 0,
    1 or 2, and an exit 2 names the broken input (an operator's field is
    `operator` or one of its keys)."""
    if fault == "none":
        assert code == 0 or (estimated and code == 1 and not json.loads(out)["passed"]), out
    assert code in (0, 1, 2), out
    if code == 2:
        field = json.loads(out)["error"]["field"]
        assert field is not None and field.split(".")[0].split("[")[0] == fault, (fault, out)


CONTRACT = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def run_with_files(argv: list[str], files: dict) -> tuple[int, str]:
    """Write each document of `files` as JSON to a temporary file, put its
    path in argv in place of its name and run the command."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, document in files.items():
            paths[name] = Path(tmp, f"{name}.json")
            paths[name].write_text(json.dumps(document))
        return run([str(paths.get(arg, arg)) for arg in argv])


@CONTRACT
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
    argv = ["tau", "--operator", "operator", "--set", "set", "--restarts", restarts,
            "--iters", iterations, "--seed", seed]
    assert_contract(*run_with_files(argv, {"operator": operator, "set": indices}), fault)


@CONTRACT
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
    argv = ["tau-p", "--operator", "operator", "--depth", depth, "--p", p,
            "--restarts", restarts, "--iters", iterations]
    assert_contract(*run_with_files(argv, {"operator": operator}), fault)


BROKEN_FORMATS = ["xml", "", "JSON"]


@CONTRACT
@given(command=st.sampled_from(["lh", "compress"]),
       fault=st.sampled_from(["none", "indexSet", "format"]), data=st.data())
def test_lh_and_compress_exit_0_1_or_2_and_name_the_field(command, fault, data):
    indices = draw_input(data, fault, "indexSet", index_sets, broken_index_sets)
    fmt = draw_input(data, fault, "format", st.sampled_from(["json", "csv"]),
                     st.sampled_from(BROKEN_FORMATS))
    argv = [command, "--set", "set", "--format", fmt]
    assert_contract(*run_with_files(argv, {"set": indices}), fault)


@st.composite
def fill_inputs(draw):
    """A set of levels 1-5, a depth n from its top level to 7 and a height
    budget l that fill accepts: localHeight(F) <= l <= n and |F| < 2^l - 1."""
    pairs = draw(st.lists(haar_pairs, max_size=6, unique_by=tuple))
    top = max([k for k, _j in pairs], default=1)
    least = max(local_height(pairs), (len(pairs) + 1).bit_length())
    depth = draw(st.integers(max(top, least), 7))
    return pairs, str(draw(st.integers(least, depth))), str(depth), top


@CONTRACT
@given(fault=st.sampled_from(["none", "indexSet", "height", "depth"]), data=st.data())
def test_fill_exits_0_1_or_2_and_names_the_field(fault, data):
    """A broken height is outside localHeight(F)..n, leaves no room below
    2^l - 1 or is no integer; a broken depth is below 1, below the set's
    top level, above the level cap or no integer."""
    pairs, height, depth, top = data.draw(fill_inputs(), label="valid")
    indices = pairs if fault != "indexSet" else data.draw(broken_index_sets, label="indexSet")
    if fault == "height":
        too_small = str(len(pairs).bit_length() - 1) if pairs else "0"
        height = data.draw(st.sampled_from([too_small, str(int(depth) + 1), "-1", "2.5", "x"]))
    elif fault == "depth":
        below = [str(top - 1)] if top > 1 else []
        depth = data.draw(st.sampled_from(below + ["0", "-3", "21", "64", "2.0", "x"]))
    argv = ["fill", "--set", "set", "--height", height, "--depth", depth]
    assert_contract(*run_with_files(argv, {"set": indices}), fault)


# (k, j) pairs that are no Haar index: j out of range, k out of range
# (above the level cap of 20 too), or not integers
NO_HAAR_INDEX = [(1, 2), (3, 5), (2, 0), (0, 1), (-1, 1), (21, 1), (True, 1), (1.5, 1), ("1", 1),
                 (None, 1)]


@st.composite
def combinations(draw, broken: bool, dim: int | None = None):
    """A coefficient document of dimension `dim` (1-3 where None) with
    entries in [-10, 10] on distinct indices; where `broken`, one of: a
    key dropped, a value replaced by junk, an index that is no Haar index,
    a component replaced by a special number or cut short, a duplicate
    entry, or a document that is not an object at all."""
    dim = dim or draw(st.integers(1, 3))
    small = st.floats(-10, 10, allow_nan=False)
    pairs = draw(st.lists(haar_pairs, min_size=1, max_size=6, unique_by=tuple))
    entries = [{"k": k, "j": j, "x": [draw(small) for _ in range(dim)]} for k, j in pairs]
    doc = {"dim": dim, "entries": entries}
    if not broken:
        return doc
    mutation = draw(st.sampled_from(["drop", "junk", "index", "special", "short", "twice",
                                     "other"]))
    entry = draw(st.sampled_from(entries))
    if mutation == "drop":
        del doc[draw(st.sampled_from(["dim", "entries"]))]
    elif mutation == "junk":
        doc[draw(st.sampled_from(["dim", "entries"]))] = draw(junk)
    elif mutation == "index":
        entry["k"], entry["j"] = draw(st.sampled_from(NO_HAAR_INDEX))
    elif mutation == "special":
        entry["x"][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(
            [float("nan"), float("inf"), 10**400, "1", None]))
    elif mutation == "short":
        entry["x"].pop()
    elif mutation == "twice":
        entries.append(dict(entry))
    else:
        doc = draw(st.one_of(junk, st.lists(junk, max_size=2)))
    return doc


BROKEN_EXPONENTS = ["0.5", "2.5", "nan", "inf", "-inf", "x"]


@CONTRACT
@given(fault=st.sampled_from(["none", "coefficients", "depth", "exponent"]), data=st.data())
def test_partition_exits_0_1_or_2_and_names_the_field(fault, data):
    """A broken depth is below 1, above the level cap or no integer; a
    valid depth is at least the combination's top level, 5."""
    combination = draw_input(data, fault, "coefficients", combinations(False), combinations(True))
    depth = draw_input(data, fault, "depth", st.sampled_from(["5", "6", "8"]),
                       st.sampled_from(["0", "-1", "21", "64", "2.0", "x"]))
    exponent = draw_input(data, fault, "exponent", st.sampled_from(["1", "1.5", "2"]),
                          st.sampled_from(BROKEN_EXPONENTS))
    argv = ["partition", "--combination", "combination", "--depth", depth,
            "--exponent", exponent]
    assert_contract(*run_with_files(argv, {"combination": combination}), fault)


def domain_dim(operator: dict) -> int:
    """The domain dimension of a valid operator document."""
    if operator["kind"] == "dense":
        return len(operator["rows"][0])
    return len(operator["entries"]) if operator["kind"] == "diagonal" else operator["dim"]


# per check kind: the options it always gets (small budgets), and its
# inputs by the name an exit 2 gives them: the option that carries each,
# its valid values and its broken ones.  A document is written to a file;
# a required file's option left out is named by the option, and so is a
# foreign option, one the kind does not read (valid on its own)
CHECK_KINDS = {
    "comparison": (["--iters", "3"], {
        "indexSet": ("--set", index_sets, broken_index_sets),
        "restarts": ("--restarts", BUDGETS, BROKEN_BUDGETS),
        "seed": ("--seed", ["0", "3"], BROKEN_SEEDS),
        "tol-opt": ("--tol-opt", ["0.02", "0.5"], ["0", "-1", "nan", "x"]),
    }),
    "monotonicity": (["--restarts", "2"], {
        "m": ("--m", ["1", "2"], ["0", "-1", "1.5", "x"]),
        "depth": ("--depth", ["2", "3"], ["0", "-2", "21", "x"]),
        "iters": ("--iters", BUDGETS, BROKEN_BUDGETS),
    }),
    "triangle": ([], {
        "coefficients": ("--combination", None, None),
        "exponent": ("--exponent", ["1", "1.5", "2"], BROKEN_EXPONENTS),
    }),
}
REQUIRED = {"comparison": "--set", "triangle": "--combination"}
FOREIGN = {"comparison": ["--m", "1"], "monotonicity": ["--exponent", "1.5"],
           "triangle": ["--seed", "1"]}
CHECK_FAULTS = [
    (kind, fault)
    for kind, (_extra, inputs) in CHECK_KINDS.items()
    for fault in ["none", "kind", "operator", FOREIGN[kind][0][2:], *inputs]
    + ([REQUIRED[kind][2:]] if kind in REQUIRED else [])
]


@pytest.mark.parametrize("kind, fault", CHECK_FAULTS)
@settings(CONTRACT, max_examples=20)
@given(data=st.data())
def test_check_exits_0_1_or_2_and_names_the_field(kind, fault, data):
    """Each kind on its own inputs, with one broken: the kind itself (not
    a kind, or left out), the operator, one of the kind's documents or
    option values, the file it requires left out, or a foreign option."""
    extra, inputs = CHECK_KINDS[kind]
    required, foreign = REQUIRED.get(kind), FOREIGN[kind][0][2:]
    operator = draw_input(data, fault, "operator", operator_documents(False),
                          operator_documents(True))
    kinds = st.sampled_from([["--kind", "bogus"], ["--kind", ""], ["--kind", "Triangle"], []])
    argv = ["check", "--operator", "operator", *extra]
    argv += draw_input(data, fault, "kind", st.just(["--kind", kind]), kinds)
    files = {"operator": operator}
    for name, (option, valid, broken) in inputs.items():
        if option == "--set":
            files["set"] = draw_input(data, fault, name, valid, broken)
        elif option == "--combination":
            # valid: of the operator's domain dimension where the operator is valid
            dim = 1 if fault == "operator" else domain_dim(operator)
            files["combination"] = draw_input(data, fault, name, combinations(False, dim),
                                              combinations(True, dim))
        else:
            argv += [option, draw_input(data, fault, name, st.sampled_from(valid),
                                        st.sampled_from(broken))]
    if required and fault != required[2:]:
        argv += [required, required[2:]]
    if fault == foreign:
        argv += FOREIGN[kind]
    assert_contract(*run_with_files(argv, files), fault, estimated=kind != "triangle")


@pytest.mark.parametrize("argv, field", [
    (["tau", "--operator", "operator"], "set"),
    (["fill", "--set", "set", "--height", "2"], "depth"),
    (["tau-p", "--operator", "operator", "--depth", "2"], "p"),
    (["check", "--operator", "operator"], "kind"),
    ([], "command"),
    (["check", "--kind", "comparison", "--operator", "operator"], "set"),
    (["check", "--kind", "comparison", "--operator", "operator", "--set", "set", "--m", "1"],
     "m"),
    (["partition", "--combination", "empty", "--depth", "-1"], "depth"),
    (["check", "--kind", "triangle", "--operator", "operator", "--combination", "combination"],
     "operator"),
])
def test_every_usage_error_names_its_option(argv, field):
    """A missing required option or subcommand, and the options a check
    kind requires or does not read, exit 2 naming the option without its
    dashes.  A depth below 1 on an empty combination, and a combination
    outside the operator's domain, name theirs too."""
    code, out = run_with_files(argv, {
        "operator": {"kind": "diagonal", "norm": "l1", "entries": [1.0, 0.5]},
        "set": [[1, 1]],
        "empty": {"dim": 1, "entries": []},
        "combination": {"dim": 1, "entries": [{"k": 1, "j": 1, "x": [1.0]}]},
    })
    assert code == 2, out
    assert json.loads(out)["error"]["field"] == field, out
