"""JSON round-trips and schema error locations."""

import json
from pathlib import Path

import numpy as np
import pytest

from haarlab.combination import HaarCombination
from haarlab.dyadic import HaarIndex
from haarlab.errors import SchemaError
from haarlab.serialize import (
    MAX_OPERATOR_DIM,
    dump_combination,
    dump_index_set,
    dump_json,
    load_json,
    parse_combination,
    parse_index_set,
    parse_index_set_document,
    parse_operator,
    parse_operator_document,
)
from haarlab.spaces import Norm, NormedSpaceSpec, OperatorSpec


def test_index_set_round_trip():
    indices = frozenset({HaarIndex(1, 1), HaarIndex(3, 4), HaarIndex(2, 2)})
    dumped = dump_index_set(indices)
    assert dumped == [[1, 1], [2, 2], [3, 4]]  # sorted for stable files
    assert parse_index_set(dumped) == indices


def test_index_set_field_paths():
    with pytest.raises(SchemaError) as err:
        parse_index_set([[1, 1], [2]])
    assert err.value.field == "indexSet[1]"
    with pytest.raises(SchemaError) as err:
        parse_index_set([[1, 1], [2, "x"]])
    assert err.value.field == "indexSet[1][1]"
    with pytest.raises(SchemaError) as err:
        parse_index_set([[1, 2]])  # position out of range for level 1
    assert err.value.field == "indexSet[0]"


def test_index_set_rejects_a_repeated_pair_at_its_second_position():
    with pytest.raises(SchemaError) as err:
        parse_index_set([[1, 1], [2, 1], [1, 1]])
    assert err.value.field == "indexSet[2]"
    assert "duplicate index (1, 1)" in str(err.value)
    with pytest.raises(SchemaError) as err:
        parse_index_set_document({"indexSet": [[2, 2], [3, 1], [3, 1], [2, 2]]})
    assert err.value.field == "indexSet[2]"
    # an out-of-range pair is reported at its own position, before any repeat
    with pytest.raises(SchemaError) as err:
        parse_index_set([[1, 1], [1, 1], [2, 3]])
    assert err.value.field == "indexSet[2]"
    assert "duplicate" not in str(err.value)


def test_index_set_document_accepts_both_shapes():
    bare = [[1, 1], [2, 2]]
    wrapped = {"indexSet": bare}
    assert parse_index_set_document(bare) == parse_index_set_document(wrapped)
    with pytest.raises(SchemaError) as err:
        parse_index_set_document({"wrong": bare})
    assert "indexSet" in err.value.field


def test_combination_round_trip():
    f = HaarCombination(2, {(1, 1): [1.0, -2.0], (3, 2): [0.5, 0.25]})
    g = parse_combination(dump_combination(f))
    assert g.dim == 2
    for idx, x in f.items():
        assert np.array_equal(g.coefficient(idx), x)


def test_combination_schema_errors():
    with pytest.raises(SchemaError) as err:
        parse_combination({"dim": 2, "entries": [{"k": 1, "j": 1, "x": [1.0]}]})
    assert err.value.field == "coefficients.entries[0].x"
    with pytest.raises(SchemaError) as err:
        parse_combination(
            {
                "dim": 1,
                "entries": [
                    {"k": 1, "j": 1, "x": [1.0]},
                    {"k": 1, "j": 1, "x": [2.0]},
                ],
            }
        )
    assert err.value.field == "coefficients.entries[1]"
    with pytest.raises(SchemaError) as err:
        parse_combination({"entries": []})
    assert err.value.field == "coefficients.dim"


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"k": 0, "j": 1}, "Haar index level must be >= 1, got k=0"),
        ({"k": 3, "j": 9}, "Haar index position 9 out of range for level 3"),
    ],
)
def test_combination_index_errors_name_their_entry(bad, message):
    entries = [{"k": 1, "j": 1, "x": [1.0]}, {**bad, "x": [2.0]}, {"k": 2, "j": 1, "x": [0.5]}]
    with pytest.raises(SchemaError) as err:
        parse_combination({"dim": 1, "entries": entries})
    assert err.value.field == "coefficients.entries[1]"
    assert str(err.value) == f"coefficients.entries[1]: {message}"


@pytest.mark.parametrize(
    "op",
    [
        (
            {"kind": "identity", "dim": 4, "norm": "l2"},
            OperatorSpec.identity(NormedSpaceSpec(4, Norm.L2)),
        ),
        (
            {"kind": "diagonal", "norm": "l1", "entries": [1.0, 0.84, 0.76]},
            OperatorSpec.diagonal([1.0, 0.84, 0.76], Norm.L1),
        ),
        (
            {
                "kind": "dense",
                "rows": [[1.0, 2.0], [3.0, 4.0]],
                "domainNorm": "l2",
                "codomainNorm": "l1",
            },
            OperatorSpec.dense(
                np.array([[1.0, 2.0], [3.0, 4.0]]),
                NormedSpaceSpec(2, Norm.L2),
                NormedSpaceSpec(2, Norm.L1),
            ),
        ),
        (
            {
                "kind": "dense",
                "rows": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                "domainNorm": "l1",
                "codomainNorm": "linf",
            },
            OperatorSpec.dense(
                np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                NormedSpaceSpec(2, Norm.L1),
                NormedSpaceSpec(3, Norm.LINF),
            ),
        ),
    ],
)
def test_operator_round_trip(op):
    """A literal document, bare or wrapped, parses to the operator it names:
    the three README forms and a dense l1 -> linf map."""
    document, expected = op
    for parsed in (parse_operator(document), parse_operator_document({"operator": document})):
        assert parsed.kind == expected.kind
        assert parsed.domain == expected.domain
        assert parsed.codomain == expected.codomain
        assert np.array_equal(parsed.as_matrix(), expected.as_matrix())


def test_operator_schema_errors():
    with pytest.raises(SchemaError) as err:
        parse_operator({"kind": "rotation"})
    assert err.value.field == "operator.kind"
    with pytest.raises(SchemaError) as err:
        parse_operator({"kind": "diagonal", "norm": "l5", "entries": [1.0]})
    assert err.value.field == "operator.norm"
    with pytest.raises(SchemaError) as err:
        parse_operator(
            {"kind": "diagonal", "norm": "l1", "entries": [1.0, 2.0], "dim": 3}
        )
    assert err.value.field == "operator.dim"
    with pytest.raises(SchemaError) as err:
        parse_operator({"kind": "dense", "rows": [[1.0], [2.0, 3.0]]})
    assert err.value.field == "operator.rows"
    with pytest.raises(SchemaError) as err:
        parse_operator_document({"operator": {"kind": "identity", "dim": 2}})
    assert err.value.field == "operator.norm"


def test_operator_dimensions_are_bounded_where_they_are_read():
    top = MAX_OPERATOR_DIM
    assert parse_operator({"kind": "identity", "dim": top, "norm": "l2"}).domain.dim == top
    cases = [
        ({"kind": "identity", "dim": 100_000_000, "norm": "l2"}, "operator.dim"),
        ({"kind": "identity", "dim": top + 1, "norm": "l1"}, "operator.dim"),
        ({"kind": "diagonal", "norm": "l1", "entries": [1.0] * (top + 1)}, "operator.entries"),
        ({"kind": "dense", "rows": [[1.0]] * (top + 1)}, "operator.rows"),
        ({"kind": "dense", "rows": [[1.0] * (top + 1)]}, "operator.rows[0]"),
    ]
    for doc, field in cases:
        with pytest.raises(SchemaError) as err:
            parse_operator(doc)
        assert err.value.field == field
        assert f"exceeds {top}" in str(err.value)


def test_booleans_are_not_numbers():
    with pytest.raises(SchemaError):
        parse_index_set([[True, 1]])
    with pytest.raises(SchemaError):
        parse_operator({"kind": "diagonal", "norm": "l1", "entries": [True]})


def test_load_json_reports_path(tmp_path):
    """A file that cannot be read or parsed names its option as the field
    and its path in the message."""
    missing = tmp_path / "nope.json"
    with pytest.raises(SchemaError) as err:
        load_json(str(missing), "set")
    assert err.value.field == "set" and str(missing) in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError) as err:
        load_json(str(bad), "operator")
    assert err.value.field == "operator" and str(bad) in str(err.value)


def test_dump_json_is_stable(tmp_path):
    target = tmp_path / "out.json"
    dump_json({"b": 1, "a": [1, 2]}, str(target), "witness")
    first = target.read_bytes()
    dump_json({"a": [1, 2], "b": 1}, str(target), "witness")
    assert target.read_bytes() == first
    assert json.loads(first) == {"a": [1, 2], "b": 1}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_are_rejected_with_their_field(token):
    doc = '{"kind": "diagonal", "norm": "l1", "entries": [1.0, %s, 0.5]}' % token
    with pytest.raises(SchemaError) as err:
        parse_operator(json.loads(doc))
    assert err.value.field == "operator.entries[1]"
    doc = '{"kind": "dense", "rows": [[1.0, 2.0], [3.0, %s]]}' % token
    with pytest.raises(SchemaError) as err:
        parse_operator(json.loads(doc))
    assert err.value.field == "operator.rows[1][1]"
    doc = '{"dim": 2, "entries": [{"k": 1, "j": 1, "x": [%s, 0.0]}]}' % token
    with pytest.raises(SchemaError) as err:
        parse_combination(json.loads(doc))
    assert err.value.field == "coefficients.entries[0].x[0]"


def test_integer_too_large_for_a_float_is_rejected():
    with pytest.raises(SchemaError) as err:
        parse_operator({"kind": "diagonal", "norm": "l1", "entries": [10**400]})
    assert err.value.field == "operator.entries[0]"


def test_readme_operator_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Input files", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    examples = [json.loads(line) for line in block.splitlines() if line.strip()]
    assert [e["kind"] for e in examples] == ["identity", "diagonal", "dense"]
    for example in examples:
        parse_operator(example)
        parse_operator_document({"operator": example})
