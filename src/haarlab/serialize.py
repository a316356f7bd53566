"""JSON schemas for the objects that cross the CLI boundary.

Every parser reports failures as SchemaError with the dotted path of the
offending field, so callers can surface machine-readable locations.  Every
result leaves as an ExperimentReport, whose checks have one shape
(check_row).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as _field
from typing import Any

import numpy as np

from .combination import HaarCombination
from .dyadic import HaarIndex, IndexSetError, make_index_set
from .errors import DomainError, SchemaError
from .spaces import Norm, NormedSpaceSpec, OperatorSpec
from .transforms import CompressionTrace

SCHEMA_VERSION = 3


def check_row(name: str, passed: bool, **detail) -> dict:
    """The one shape of a report's check: name, passed, asserted, and the
    measured values under "detail" when there are any."""
    row = {"name": name, "passed": bool(passed), "asserted": True}
    if detail:
        row["detail"] = detail
    return row


@dataclass
class ExperimentReport:
    """Named batch of rows plus pass/fail checks.

    wallTime is the command's wall time, stamped by the CLI; a report built
    through the library keeps 0.0.  It is left out of the CSV so that report
    bytes stay identical across runs with the same seed and inputs.
    """

    name: str
    parameters: dict
    rows: list[dict] = _field(default_factory=list)
    checks: list[dict] = _field(default_factory=list)
    wall_time: float = 0.0

    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks if c.get("asserted", True))

    def exit_code(self) -> int:
        return 0 if self.passed() else 1

    def to_json_dict(self) -> dict:
        return {
            "schemaVersion": SCHEMA_VERSION,
            "name": self.name,
            "parameters": self.parameters,
            "rows": self.rows,
            "checks": self.checks,
            "passed": self.passed(),
            "wallTime": self.wall_time,
        }

    def to_csv(self) -> str:
        """Rows as CSV text; columns follow the first row's key order."""
        buffer = io.StringIO()
        if self.rows:
            writer = csv.DictWriter(
                buffer, fieldnames=list(self.rows[0].keys()), lineterminator="\n"
            )
            writer.writeheader()
            writer.writerows(self.rows)
        return buffer.getvalue()


def _checked(build, field: str):
    """Run a constructor, converting domain violations to schema errors so
    the caller still learns which field was at fault."""
    try:
        return build()
    except DomainError as exc:
        raise SchemaError(str(exc), field) from exc


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", path) from exc


def write_text(text: str, path: str, option: str):
    """Write a file named on the command line; a path that cannot be
    written is a SchemaError whose field names the option."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write file: {exc}", option) from exc


def dump_json(obj: Any, path: str, option: str):
    write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path, option)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {value!r}", field)
    return value


# Largest operator dimension a document may give.  Operators are applied as
# dim x dim matrices (8 MiB of float64 at this size), so a larger dimension
# is refused where it is read, naming the field, before anything allocates.
MAX_OPERATOR_DIM = 1024


def _as_dim(value, field: str) -> int:
    dim = _as_int(value, field)
    if dim > MAX_OPERATOR_DIM:
        raise SchemaError(f"operator dimension {dim} exceeds {MAX_OPERATOR_DIM}", field)
    return dim


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {value!r}", field)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        # json.load accepts NaN, Infinity and -Infinity; none is a coefficient
        raise SchemaError(f"expected a finite number, got {value!r}", field)
    return number


def _as_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", field)
    return value


def _as_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", field)
    return value


def _get(obj: dict, key: str, field: str):
    if key not in obj:
        raise SchemaError("missing required field", f"{field}.{key}" if field else key)
    return obj[key]


# ---------------------------------------------------------------------------
# index sets


def _int_pair(value, field: str) -> tuple[int, int]:
    pair = _as_list(value, field)
    if len(pair) != 2:
        raise SchemaError(f"expected a [k, j] pair, got {len(pair)} entries", field)
    return _as_int(pair[0], f"{field}[0]"), _as_int(pair[1], f"{field}[1]")


def parse_index_set(value, field: str = "indexSet") -> frozenset[HaarIndex]:
    """Index set from a [[k, j], ...] array; shapes are checked first, then
    every pair through the one index-set validator.  A pair may appear only
    once, as an index may in a combination."""
    items = _as_list(value, field)
    pairs = [_int_pair(v, f"{field}[{i}]") for i, v in enumerate(items)]
    try:
        indices = make_index_set(pairs)
    except IndexSetError as exc:
        raise SchemaError(str(exc), f"{field}[{exc.position}]") from exc
    if len(indices) < len(pairs):
        seen = set()
        for i, (k, j) in enumerate(pairs):
            if (k, j) in seen:
                raise SchemaError(f"duplicate index ({k}, {j})", f"{field}[{i}]")
            seen.add((k, j))
    return indices


def dump_index_set(indices) -> list[list[int]]:
    return [[int(k), int(j)] for k, j in sorted(indices)]


# ---------------------------------------------------------------------------
# compression traces


def dump_trace(trace: CompressionTrace) -> dict:
    return {
        "m": trace.m,
        "initial": dump_index_set(trace.initial_set),
        "steps": [[h, i] for h, i in trace.steps],
        "final": dump_index_set(trace.final_set),
    }


# ---------------------------------------------------------------------------
# coefficient families


def parse_combination(value, field: str = "coefficients") -> HaarCombination:
    obj = _as_object(value, field)
    dim = _as_int(_get(obj, "dim", field), f"{field}.dim")
    entries = _as_list(_get(obj, "entries", field), f"{field}.entries")
    coeffs = {}
    for i, raw in enumerate(entries):
        here = f"{field}.entries[{i}]"
        entry = _as_object(raw, here)
        k = _as_int(_get(entry, "k", here), f"{here}.k")
        j = _as_int(_get(entry, "j", here), f"{here}.j")
        vec = _as_list(_get(entry, "x", here), f"{here}.x")
        if len(vec) != dim:
            raise SchemaError(f"expected {dim} components, got {len(vec)}", f"{here}.x")
        if (k, j) in coeffs:
            raise SchemaError(f"duplicate index ({k}, {j})", here)
        coeffs[(k, j)] = [_as_number(c, f"{here}.x[{q}]") for q, c in enumerate(vec)]

    def build() -> HaarCombination:
        try:
            return HaarCombination(dim, coeffs)
        except IndexSetError as exc:
            # the constructor's one index check reads the pairs in entry
            # order, so the position it reports is the entry's
            raise SchemaError(str(exc), f"{field}.entries[{exc.position}]") from exc

    return _checked(build, field)


def dump_combination(f: HaarCombination) -> dict:
    return {
        "dim": f.dim,
        "entries": [
            {"k": k, "j": j, "x": [float(c) for c in x]} for (k, j), x in f.items()
        ],
    }


# ---------------------------------------------------------------------------
# operators


def _parse_norm(value, field: str) -> Norm:
    try:
        return Norm(value)
    except ValueError:
        raise SchemaError(
            f"expected one of {[n.value for n in Norm]}, got {value!r}", field
        ) from None


def parse_operator(value, field: str = "operator") -> OperatorSpec:
    obj = _as_object(value, field)
    kind = _get(obj, "kind", field)
    if kind == "identity":
        dim = _as_dim(_get(obj, "dim", field), f"{field}.dim")
        norm = _parse_norm(_get(obj, "norm", field), f"{field}.norm")
        return _checked(lambda: OperatorSpec.identity(NormedSpaceSpec(dim, norm)), field)
    if kind == "diagonal":
        norm = _parse_norm(_get(obj, "norm", field), f"{field}.norm")
        entries = _as_list(_get(obj, "entries", field), f"{field}.entries")
        _as_dim(len(entries), f"{field}.entries")
        values = [_as_number(v, f"{field}.entries[{i}]") for i, v in enumerate(entries)]
        if "dim" in obj and _as_int(obj["dim"], f"{field}.dim") != len(values):
            raise SchemaError(
                f"dim {obj['dim']} does not match {len(values)} entries", f"{field}.dim"
            )
        return _checked(lambda: OperatorSpec.diagonal(values, norm), field)
    if kind == "dense":
        rows = _as_list(_get(obj, "rows", field), f"{field}.rows")
        _as_dim(len(rows), f"{field}.rows")
        matrix = []
        for i, raw in enumerate(rows):
            row = _as_list(raw, f"{field}.rows[{i}]")
            _as_dim(len(row), f"{field}.rows[{i}]")
            matrix.append(
                [_as_number(v, f"{field}.rows[{i}][{q}]") for q, v in enumerate(row)]
            )
        if not matrix or any(len(r) != len(matrix[0]) for r in matrix):
            raise SchemaError("rows must form a nonempty rectangular matrix", f"{field}.rows")
        dom = _parse_norm(obj.get("domainNorm", "l2"), f"{field}.domainNorm")
        cod = _parse_norm(obj.get("codomainNorm", "l2"), f"{field}.codomainNorm")
        return _checked(
            lambda: OperatorSpec.dense(
                np.array(matrix),
                NormedSpaceSpec(len(matrix[0]), dom),
                NormedSpaceSpec(len(matrix), cod),
            ),
            field,
        )
    raise SchemaError(f"unknown operator kind {kind!r}", f"{field}.kind")


def parse_operator_document(value, field: str = "operator") -> OperatorSpec:
    """Operator from a file-level value: either the object itself or wrapped
    under an \"operator\" key."""
    if isinstance(value, dict) and "operator" in value:
        value = value["operator"]
    return parse_operator(value, field)


def parse_index_set_document(value, field: str = "indexSet") -> frozenset[HaarIndex]:
    """Index set from a file-level value: a bare [[k, j], ...] list or an
    object carrying it under an \"indexSet\" key."""
    if isinstance(value, dict):
        value = _get(value, "indexSet", field)
    return parse_index_set(value, field)
