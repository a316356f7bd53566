"""Experiment reports and the command line: determinism, exit codes, errors."""

import argparse
import hashlib
import json
import re
import shlex
import time
import warnings
from pathlib import Path

import pytest

from haarlab import cli, experiments
from haarlab.cli import build_parser, main
from haarlab.combination import HaarCombination
from haarlab.dyadic import HaarIndex, heap_id
from haarlab.errors import DomainError
from haarlab.experiments import (
    ExperimentConfig,
    run_log_variant_experiment,
    run_verify,
    run_weak_type_sweep,
)
from haarlab.normlab import diagonal_formula_tau, diagonal_formula_tau_p
from haarlab.serialize import ExperimentReport
from haarlab.transforms import FORK_RELATION_ROWS, compress
from helpers import peak_traced_bytes, reference_greedy_family

QUICK = {
    "haar-identities": {"k_max": 4, "grid_level": 6},
    "swap-involution": {"h_max": 3},
    "fork-relations": {"h_max": 3},
    "composition-contract": {"h_max": 3, "k_max": 4},
    "fork-split-compression": {"n": 3},
    "rewrite-invariance": {"trials": 15, "n": 4},
    "fill-combinatorics": {"n_max": 3},
    "partition-bounds": {"trials": 15},
    "greedy-cover": {"trials": 15},
    "norm-identities": {"trials": 15},
    "estimator-oracles": {"restarts": 2, "iterations": 30},
    "comparison-residuals": {"trials": 1},
}


# ---------------------------------------------------------------------------
# config and report plumbing


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(optimizer_tolerance=-1.0)
    with pytest.raises(DomainError):
        ExperimentConfig(max_level=0)
    with pytest.raises(DomainError):
        ExperimentConfig(max_level=21)
    with pytest.raises(DomainError):
        ExperimentConfig(restarts=0)
    with pytest.raises(DomainError, match="seed"):
        ExperimentConfig(seed=-1)
    as_dict = ExperimentConfig(seed=5).as_dict()
    assert as_dict["tolerances"] == {"quadrature": 1e-9, "optimizer": 2e-2}
    assert as_dict["budgets"] == {"restarts": 8, "iterations": 60}


def test_report_exit_codes_follow_asserted_checks():
    report = ExperimentReport(name="x", parameters={})
    assert report.passed() and report.exit_code() == 0
    report.checks.append({"name": "info", "passed": False, "asserted": False})
    assert report.exit_code() == 0  # unasserted failures are informational
    report.checks.append({"name": "hard", "passed": False, "asserted": True})
    assert report.exit_code() == 1


def test_report_json_carries_schema_version():
    report = ExperimentReport(name="x", parameters={"a": 1})
    doc = report.to_json_dict()
    assert doc["schemaVersion"] == 3
    assert doc["name"] == "x"


# ---------------------------------------------------------------------------
# verify runner


def test_run_verify_passes_and_reports_every_suite():
    report = run_verify(ExperimentConfig(seed=2), scales=QUICK)
    assert report.passed() and report.exit_code() == 0
    assert len(report.rows) == len(report.checks) == 14
    assert all(row["passed"] == 1 for row in report.rows)


def test_run_verify_fault_injection_fails():
    report = run_verify(ExperimentConfig(seed=2), inject_fault=True, scales=QUICK)
    assert not report.passed() and report.exit_code() == 1
    failed = [c["name"] for c in report.checks if not c["passed"]]
    assert failed == ["suite:fork-relations"]


def test_run_verify_fault_injection_keeps_rows_given_in_scales():
    relations = {**QUICK["fork-relations"], "rows": FORK_RELATION_ROWS}
    scales = {**QUICK, "fork-relations": relations}
    report = run_verify(ExperimentConfig(seed=2), inject_fault=True, scales=scales)
    assert report.passed()
    assert scales["fork-relations"] is relations  # the caller's dict is not touched


def test_run_verify_respects_max_level():
    report = run_verify(ExperimentConfig(seed=2, max_level=3), scales=QUICK)
    assert report.passed()


def test_run_verify_parameters_list_only_what_verify_reads():
    report = run_verify(ExperimentConfig(seed=2, max_level=3), inject_fault=True, scales=QUICK)
    doc = report.to_json_dict()
    assert doc["schemaVersion"] == 3
    assert doc["parameters"] == {"seed": 2, "maxLevel": 3, "injectFault": True}


# ---------------------------------------------------------------------------
# weak type sweep


def test_sweep_rows_match_closed_forms():
    report = run_weak_type_sweep(4.0 / 3.0, 10)
    assert len(report.rows) == 10
    row = report.rows[3]  # n = 4
    assert row["n"] == 4
    assert row["tau"] == pytest.approx(diagonal_formula_tau(4, 4.0 / 3.0), rel=1e-12)
    assert row["tauP"] == pytest.approx(diagonal_formula_tau_p(4, 4.0 / 3.0), rel=1e-12)
    assert row["weakTypeEnvelope"] == pytest.approx(4.0**0.25, rel=1e-12)
    assert row["ratio"] == pytest.approx(row["tau"] / row["weakTypeEnvelope"], rel=1e-12)
    first = report.rows[0]
    assert first["tau"] == 1.0 and first["tauP"] == 1.0  # n = 1 rows are exactly 1


def test_sweep_log_floor_check_passes():
    report = run_weak_type_sweep(4.0 / 3.0, 2000)
    floor = next(c for c in report.checks if c["name"] == "tau-p-above-log-floor")
    assert floor["passed"]


def test_sweep_envelope_check_is_reported_honestly():
    # the tau column crosses n^(1/p-1/2) already at n = 2, so the asserted
    # envelope check fails and the report exits nonzero
    report = run_weak_type_sweep(4.0 / 3.0, 50)
    envelope = next(
        c for c in report.checks if c["name"] == "tau-below-weak-type-envelope"
    )
    assert not envelope["passed"]
    assert report.exit_code() == 1
    assert report.rows[1]["ratio"] > 1.0


def test_sweep_rejects_bad_exponent():
    with pytest.raises(DomainError):
        run_weak_type_sweep(1.0, 10)
    with pytest.raises(DomainError):
        run_weak_type_sweep(2.0, 10)
    with pytest.raises(DomainError):
        run_weak_type_sweep(1.5, 0)


def test_sweep_csv_bytes_are_reproducible():
    a = run_weak_type_sweep(1.5, 64).to_csv()
    b = run_weak_type_sweep(1.5, 64).to_csv()
    assert a == b
    assert a.splitlines()[0] == "n,tau,weakTypeEnvelope,ratio,tauP,logFloor"


# ---------------------------------------------------------------------------
# comparison experiment


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _compare(op, st) -> list:
    return ["check", "--kind", "comparison", "--operator", op, "--set", st]


def test_comparison_experiment_identity(tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    st = _write(tmp_path / "set.json", {"indexSet": [[1, 1], [2, 1], [3, 1]]})
    assert main(_compare(op, st)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    row = doc["rows"][0]
    assert row["setEstimate"] == pytest.approx(1.0, abs=1e-9)
    assert row["treeEstimate"] == pytest.approx(1.0, abs=1e-9)
    assert row["l2Residual"] < 1e-9 and row["squareSumResidual"] < 1e-9


def test_comparison_experiment_diagonal_inequality(tmp_path, capsys):
    entries = [float(k) ** -0.25 for k in range(1, 5)]
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "norm": "l1", "entries": entries})
    st = _write(tmp_path / "set.json", [[1, 1], [2, 1]])
    assert main(_compare(op, st)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["parameters"]["setSize"] == 2
    assert doc["parameters"]["budgets"] == {"restarts": 8, "iterations": 60}
    row = doc["rows"][0]
    assert row["localHeight"] == 2
    assert row["setEstimate"] <= row["treeEstimate"] * 1.02


def test_comparison_experiment_schema_error_names_field(tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "entries": [1.0]})
    st = _write(tmp_path / "set.json", [[1, 1]])
    assert main(_compare(op, st)) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["type"] == "SchemaError"
    assert record["field"] == "operator.norm"


# ---------------------------------------------------------------------------
# log-variant experiment


def test_log_variant_zero_family_all_zero():
    rep = run_log_variant_experiment(
        4.0 / 3.0, n=4, trials=1, families=[HaarCombination(8, {})]
    )
    assert rep.passed()
    row = rep.rows[0]
    assert row["directNorm"] == 0.0
    assert row["pieceNormSum"] == 0.0
    assert row["certificate"] == 0.0
    assert row["thresholdBase"] == 0.0


# depth-3 covers with m = 1: piece 1 has height budget 2, the final piece 3
_BAD_COVERS = {
    "overlapping pieces": (
        frozenset({(1, 1), (2, 1), (2, 2)}),
        frozenset({(2, 2), (3, 1), (3, 2), (3, 3), (3, 4)}),
    ),
    "missing tree index": (
        frozenset({(1, 1), (2, 1), (2, 2)}),
        frozenset({(3, 1), (3, 2), (3, 3)}),
    ),
    "piece over its height budget": (
        frozenset({(1, 1), (2, 1), (3, 1)}),
        frozenset({(2, 2), (3, 2), (3, 3), (3, 4)}),
    ),
}


@pytest.mark.parametrize("case", list(_BAD_COVERS))
def test_log_variant_flags_a_bad_cover(case, monkeypatch):
    f = HaarCombination(4, {(1, 1): [1.0, 0.0, 0.0, 0.0]})
    rep = run_log_variant_experiment(4.0 / 3.0, n=3, trials=1, families=[f])
    assert rep.rows[0]["coverOk"] == 1 and rep.checks[0]["passed"]

    real = experiments._greedy_cover

    def bad_cover(*args):
        _pieces, m, base, padded = real(*args)
        assert m == 1
        pieces = tuple(frozenset(heap_id(*idx) for idx in p) for p in _BAD_COVERS[case])
        return pieces, m, base, padded

    monkeypatch.setattr(experiments, "_greedy_cover", bad_cover)
    rep = run_log_variant_experiment(4.0 / 3.0, n=3, trials=1, families=[f])
    assert rep.rows[0]["coverOk"] == 0
    assert rep.checks[0]["name"] == "cover-contracts" and not rep.checks[0]["passed"]
    assert not rep.passed()


def test_log_variant_single_index_collapses_to_one_term():
    f = HaarCombination(8, {(1, 1): [1.0] + [0.0] * 7})
    rep = run_log_variant_experiment(4.0 / 3.0, n=4, trials=1, families=[f])
    assert rep.passed()
    row = rep.rows[0]
    assert row["pieceNormSum"] == pytest.approx(row["directNorm"], rel=1e-9)
    assert row["directNorm"] == pytest.approx(1.0, rel=1e-12)


def test_log_variant_random_trials_pass_and_merge_in_order():
    cfg = ExperimentConfig(seed=11)
    rep = run_log_variant_experiment(4.0 / 3.0, n=6, trials=8, config=cfg)
    assert rep.passed()
    assert [row["trial"] for row in rep.rows] == list(range(8))
    assert all(row["coverOk"] == 1 and row["bounded"] == 1 for row in rep.rows)


def test_log_variant_rows_match_the_public_greedy_path(monkeypatch):
    cfg = ExperimentConfig(seed=4)
    got = run_log_variant_experiment(4.0 / 3.0, n=8, trials=12, config=cfg)
    def reference_cover(*args):
        family = reference_greedy_family(*args)
        pieces = tuple(frozenset(heap_id(*idx) for idx in p) for p in family.pieces)
        return pieces, family.m, family.threshold_base, family.padded

    monkeypatch.setattr(experiments, "_greedy_cover", reference_cover)
    want = run_log_variant_experiment(4.0 / 3.0, n=8, trials=12, config=cfg)
    assert got.to_csv() == want.to_csv()
    assert got.parameters == want.parameters


@pytest.mark.parametrize("replacement", [None, HaarIndex(5, 1)])
def test_log_variant_cover_check_sees_an_index_off_the_tree(monkeypatch, replacement):
    """A cover missing one index of the depth-4 tree, or holding a level-5
    index in its place, is not a cover."""
    greedy = experiments._greedy_cover

    def broken(f, n, p, space=None):
        pieces, *rest = greedy(f, n, p, space)
        l = next(l for l, piece in enumerate(pieces) if piece)
        piece = set(pieces[l])
        piece.remove(min(piece))
        if replacement is not None:
            piece.add(heap_id(*replacement))
        return (pieces[:l] + (frozenset(piece),) + pieces[l + 1 :], *rest)

    monkeypatch.setattr(experiments, "_greedy_cover", broken)
    f = HaarCombination(8, {(1, 1): [1.0] + [0.0] * 7, (3, 2): [0.5] * 8})
    rep = run_log_variant_experiment(4.0 / 3.0, n=4, trials=1, families=[f])
    assert rep.rows[0]["coverOk"] == 0
    assert not rep.passed()


def test_log_variant_rejects_bad_exponent():
    with pytest.raises(DomainError):
        run_log_variant_experiment(2.0, n=4, trials=1)
    with pytest.raises(DomainError):
        run_log_variant_experiment(0.5, n=4, trials=1)


# ---------------------------------------------------------------------------
# command line


def test_cli_lh_round_trip(tmp_path, capsys):
    st = _write(tmp_path / "set.json", [[1, 1], [2, 2], [3, 4]])
    assert main(["lh", "--set", st]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["localHeight"] == 3
    assert doc["schemaVersion"] == 3


def test_cli_compress_csv_and_output_file(tmp_path, capsys):
    st = _write(tmp_path / "set.json", [[1, 1], [3, 2]])
    out = tmp_path / "trace.csv"
    assert main(["compress", "--set", st, "--format", "csv", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.splitlines()[0] == "step,h,i"
    assert len(text.splitlines()) >= 2


def test_cli_fill_reports_contract_checks(tmp_path, capsys):
    st = _write(tmp_path / "set.json", [[1, 1], [2, 1]])
    assert main(["fill", "--set", st, "--height", "2", "--depth", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["passed"] for c in doc["checks"])
    assert doc["parameters"]["initialSize"] == 2
    assert len(doc["rows"]) == 1  # 2^2 - 1 - 2


def test_cli_tau_writes_witness(tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    st = _write(tmp_path / "set.json", [[1, 1], [2, 2]])
    wit = tmp_path / "wit.json"
    assert main(["tau", "--operator", op, "--set", st, "--witness", str(wit)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["lowerBound"] == pytest.approx(1.0, abs=1e-9)
    witness = json.loads(wit.read_text())
    square = sum(sum(c * c for c in e["x"]) for e in witness["entries"])
    assert square == pytest.approx(1.0, rel=1e-9)  # witness is normalized


def test_cli_exit_codes(tmp_path, capsys):
    # 2: unreadable input with a machine-readable record
    assert main(["lh", "--set", str(tmp_path / "missing.json")]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "SchemaError"
    # 2: schema violation names the field
    st = _write(tmp_path / "set.json", [[2, 9]])
    assert main(["lh", "--set", st]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["field"] == "indexSet[0]"
    # 2: a pair given twice in an index set, named at its second position
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    st = _write(tmp_path / "twice.json", [[1, 1], [2, 1], [1, 1]])
    for argv in (["lh", "--set", st], ["tau", "--operator", op, "--set", st]):
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().out)["error"]
        assert (record["type"], record["field"]) == ("SchemaError", "indexSet[2]")
    # 1: honest assertion failure inside a report
    assert (
        main(["sweep-weak-type", "--p", "1.3333333333333333", "--n-max", "4"]) == 1
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    # 0: passing report (only the n = 1 row keeps the envelope ratio at 1)
    assert main(["sweep-weak-type", "--p", "1.5", "--n-max", "1"]) == 0
    capsys.readouterr()


def test_cli_negative_seed_and_huge_operator_exit_2(tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "dense", "rows": [[1.0, 2.0], [3.0, 4.0]]})
    st = _write(tmp_path / "set.json", [[1, 1], [2, 1]])
    for argv in (
        ["verify", "--seed", "-1", "--max-level", "2"],
        ["tau", "--operator", op, "--set", st, "--seed", "-1"],
    ):
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().out)["error"]
        assert record["type"] == "DomainError" and "seed" in record["message"]
    huge = _write(tmp_path / "huge.json", {"kind": "identity", "dim": 100_000_000, "norm": "l2"})
    assert main(["tau", "--operator", huge, "--set", st]) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert (record["type"], record["field"]) == ("SchemaError", "operator.dim")


def test_cli_option_errors_exit_2_and_name_the_option(tmp_path, capsys):
    """Budgets are bounded (1..10,000 restarts, 1..100,000 iterations) and
    checked before any array is built: 10^8 restarts used to escape as a
    numpy memory error with exit 1."""
    ExperimentConfig(restarts=10_000, iterations=100_000)  # the bounds themselves are budgets
    op = _write(tmp_path / "op.json", {"kind": "dense", "rows": [[1.0, 2.0], [3.0, 4.0]]})
    st = _write(tmp_path / "set.json", [[1, 1], [2, 1]])
    tau = ["tau", "--operator", op, "--set", st]
    tau_p = ["tau-p", "--operator", op, "--depth", "2", "--p", "1.5"]
    comparison = ["check", "--kind", "comparison", "--operator", op, "--set", st]
    for argv, option in (
        ([*tau, "--restarts", "100000000", "--iters", "1"], "restarts"),
        ([*tau, "--restarts", "0"], "restarts"),
        ([*tau, "--iters", "100001"], "iters"),
        ([*tau_p, "--restarts", "10001"], "restarts"),
        ([*comparison, "--iters", "0"], "iters"),
        (["fill", "--set", st, "--height", "99", "--depth", "3"], "height"),
        (["fill", "--set", st, "--height", "2", "--depth", "99"], "depth"),
        (["fill", "--set", st, "--height", "2", "--depth", "0"], "depth"),
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        record = json.loads(out)["error"]
        assert (record["type"], record["field"]) == ("DomainError", option), argv
        assert record["message"].startswith(f"{option}: ") and err == "", argv


def test_cli_verify_inject_fault_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify",
            "--inject-fault",
            "--max-level",
            "4",
            "--output",
            str(out),
        ]
    )
    assert code == 1
    doc = json.loads(out.read_text())
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["suite:fork-relations"]
    capsys.readouterr()


# the battery at --max-level 3 --seed 7: every suite's check count, pinned so
# that no scale of a suite can change unseen
VERIFY_LEVEL_3_SEED_7 = """suite,passed,checked,failures,sample
haar-identities,1,28,0,
orthonormality,1,28,0,
branch-structure,1,8,0,
swap-involution,1,24,0,
fork-relations,1,3,0,
composition-contract,1,12,0,
fork-split-compression,1,16,0,
rewrite-invariance,1,752,0,
fill-combinatorics,1,166,0,
partition-bounds,1,3000,0,
greedy-cover,1,200,0,
norm-identities,1,500,0,
estimator-oracles,1,11,0,
comparison-residuals,1,3,0,
"""


# the battery at the bench scale, --max-level 4 --seed 3
VERIFY_LEVEL_4_SEED_3 = """suite,passed,checked,failures,sample
haar-identities,1,170,0,
orthonormality,1,120,0,
branch-structure,1,16,0,
swap-involution,1,104,0,
fork-relations,1,7,0,
composition-contract,1,84,0,
fork-split-compression,1,431,0,
rewrite-invariance,1,1386,0,
fill-combinatorics,1,42520,0,
partition-bounds,1,3000,0,
greedy-cover,1,200,0,
norm-identities,1,500,0,
estimator-oracles,1,11,0,
comparison-residuals,1,3,0,
"""


def test_cli_verify_csv_at_the_bench_scale_is_pinned(capsys):
    assert main(["verify", "--max-level", "4", "--seed", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out == VERIFY_LEVEL_4_SEED_3


def test_cli_log_variant_csv_is_pinned(capsys):
    # every drawn family shows in the rows' norms, so the hash pins the draws
    argv = ["experiment-log-variant", "--p", "1.3333333333333333", "--depth", "4"]
    assert main([*argv, "--trials", "8", "--seed", "3", "--format", "csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "68259ab049de794e7d4860c9552c6b5551c90223e9c610095d162a6d5846f5c8"


def test_cli_verify_csv_is_pinned(capsys):
    argv = ["verify", "--max-level", "3", "--seed", "7", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == VERIFY_LEVEL_3_SEED_7
    assert main([*argv, "--inject-fault"]) == 1
    faulty = VERIFY_LEVEL_3_SEED_7.replace(
        "fork-relations,1,3,0,\n",
        "fork-relations,0,3,3,\"relations fail at fork (1,1); "
        "relations fail at fork (2,1); relations fail at fork (2,2)\"\n",
    )
    assert capsys.readouterr().out == faulty


@pytest.mark.parametrize("n_max", [10**6 + 1, 10**15])
def test_cli_sweep_length_is_bounded_before_any_array(n_max, capsys):
    argv = ["sweep-weak-type", "--p", "1.5", "--n-max", str(n_max)]
    codes = []
    peak = peak_traced_bytes(lambda: codes.append(main(argv)))
    record = json.loads(capsys.readouterr().out)["error"]
    assert codes == [2]
    assert (record["type"], record["field"]) == ("DomainError", "n-max")
    assert peak < 1 << 20  # the first n_max floats alone would take 8 MB


@pytest.mark.parametrize("trials", [100_001, 10**12])
def test_cli_log_variant_trials_are_bounded_before_any_estimate(trials, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_tau_estimate", lambda *args: calls.append("estimate"))
    monkeypatch.setattr(experiments, "_random_family", lambda *args: calls.append("family"))
    argv = ["experiment-log-variant", "--p", "1.5", "--depth", "2", "--trials", str(trials)]
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    record = json.loads(capsys.readouterr().out)["error"]
    assert (record["type"], record["field"]) == ("DomainError", "trials")
    assert calls == []


def test_cli_sweep_csv_deterministic(capsys):
    assert main(["sweep-weak-type", "--p", "1.5", "--n-max", "32", "--format", "csv"]) == 1
    first = capsys.readouterr().out
    assert main(["sweep-weak-type", "--p", "1.5", "--n-max", "32", "--format", "csv"]) == 1
    assert capsys.readouterr().out == first


def test_cli_check_monotonicity(tmp_path, capsys):
    entries = [float(k) ** -0.25 for k in range(1, 9)]
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "norm": "l1", "entries": entries})
    code = main(
        ["check", "--kind", "monotonicity", "--operator", op, "--m", "1", "--depth", "3"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    bands = {row["band"]: row["lowerBound"] for row in doc["rows"]}
    assert bands["squeezedBand"] == pytest.approx(bands["tree"], rel=2e-2)


def test_cli_check_triangle(tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    comb = _write(
        tmp_path / "comb.json",
        {
            "dim": 2,
            "entries": [
                {"k": 1, "j": 1, "x": [1.0, 0.0]},
                {"k": 2, "j": 2, "x": [0.3, 0.4]},
                {"k": 3, "j": 3, "x": [0.0, 0.05]},
            ],
        },
    )
    code = main(["check", "--kind", "triangle", "--operator", op, "--combination", comb])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["rows"][0]
    assert row["directNorm"] <= row["pieceNormSum"] + 1e-9


def test_cli_rejects_out_of_range_max_level(capsys):
    assert main(["verify", "--max-level", "99"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "DomainError"


def test_config_max_level_is_checked_against_the_configured_level_cap(monkeypatch, capsys):
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "24")
    assert ExperimentConfig(max_level=22).level_limit() == 22
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "3")
    assert ExperimentConfig(max_level=3).level_limit() == 3
    with pytest.raises(DomainError) as err:
        ExperimentConfig(max_level=10)
    assert str(err.value) == (
        "max-level: max_level must lie in 1..3 (the HAARLAB_MAX_LEVEL cap), got 10"
    )
    assert main(["verify", "--max-level", "10"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "DomainError"


TAU_P = ["tau-p", "--operator", "OP", "--depth", "3", "--p", "1.5"]
MONOTONICITY = ["check", "--kind", "monotonicity", "--operator", "OP"]
TRIANGLE = ["check", "--kind", "triangle", "--operator", "OP", "--combination", "COMB"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["verify", "--seed", "-1", "--max-level", "2"], "seed"),
        (["verify", "--max-level", "0"], "max-level"),
        (["experiment-log-variant", "--p", "1.5", "--tol-opt", "0"], "tol-opt"),
        ([*TAU_P, "--depth", "0"], "depth"),
        ([*TAU_P, "--p", "3"], "p"),
        (["sweep-weak-type", "--p", "2.5"], "p"),
        (["sweep-weak-type", "--p", "1.5", "--n-max", "0"], "n-max"),
        (["experiment-log-variant", "--p", "2.5"], "p"),
        (["experiment-log-variant", "--p", "1.5", "--depth", "0"], "depth"),
        (["experiment-log-variant", "--p", "1.5", "--trials", "0"], "trials"),
        # tree height 32: refused before any tree estimate
        (["experiment-log-variant", "--p", "1.5", "--depth", "16"], "depth"),
        ([*MONOTONICITY, "--m", "0"], "m"),
        ([*MONOTONICITY, "--m", "2", "--depth", "1"], "depth"),
        # the combination has an index at level 3
        (["partition", "--combination", "COMB", "--depth", "1"], "depth"),
        (["partition", "--combination", "COMB", "--depth", "3", "--exponent", "3"], "exponent"),
        ([*TRIANGLE, "--exponent", "3"], "exponent"),
    ],
)
def test_cli_config_errors_name_their_option(argv, field, tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "norm": "l1", "entries": [1.0, 0.5]})
    entries = [{"k": 1, "j": 1, "x": [1.0, 0.0]}, {"k": 3, "j": 2, "x": [0.5, 0.25]}]
    comb = _write(tmp_path / "comb.json", {"dim": 2, "entries": entries})
    assert main([{"OP": op, "COMB": comb}.get(arg, arg) for arg in argv]) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert (record["type"], record["field"]) == ("DomainError", field)
    assert record["message"].startswith(f"{field}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--operator", "OP", "--set", "SET"],
        ["check", "--kind", "comparison", "--operator", "OP", "--set", "SET"],
        ["compress", "--set", "SET"],
    ],
)
def test_cli_empty_index_set_names_its_field(argv, tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "norm": "l1", "entries": [1.0, 0.5]})
    st = _write(tmp_path / "set.json", [])
    assert main([{"OP": op, "SET": st}.get(arg, arg) for arg in argv]) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert (record["type"], record["field"]) == ("DomainError", "indexSet")
    assert record["message"].startswith("indexSet: ")


def test_cli_zero_operators_give_zero_bounds(tmp_path, capsys):
    # a zero diagonal has no level-constant candidate, and the top singular
    # vector of a zero matrix is the first basis vector
    diag = _write(tmp_path / "diag.json", {"kind": "diagonal", "norm": "l1", "entries": [0, 0, 0]})
    argv = ["tau-p", "--operator", diag, "--depth", "3", "--p", "1.5", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "3,1.5,0.0,coordinate-aligned,8,60"
    dense = _write(tmp_path / "dense.json", {"kind": "dense", "rows": [[0, 0], [0, 0]]})
    st = _write(tmp_path / "set.json", [[1, 1], [2, 1]])
    assert main(["tau", "--operator", dense, "--set", st, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2,0.0,power-iteration,1,1"


def test_cli_tau_rejects_nan_operator_entry(tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text('{"kind":"diagonal","norm":"l1","entries":[1.0,NaN,0.5]}')
    st = _write(tmp_path / "set.json", [[1, 1], [2, 1], [2, 2]])
    assert main(["tau", "--operator", str(op), "--set", st]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "SchemaError"
    assert record["error"]["field"] == "operator.entries[1]"


@pytest.mark.parametrize(
    "norm, indices",
    [
        ("linf", [[1, 1], [2, 1], [2, 2]]),  # printed lowerBound inf with exit 0
        ("l1", [[1, 1]]),  # died with an OverflowError traceback
        ("l2", [[1, 1]]),  # died with an AttributeError traceback
    ],
)
def test_cli_tau_rejects_overflowing_operator(tmp_path, capfd, norm, indices):
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "norm": norm, "entries": [1e308, 1.0]})
    st = _write(tmp_path / "set.json", indices)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tau", "--operator", op, "--set", st, "--format", "csv"])
    assert code == 2
    out, err = capfd.readouterr()
    record = json.loads(out)
    assert record["error"]["type"] == "DomainError"
    assert "overflows float arithmetic" in record["error"]["message"]
    # rejected before the search, and silently: pytest records warnings
    # instead of printing them, so both channels are checked
    assert err == ""
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_cli_tau_p_rejects_overflowing_operator(tmp_path, capfd, norm):
    op = _write(tmp_path / "op.json", {"kind": "diagonal", "norm": norm, "entries": [1e308, 1.0]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tau-p", "--operator", op, "--depth", "2", "--p", "1.5"])
    assert code == 2
    out, err = capfd.readouterr()
    record = json.loads(out)
    assert record["error"]["type"] == "DomainError"
    assert err == ""
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# usage errors and unwritable paths


def test_cli_usage_errors_print_the_error_record(tmp_path, capsys):
    assert main(["lh"]) == 2  # no --set
    out, err = capsys.readouterr()
    record = json.loads(out)["error"]
    assert record["type"] == "UsageError"
    assert "--set" in record["message"]
    assert err.startswith("usage: haarlab lh")
    assert main(["no-such-command"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "UsageError"
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    for kind, option in (("comparison", "--set"), ("triangle", "--combination")):
        assert main(["check", "--kind", kind, "--operator", op]) == 2
        record = json.loads(capsys.readouterr().out)["error"]
        assert record["type"] == "UsageError"
        assert record["message"] == f"check --kind {kind} requires {option}"


def test_cli_unexpected_exception_prints_the_error_record_and_exits_3(monkeypatch, capfd):
    def broken(args):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(cli, "_cmd_lh", broken)
    assert main(["lh", "--set", "unread.json"]) == 3
    out, err = capfd.readouterr()
    record = {"error": {"type": "RuntimeError", "message": "planted fault", "field": None}}
    assert json.loads(out) == record
    assert err == ""  # no traceback


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."])
@pytest.mark.parametrize("option", ["output", "witness"])
def test_cli_unwritable_path_is_an_input_error(tmp_path, capfd, option, target):
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    st = _write(tmp_path / "set.json", [[1, 1], [2, 2]])
    path = str(tmp_path / target)  # a missing directory, or a directory
    argv = ["lh", "--set", st] if option == "output" else ["tau", "--operator", op, "--set", st]
    assert main([*argv, f"--{option}", path]) == 2
    out, err = capfd.readouterr()
    record = json.loads(out)["error"]
    assert record["type"] == "SchemaError"
    assert record["field"] == option
    assert err == ""


# ---------------------------------------------------------------------------
# one check-row shape


def test_every_check_row_has_the_one_shape(tmp_path, capsys):
    op = _write(tmp_path / "op.json", {"kind": "identity", "dim": 2, "norm": "l2"})
    st = _write(tmp_path / "set.json", [[1, 1], [3, 2]])
    comb = _write(
        tmp_path / "comb.json",
        {
            "dim": 2,
            "entries": [{"k": 1, "j": 1, "x": [1.0, 0.0]}, {"k": 2, "j": 2, "x": [0.3, 0.4]}],
        },
    )
    runs = [
        ["verify", "--max-level", "3"],
        ["sweep-weak-type", "--p", "1.5", "--n-max", "8"],
        ["fill", "--set", st, "--height", "3", "--depth", "3"],
        ["partition", "--combination", comb, "--depth", "2"],
        ["compress", "--set", st],
        ["check", "--kind", "comparison", "--operator", op, "--set", st],
        ["check", "--kind", "monotonicity", "--operator", op, "--depth", "3"],
        ["check", "--kind", "triangle", "--operator", op, "--combination", comb],
    ]
    for argv in runs:
        assert main(argv) in (0, 1)
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks, argv
        for check in checks:
            assert set(check) - {"detail"} == {"name", "passed", "asserted"}
            assert isinstance(check["passed"], bool) and isinstance(check["asserted"], bool)
            assert check.get("detail") != {}  # an empty detail is left out


def test_cli_compress_reports_its_trace(tmp_path, capsys):
    st = _write(tmp_path / "set.json", [[1, 1], [3, 2], [3, 3]])
    assert main(["compress", "--set", st]) == 0
    doc = json.loads(capsys.readouterr().out)
    trace = compress({(1, 1), (3, 2), (3, 3)})
    assert doc["parameters"]["trace"] == {
        "m": trace.m,
        "initial": [[k, j] for k, j in sorted(trace.initial_set)],
        "steps": [[h, i] for h, i in trace.steps],
        "final": [[k, j] for k, j in sorted(trace.final_set)],
    }
    assert [[row["h"], row["i"]] for row in doc["rows"]] == doc["parameters"]["trace"]["steps"]


# ---------------------------------------------------------------------------
# README and parser agree; every knob a subcommand takes is one it reads

README = Path(__file__).resolve().parent.parent / "README.md"

# the shared knobs each subcommand reads, besides --output and --format
SHARED = {
    "verify": {"--seed", "--max-level"},
    "compress": set(),
    "lh": set(),
    "fill": set(),
    "partition": set(),
    "tau": {"--seed", "--restarts", "--iters"},
    "tau-p": {"--seed", "--restarts", "--iters"},
    "check": {"--seed", "--restarts", "--iters", "--tol-opt"},
    "sweep-weak-type": set(),
    "experiment-log-variant": {"--seed", "--restarts", "--iters", "--tol-opt"},
}
KNOB_VALUES = {
    "--seed": "1",
    "--max-level": "1",
    "--restarts": "1",
    "--iters": "1",
    "--tol-opt": "0.1",
    "--workers": "1",
}
BASE_ARGV = {
    "verify": [],
    "compress": ["--set", "set.json"],
    "lh": ["--set", "set.json"],
    "fill": ["--set", "set.json", "--height", "2", "--depth", "3"],
    "partition": ["--combination", "comb.json", "--depth", "3"],
    "tau": ["--operator", "op.json", "--set", "set.json"],
    "tau-p": ["--operator", "op.json", "--depth", "2", "--p", "1.5"],
    "check": ["--kind", "monotonicity", "--operator", "op.json"],
    "sweep-weak-type": ["--p", "1.5"],
    "experiment-log-variant": ["--p", "1.5"],
}
REMOVED = [
    (command, knob) for command in SHARED for knob in KNOB_VALUES if knob not in SHARED[command]
]


def _subparser_options() -> dict[str, set[str]]:
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


def _readme_command_line() -> str:
    return README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_shared_knobs_are_registered_where_they_are_read():
    shared = set(KNOB_VALUES) - {"--workers"} | {"--output", "--format"}
    registered = {name: options & shared for name, options in _subparser_options().items()}
    assert registered == {name: knobs | {"--output", "--format"} for name, knobs in SHARED.items()}
    assert sum(len(knobs) for knobs in registered.values()) == 36


def test_readme_option_table_matches_the_parser():
    table = {}
    for line in _readme_command_line().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            table[cells[0].strip("`")] = set(re.findall(r"--[a-z-]+", cells[1]))
    assert table == _subparser_options()


def test_readme_synopsis_lines_parse():
    block = _readme_command_line().split("```\n", 1)[1].split("```", 1)[0]
    commands = set()
    for line in block.splitlines():
        # placeholders such as N or P stand for numbers; [..] marks an option
        tokens = shlex.split(line.replace("[", " ").replace("]", " "))
        argv = ["2" if len(t) == 1 and t.isupper() else t for t in tokens]
        assert argv[0] == "haarlab"
        args = build_parser().parse_args(argv[1:])
        commands.add(args.command)
    assert commands == set(SHARED)


@pytest.mark.parametrize("command, knob", REMOVED)
def test_removed_knobs_are_usage_errors(command, knob, capsys):
    assert main([command, *BASE_ARGV[command], knob, KNOB_VALUES[knob]]) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["type"] == "UsageError"
    assert record["message"] == f"unrecognized arguments: {knob} {KNOB_VALUES[knob]}"


# ---------------------------------------------------------------------------
# one timer; each check kind takes only the options it reads

# the options each check kind reads besides --kind and --operator, with values
OPTIMIZER = {"--seed": "1", "--restarts": "2", "--iters": "5", "--tol-opt": "0.1"}
CHECK_READS = {
    "comparison": {"--set": "set.json", **OPTIMIZER},
    "monotonicity": {"--m": "1", "--depth": "2", **OPTIMIZER},
    "triangle": {"--combination": "comb.json", "--exponent": "1.5"},
}
CHECK_REQUIRED = {
    "comparison": ["--set", "set.json"],
    "monotonicity": [],
    "triangle": ["--combination", "comb.json"],
}
CHECK_VALUES = {flag: value for reads in CHECK_READS.values() for flag, value in reads.items()}
UNREAD = [
    (kind, flag) for kind, reads in CHECK_READS.items() for flag in CHECK_VALUES if flag not in reads
]


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "op.json", {"kind": "diagonal", "norm": "l1", "entries": [1.0, 0.5]})
    _write(tmp_path / "set.json", [[1, 1], [2, 2]])
    entries = [{"k": 1, "j": 1, "x": [1.0, 0.0]}, {"k": 2, "j": 2, "x": [0.3, 0.4]}]
    _write(tmp_path / "comb.json", {"dim": 2, "entries": entries})


def _check_argv(kind: str, *extra: str) -> list[str]:
    return ["check", "--kind", kind, "--operator", "op.json", *extra]


def _flat(options: dict) -> list[str]:
    return [token for pair in options.items() for token in pair]


def test_every_command_reports_its_wall_time(inputs, capsys):
    runs = [
        ["verify", "--max-level", "1"],
        ["compress", "--set", "set.json"],
        ["lh", "--set", "set.json"],
        ["fill", "--set", "set.json", "--height", "2", "--depth", "2"],
        ["partition", "--combination", "comb.json", "--depth", "2"],
        ["tau", "--operator", "op.json", "--set", "set.json", "--restarts", "1"],
        ["tau-p", "--operator", "op.json", "--depth", "2", "--p", "1.5", "--restarts", "1"],
        *(_check_argv(kind, *_flat(reads)) for kind, reads in CHECK_READS.items()),
        ["sweep-weak-type", "--p", "1.5", "--n-max", "8"],
        ["experiment-log-variant", "--p", "1.5", "--depth", "2", "--trials", "1"],
    ]
    assert {argv[0] for argv in runs} == set(SHARED)
    for argv in runs:
        assert main(argv) in (0, 1), argv
        assert json.loads(capsys.readouterr().out)["wallTime"] > 0.0, argv
    # a report built through the library was not timed by the CLI
    assert run_weak_type_sweep(1.5, 8).wall_time == 0.0


@pytest.mark.parametrize("kind, flag", UNREAD)
def test_check_rejects_an_option_its_kind_does_not_read(inputs, capsys, kind, flag):
    argv = _check_argv(kind, *CHECK_REQUIRED[kind], flag, CHECK_VALUES[flag])
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["type"] == "UsageError"
    assert record["message"] == f"check --kind {kind} does not read {flag}"


def test_check_defaults_equal_the_options_spelled_out(inputs, capsys):
    defaults = {"--seed": "0", "--restarts": "8", "--iters": "60", "--tol-opt": "0.02"}
    spelled = {
        "comparison": defaults,
        "monotonicity": {"--m": "1", "--depth": "3", **defaults},
        "triangle": {"--exponent": "2.0"},
    }
    for kind, options in spelled.items():
        docs = []
        required = CHECK_REQUIRED[kind]
        for argv in (_check_argv(kind, *required), _check_argv(kind, *required, *_flat(options))):
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("wallTime")
            docs.append(doc)
        assert docs[0] == docs[1], kind
