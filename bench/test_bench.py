"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest -q bench

The oracles are tested on cases small enough to work out by hand; each
output check is tested on a correct output (it must pass) and on a
corrupted one (it must fail).
"""

import math

import numpy as np
import pytest

import oracles
import run
import workloads

run.use_checkout_sources()
haarlab = run.fresh_import()

P = 4.0 / 3.0
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize(
    "indices, height",
    [
        ([], 0),
        ([(1, 1)], 1),
        ([(2, 1), (2, 2)], 1),  # disjoint supports
        ([(1, 1), (2, 1), (2, 2)], 2),
        ([(1, 1), (2, 2), (3, 4)], 3),  # one chain [0,1) > [1/2,1) > [3/4,1)
        ([(1, 1), (2, 1), (3, 4)], 2),  # (3, 4) lies under (2, 2), not (2, 1)
        ([(3, 1), (3, 2), (3, 3)], 1),
    ],
)
def test_brute_local_height(indices, height):
    assert oracles.brute_local_height(indices) == height


def test_subset_local_heights_of_the_depth_two_tree():
    # members (1,1), (2,1), (2,2) are bits 0, 1, 2
    sizes, heights = oracles.subset_local_heights(2)
    assert sizes.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
    assert heights.tolist() == [0, 1, 1, 2, 1, 2, 1, 2]


def test_haar_matrix_values():
    # (2, 1) is +sqrt2 on [0, 1/4), -sqrt2 on [1/4, 1/2), 0 elsewhere
    H = oracles.haar_matrix([(1, 1), (2, 1)], 2)
    assert H[:, 0].tolist() == [1.0, 1.0, -1.0, -1.0]
    assert np.allclose(H[:, 1], [SQRT2, -SQRT2, 0.0, 0.0])


@pytest.mark.parametrize(
    "norm, value",
    [
        # cells: (1,0), (1,0), (-1,sqrt2), (-1,-sqrt2)
        ("l1", math.sqrt((1 + 1 + 2 * (1 + SQRT2) ** 2) / 4)),  # = sqrt(2 + sqrt2)
        ("l2", SQRT2),  # Parseval: 1 + 1
        ("linf", math.sqrt(1.5)),
    ],
)
def test_l2_norm_of_a_two_term_combination(norm, value):
    coefficients = {(1, 1): [1.0, 0.0], (2, 2): [0.0, 1.0]}
    assert oracles.lp_norm(coefficients, norm) == pytest.approx(value, rel=1e-14)


def test_l1_norm_of_one_haar_function():
    # |h_(2,1)| = sqrt2 on a set of measure 1/2
    assert oracles.lp_norm({(2, 1): [1.0]}, "l2", 1.0) == pytest.approx(SQRT2 / 2, rel=1e-14)


def test_tau_parts_of_a_single_index():
    # T = diag(3, 4) from l1 to l1 on x = (1, 1) at the root: |Tx|_1 = 7, |x|_1 = 2
    num, den = oracles.tau_parts({(1, 1): [1.0, 1.0]}, np.diag([3.0, 4.0]), "l1", "l1")
    assert (num, den) == (7.0, 2.0)


def test_tau_p_parts_weights_levels():
    # level 3 carries weight 2^(2 (p/2 - 1)); at p = 1 that is 1/2
    num, den = oracles.tau_p_parts({(3, 1): [1.0]}, np.eye(1), "l2", "l2", 1.0)
    assert den == pytest.approx(0.5, rel=1e-14)
    assert num == pytest.approx(0.5, rel=1e-14)  # 2 on a set of measure 1/4


@pytest.mark.parametrize(
    "domain, codomain, value",
    [
        ("l1", "l1", 6.0),  # largest column sum |2| + |4|
        ("l1", "l2", math.sqrt(20.0)),
        ("linf", "l1", 10.0),  # signs (1, 1): (3, 7)
        ("l2", "l1", math.sqrt(52.0)),  # signs (1, 1): T^T e = (4, 6)
        ("l2", "l2", math.sqrt(15.0 + math.sqrt(221.0))),  # eigenvalues of T^T T
        ("l2", "linf", 5.0),  # row (3, 4)
    ],
)
def test_operator_norms(domain, codomain, value):
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert oracles.operator_norm(M, domain, codomain) == pytest.approx(value, rel=1e-12)


def test_diagonal_closed_forms():
    # p = 4/3 gives p' = 4
    assert oracles.diagonal_tau(1, P) == pytest.approx(1.0, rel=1e-15)
    assert oracles.diagonal_tau(2, P) == pytest.approx(math.sqrt(1 + 2**-0.5), rel=1e-15)
    assert oracles.diagonal_tau_p(2, P) == pytest.approx(1.5**0.25, rel=1e-15)
    assert oracles.diagonal_entries(3, P) == pytest.approx([1.0, 2**-0.25, 3**-0.25], rel=1e-15)


# ---------------------------------------------------------------------------
# derived verify counts


def test_fork_split_count_on_the_depth_two_tree():
    # seven compressions; splits: {a} {b} {c} {a,b} {a,c} one each, {b,c} and
    # {a,b,c} two each, where a = (1,1) and b, c are its successors
    counts = workloads.expected_verify_counts(3)
    assert counts["fork-split-compression"] == 7 + 9


def test_orthonormality_and_branch_counts():
    counts = workloads.expected_verify_counts(2)
    assert counts["orthonormality"] == 6  # pairs a <= b of three members
    assert counts["branch-structure"] == 4
    assert counts["fork-relations"] == 1


# ---------------------------------------------------------------------------
# the checks reject corrupted outputs

SMALL = {
    "rewrite-invariance": {"trials": 5},
    "fill-combinatorics": {"n_max": 2},
    "partition-bounds": {"trials": 5},
    "greedy-cover": {"trials": 5},
    "norm-identities": {"trials": 5},
    "estimator-oracles": {"restarts": 1, "iterations": 5},
    "comparison-residuals": {"trials": 1},
}


def _verify(inject_fault: bool) -> list[str]:
    config = haarlab.ExperimentConfig(seed=3, max_level=3)
    report = haarlab.run_verify(config, inject_fault=inject_fault, scales=SMALL)
    expected = workloads.expected_verify_counts(3, SMALL)
    return workloads.check_verify_report(report.to_json_dict(), report.exit_code(), expected)


def test_verify_check_passes_a_clean_battery():
    assert _verify(inject_fault=False) == []


def test_verify_check_rejects_an_injected_fault():
    errors = _verify(inject_fault=True)
    assert any("fork-relations failed" in e for e in errors)
    assert any("exited 1" in e for e in errors)


def test_verify_check_rejects_skipped_work():
    config = haarlab.ExperimentConfig(seed=3, max_level=3)
    report = haarlab.run_verify(config, scales=SMALL).to_json_dict()
    report["rows"][6]["checked"] -= 1  # fork-split-compression
    expected = workloads.expected_verify_counts(3, SMALL)
    errors = workloads.check_verify_report(report, 0, expected)
    assert errors == [f"suite fork-split-compression checked 15, scale requires 16"]


def _diagonal_estimate():
    sigma = oracles.diagonal_entries(4, P)
    inst = workloads.TauInstance(
        "diag tree 2", haarlab.OperatorSpec.diagonal(sigma, haarlab.Norm.L1), np.diag(sigma),
        "l1", "l1", indices=[(1, 1), (2, 1), (2, 2)], floor=0.98,
    )
    inst.reference = oracles.diagonal_tau(2, P)
    est = haarlab.tau_estimate(inst.op, inst.indices, restarts=1, iterations=5)
    witness = {tuple(a): x for a, x in est.best_witness.items()}
    return inst, est.lower_bound, witness


def test_estimate_check_passes_a_true_witness():
    inst, bound, witness = _diagonal_estimate()
    assert workloads.check_estimate(inst, bound, witness) == []


def test_estimate_check_rejects_a_scaled_witness():
    inst, bound, witness = _diagonal_estimate()
    scaled = {a: 1.5 * x for a, x in witness.items()}
    assert workloads.check_estimate(inst, bound, scaled)


def test_estimate_check_rejects_a_bound_above_its_reference():
    inst, bound, witness = _diagonal_estimate()
    inst.reference = 0.99 * bound
    assert any("above reference" in e for e in workloads.check_estimate(inst, bound, witness))


def test_estimate_check_rejects_a_weak_bound():
    inst, bound, witness = _diagonal_estimate()
    inst.reference = 1.05 * bound
    assert any("below 0.98" in e for e in workloads.check_estimate(inst, bound, witness))


def test_estimate_check_rejects_a_non_finite_bound():
    inst, _bound, witness = _diagonal_estimate()
    assert workloads.check_estimate(inst, math.inf, witness)


def _log_variant():
    rng = np.random.default_rng(5)
    dim = 4  # the experiment's dimension at depth 2
    plain = [{(1, 1): rng.standard_normal(dim), (2, 2): rng.standard_normal(dim)} for _ in range(3)]
    families = [haarlab.HaarCombination(dim, c) for c in plain]
    report = haarlab.run_log_variant_experiment(P, n=2, trials=3, families=families)
    sigma = oracles.diagonal_entries(dim, P)
    direct = [oracles.lp_norm({a: sigma * x for a, x in c.items()}, "l1") for c in plain]
    return report.to_json_dict(), direct


def test_log_variant_check_passes_a_true_report():
    report, direct = _log_variant()
    assert workloads.check_log_variant(report, 3, direct, P) == []


def test_log_variant_check_rejects_a_tree_estimate_above_its_closed_form():
    report, direct = _log_variant()
    report["parameters"]["treeEstimates"][1] *= 1.001
    errors = workloads.check_log_variant(report, 3, direct, P)
    assert len(errors) == 1 and "tree estimate" in errors[0]


def test_log_variant_check_rejects_a_wrong_direct_norm():
    report, direct = _log_variant()
    report["rows"][2]["directNorm"] *= 1 + 1e-6
    errors = workloads.check_log_variant(report, 3, direct, P)
    assert len(errors) == 1 and errors[0].startswith("trial 2")


# ---------------------------------------------------------------------------
# metric names and the tracer


def test_metric_names_match_the_benchmark_file():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = {**run.LAYER_METRICS, **run.suite_metrics(haarlab)}
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)
    assert all(layer_names[m["name"]][2] == m["unit"] for m in spec["per_layer"])
    timing = workloads.Timing()
    timing.ops, timing.rounds = [0.1, 0.2], [0.3]

    class Stub:
        def bound_ratio(self):
            return 1.0

    e2e = run.end_to_end_metrics(Stub(), timing, 0.05)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])


def test_tracer_counts_calls_through_every_importing_module():
    import tracer as tracing

    original = haarlab.normlab.tau_estimate
    tracer = tracing.Tracer()
    tracer.install(haarlab)
    try:
        tracer.active = True
        op = haarlab.OperatorSpec.diagonal([1.0, 0.5], haarlab.Norm.L1)
        haarlab.tau_estimate(op, [(1, 1), (2, 1)], restarts=1, iterations=2)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert haarlab.normlab.tau_estimate is original
    assert tracer.get("normlab.tau_estimate").calls == 1
    # check_level is reached through normlab, dyadic and combination
    assert tracer.get("config.check_level").calls > 0
    assert tracer.get("combination.HaarCombination.__init__").extra["entries"] > 0
    for key, stats in tracer.stats.items():
        assert stats.self_time <= stats.total + 1e-9, key
    # the estimate's span is a root span and its layer calls hang under it
    roots = [s for s in tracer.spans if s[2] == "normlab.tau_estimate"]
    assert len(roots) == 1 and roots[0][1] == 0
    assert any(s[1] == roots[0][0] for s in tracer.spans)
