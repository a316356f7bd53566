"""Norm evaluation, closed forms, and the lower-bound estimators."""

import itertools
import math

import numpy as np
import pytest

from haarlab.combination import HaarCombination
from haarlab.dyadic import dyadic_band, full_tree, heap_ids
from haarlab import normlab
from haarlab.errors import DomainError
from haarlab.normlab import (
    EstimateMethod,
    apply_operator,
    comparison_check,
    conjugate_exponent,
    diagonal_formula_tau,
    diagonal_formula_tau_p,
    diagonal_formula_tau_p_values,
    diagonal_formula_tau_values,
    levelwise_rhs_p,
    lp_norm_of_combination,
    monotonicity_check,
    tau_estimate,
    tau_p_estimate,
    tau_p_ratio,
    tau_ratio,
    triangle_chain_check,
)
from haarlab.spaces import Norm, NormedSpaceSpec, OperatorSpec

from helpers import (
    quadrature_lp,
    random_combination,
    random_exact_height_set,
    reference_cell_values,
    reference_coordinate_patterns,
    reference_level_constant_candidate,
    reference_pattern_gram,
)


def example_diagonal(n: int, p: float, dim: int | None = None) -> OperatorSpec:
    """Diagonal entries k^(-1/p') on l1, truncated to the given dimension."""
    d = dim or n
    sigma = np.arange(1, d + 1, dtype=float) ** (-1.0 / conjugate_exponent(p))
    return OperatorSpec.diagonal(sigma, Norm.L1)


# ---------------------------------------------------------------------------
# lp_norm_of_combination


def test_lp_norm_unit_root():
    f = HaarCombination(2, {(1, 1): [1.0, 0.0]})
    space = NormedSpaceSpec(2, Norm.L1)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_norm_of_combination(f, space, p) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_orthonormality_level_two():
    f = HaarCombination(1, {(2, 1): [1.0]})
    assert lp_norm_of_combination(f, NormedSpaceSpec(1, Norm.L2), 2.0) == pytest.approx(
        1.0, rel=1e-14
    )
    # general p: 2^(1/2 - 1/p) for a unit coefficient on level 2
    for p in (1.0, 4.0 / 3.0, 2.0):
        expected = 2.0 ** (0.5 - 1.0 / p)
        assert lp_norm_of_combination(f, NormedSpaceSpec(1, Norm.L1), p) == pytest.approx(
            expected, rel=1e-14
        )


def test_lp_norm_parseval_two_terms():
    f = HaarCombination(1, {(1, 1): [1.0], (2, 1): [1.0]})
    assert lp_norm_of_combination(f, NormedSpaceSpec(1, Norm.L2), 2.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


def test_lp_norm_matches_quadrature_oracle():
    rng = np.random.default_rng(17)
    space = NormedSpaceSpec(3, Norm.L2)
    for _ in range(30):
        f = random_combination(rng, {(1, 1), (2, 2), (3, 1), (3, 4), (4, 7)}, 3)
        cells = reference_cell_values(f, f.max_level())
        for p in (1.0, 4.0 / 3.0, 2.0):
            assert lp_norm_of_combination(f, space, p) == pytest.approx(
                quadrature_lp(cells, p), rel=1e-12
            )


def test_lp_norm_parseval_random():
    rng = np.random.default_rng(23)
    space = NormedSpaceSpec(4, Norm.L2)
    for _ in range(50):
        f = random_combination(rng, full_tree(4), 4)
        lhs = lp_norm_of_combination(f, space, 2.0)
        rhs = math.sqrt(f.squared_sum(space))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lp_norm_l1_space_constant_function():
    f = HaarCombination(2, {(1, 1): [0.75, -0.5]})
    assert lp_norm_of_combination(f, NormedSpaceSpec(2, Norm.L1), 1.0) == pytest.approx(
        1.25, rel=1e-14
    )


def test_lp_norm_empty_and_errors():
    f = HaarCombination(2, {(1, 1): [0.0, 0.0]})
    space = NormedSpaceSpec(2, Norm.L2)
    assert lp_norm_of_combination(f, space, 2.0) == 0.0
    with pytest.raises(DomainError):
        lp_norm_of_combination(f, space, 0.5)
    with pytest.raises(DomainError):
        lp_norm_of_combination(f, NormedSpaceSpec(3, Norm.L2), 2.0)


# ---------------------------------------------------------------------------
# levelwise_rhs_p


def test_levelwise_frozen_examples():
    e = [1.0]
    assert levelwise_rhs_p(HaarCombination(1, {(1, 1): e}), NormedSpaceSpec(1, Norm.L2), 2.0) == 1.0
    f = HaarCombination(1, {(2, 1): e, (2, 2): e})
    assert levelwise_rhs_p(f, NormedSpaceSpec(1, Norm.L2), 1.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


def test_levelwise_p2_is_square_sum():
    rng = np.random.default_rng(31)
    space = NormedSpaceSpec(3, Norm.L2)
    for _ in range(50):
        f = random_combination(rng, full_tree(4), 3)
        assert levelwise_rhs_p(f, space, 2.0) == pytest.approx(
            math.sqrt(f.squared_sum(space)), rel=1e-12
        )


@pytest.mark.parametrize("norm", list(Norm))
def test_levelwise_agrees_with_lp_norm_per_level(norm):
    # within one level the supports are disjoint, so the L_p norm of the
    # level block equals the weighted coefficient sum exactly
    rng = np.random.default_rng(37)
    space = NormedSpaceSpec(3, norm)
    for _ in range(20):
        f = random_combination(rng, full_tree(4), 3)
        for p in (1.0, 4.0 / 3.0, 1.7, 2.0):
            for k in range(1, 5):
                block = f.restricted_to({(kk, j) for kk, j in f.support() if kk == k})
                if not block.support():
                    continue
                assert levelwise_rhs_p(block, space, p) == pytest.approx(
                    lp_norm_of_combination(block, space, p), rel=1e-12
                )


def test_levelwise_rejects_bad_exponent():
    f = HaarCombination(1, {(1, 1): [1.0]})
    space = NormedSpaceSpec(1, Norm.L2)
    for p in (0.5, 2.5):
        with pytest.raises(DomainError):
            levelwise_rhs_p(f, space, p)


# ---------------------------------------------------------------------------
# closed forms


def test_diagonal_formula_frozen_values():
    p = 4.0 / 3.0
    assert diagonal_formula_tau(1, p) == 1.0
    assert diagonal_formula_tau_p(1, p) == 1.0
    expected_tau = math.sqrt(math.fsum(k ** (-0.5) for k in range(1, 5)))
    assert diagonal_formula_tau(4, p) == pytest.approx(expected_tau, rel=1e-14)
    assert diagonal_formula_tau_p(4, p) == pytest.approx((25.0 / 12.0) ** 0.25, rel=1e-14)


def test_diagonal_formula_vectors_are_cumulative():
    p = 1.5
    vals = diagonal_formula_tau_values(50, p)
    valsp = diagonal_formula_tau_p_values(50, p)
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(valsp) > 0)
    assert vals[-1] == diagonal_formula_tau(50, p)
    assert valsp[-1] == diagonal_formula_tau_p(50, p)
    assert vals[2] == pytest.approx(diagonal_formula_tau(3, p), rel=1e-14)


@pytest.mark.parametrize("p", [1.2, 4.0 / 3.0, 1.8])
def test_diagonal_formula_growth_bounds(p):
    # integral comparison gives tau(n) <= (2/p - 1)^(-1/2) n^(1/p - 1/2);
    # the harmonic closed form dominates (1/2)(1 + ln n)^(1/p')
    n = 2000
    q = conjugate_exponent(p)
    ns = np.arange(1, n + 1, dtype=float)
    tau_vals = diagonal_formula_tau_values(n, p)
    cap = (2.0 / p - 1.0) ** -0.5 * ns ** (1.0 / p - 0.5)
    assert np.all(tau_vals <= cap * (1 + 1e-12))
    taup_vals = diagonal_formula_tau_p_values(n, p)
    floor = 0.5 * (1.0 + np.log(ns)) ** (1.0 / q)
    assert np.all(taup_vals >= floor)


def test_diagonal_formula_domain_errors():
    for bad_p in (1.0, 2.0, 2.5, 0.8):
        with pytest.raises(DomainError):
            diagonal_formula_tau(3, bad_p)
        with pytest.raises(DomainError):
            diagonal_formula_tau_p(3, bad_p)
    with pytest.raises(DomainError):
        diagonal_formula_tau(0, 1.5)


# ---------------------------------------------------------------------------
# tau_estimate


def test_tau_estimate_identity_hilbert():
    T = OperatorSpec.identity(NormedSpaceSpec(3, Norm.L2))
    est = tau_estimate(T, {(1, 1), (2, 2), (3, 3)})
    assert est.lower_bound == pytest.approx(1.0, abs=1e-9)
    assert est.method is EstimateMethod.POWER_ITERATION


def test_tau_estimate_dense_hilbert_frozen():
    l2 = NormedSpaceSpec(2, Norm.L2)
    T = OperatorSpec.dense([[2.0, 0.0], [0.0, 1.0]], l2, l2)
    est = tau_estimate(T, full_tree(2))
    assert est.lower_bound == pytest.approx(2.0, abs=1e-9)


def test_tau_estimate_hilbert_matches_svd_oracle():
    rng = np.random.default_rng(41)
    for _ in range(5):
        M = rng.standard_normal((4, 3))
        T = OperatorSpec.dense(M, NormedSpaceSpec(3, Norm.L2), NormedSpaceSpec(4, Norm.L2))
        est = tau_estimate(T, full_tree(2), seed=int(rng.integers(1 << 30)))
        top = float(np.linalg.svd(M, compute_uv=False)[0])
        assert est.lower_bound == pytest.approx(top, abs=1e-8)


def test_tau_estimate_hilbert_reaches_close_top_singular_values():
    # the top two singular values differ by 0.5%; a power iteration stopped
    # on a small change of the Rayleigh quotient ended 7e-8 short here
    rng = np.random.default_rng(2154)
    rng.standard_normal((4, 4))
    M = rng.standard_normal((6, 6))
    space = NormedSpaceSpec(6, Norm.L2)
    est = tau_estimate(OperatorSpec.dense(M, space, space), full_tree(3))
    top = float(np.linalg.svd(M, compute_uv=False)[0])
    assert est.lower_bound == pytest.approx(top, rel=1e-12)
    assert est.method is EstimateMethod.POWER_ITERATION
    assert est.iterations == 1


def test_tau_estimate_hilbert_matches_svd_on_seeded_matrices():
    for trial in range(1000):
        rng = np.random.default_rng([61, trial])
        dim = int(rng.integers(4, 9))
        M = rng.standard_normal((dim, dim))
        space = NormedSpaceSpec(dim, Norm.L2)
        est = tau_estimate(OperatorSpec.dense(M, space, space), {(1, 1)})
        top = float(np.linalg.svd(M, compute_uv=False)[0])
        assert est.lower_bound == pytest.approx(top, rel=1e-12), trial


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tau_estimate_diagonal_example_exact(n):
    p = 4.0 / 3.0
    T = example_diagonal(n, p)
    est = tau_estimate(T, full_tree(n), restarts=3, iterations=40)
    formula = diagonal_formula_tau(n, p)
    # the paper states equality here, so the optimizer must land on the
    # closed form from below
    assert est.lower_bound == pytest.approx(formula, rel=1e-9)
    assert est.lower_bound <= formula * (1 + 1e-9)


def test_tau_estimate_witness_reproducible_and_normalized():
    T = example_diagonal(3, 1.5)
    est = tau_estimate(T, full_tree(3), restarts=2, iterations=30, seed=5)
    assert tau_ratio(T, est.best_witness) == pytest.approx(est.lower_bound, rel=1e-9)
    assert est.best_witness.squared_sum(T.domain) == pytest.approx(1.0, rel=1e-12)


def test_tau_estimate_identity_l1_reaches_sqrt_n():
    for n in (2, 3):
        space = NormedSpaceSpec(n, Norm.L1)
        est = tau_estimate(OperatorSpec.identity(space), full_tree(n), restarts=2, iterations=30)
        assert est.lower_bound >= math.sqrt(n) * (1 - 1e-9)


def test_tau_estimate_linf_codomain_at_least_column_norm():
    sigma = np.array([0.3, 1.7, 0.9])
    T = OperatorSpec(
        "diagonal",
        NormedSpaceSpec(3, Norm.L1),
        NormedSpaceSpec(3, Norm.LINF),
        entries=sigma,
    )
    est = tau_estimate(T, full_tree(2), restarts=3, iterations=40)
    assert est.lower_bound >= 1.7 * (1 - 1e-9)
    assert tau_ratio(T, est.best_witness) == pytest.approx(est.lower_bound, rel=1e-9)


def test_tau_estimate_monotone_under_tree_inclusion():
    T = example_diagonal(3, 4.0 / 3.0)
    small = tau_estimate(T, full_tree(2), restarts=2, iterations=30).lower_bound
    large = tau_estimate(T, full_tree(3), restarts=2, iterations=30).lower_bound
    assert small <= large * (1 + 1e-9)


def test_tau_estimate_validation_errors():
    T = example_diagonal(2, 1.5)
    with pytest.raises(DomainError):
        tau_estimate(T, set())
    with pytest.raises(DomainError):
        tau_estimate(T, {(1, 1)}, restarts=0)
    with pytest.raises(DomainError):
        tau_estimate(T, {(1, 1)}, iterations=0)
    with pytest.raises(DomainError):
        tau_estimate(T, {(1, 2)})


# ---------------------------------------------------------------------------
# tau_p_estimate


def test_tau_p_estimate_identity_hilbert_p2():
    T = OperatorSpec.identity(NormedSpaceSpec(3, Norm.L2))
    est = tau_p_estimate(T, 3, 2.0)
    assert est.lower_bound == pytest.approx(1.0, abs=1e-9)
    assert est.method is EstimateMethod.POWER_ITERATION


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tau_p_estimate_diagonal_example_exact(n):
    p = 4.0 / 3.0
    T = example_diagonal(n, p)
    est = tau_p_estimate(T, n, p, restarts=3, iterations=40)
    formula = diagonal_formula_tau_p(n, p)
    assert est.lower_bound == pytest.approx(formula, rel=1e-9)
    assert est.lower_bound <= formula * (1 + 1e-9)


def test_tau_p_estimate_witness_reproducible():
    p = 1.5
    T = example_diagonal(3, p)
    est = tau_p_estimate(T, 3, p, restarts=2, iterations=30, seed=2)
    assert tau_p_ratio(T, est.best_witness, p) == pytest.approx(est.lower_bound, rel=1e-9)


def test_tau_p_estimate_p1_concentrates_on_largest_entry():
    sigma = np.array([0.4, 1.3, 0.8])
    T = OperatorSpec.diagonal(sigma, Norm.L1)
    est = tau_p_estimate(T, 3, 1.0, restarts=2, iterations=30)
    assert est.lower_bound >= 1.3 * (1 - 1e-9)


def test_tau_p_estimate_validation_errors():
    T = example_diagonal(2, 1.5)
    with pytest.raises(DomainError):
        tau_p_estimate(T, 0, 1.5)
    with pytest.raises(DomainError):
        tau_p_estimate(T, 2, 2.5)
    with pytest.raises(DomainError):
        tau_p_estimate(T, 2, 1.5, restarts=0)


# ---------------------------------------------------------------------------
# coordinate candidates against their (k, j) forms


def _pattern_cases():
    """(sorted pairs, sigma): every set of at most four indices of the depth-3
    tree, and seeded sets of depths 1-9 and sizes 1-300; sigma has zeros."""
    rng = np.random.default_rng(31)
    tree = sorted(full_tree(3))
    small = [c for size in range(1, 5) for c in itertools.combinations(tree, size)]
    seeded = []
    for depth in range(1, 10):
        pool = sorted(full_tree(depth))
        top = min(300, len(pool))
        for size in sorted({max(1, min(s, top)) for s in (1, 2, 4, top // 3, top)}):
            picks = rng.choice(len(pool), size=size, replace=False)
            seeded.append([pool[int(b)] for b in sorted(picks)])
    for idx in small + seeded:
        # at least as many coordinates as levels, so that the large sets
        # have patterns too
        sigma = rng.random(int(rng.integers(idx[-1][0], 11))) * (rng.random() < 0.8)
        sigma[rng.random(len(sigma)) < 0.2] = 0.0
        yield list(idx), sigma


def test_coordinate_patterns_and_grams_match_the_pair_forms():
    for idx, sigma in _pattern_cases():
        nodes = heap_ids(frozenset(idx)).tolist()
        pairs, factors = normlab._nesting(nodes)
        patterns = normlab._coordinate_patterns(nodes, pairs, sigma)
        assert patterns == reference_coordinate_patterns(idx, sigma)
        for coords in patterns:
            # the estimate's Gram matrix of a pattern is outer(s, s) * factors
            s = sigma[list(coords)]
            gram = np.outer(s, s) * factors
            assert np.array_equal(gram, reference_pattern_gram(idx, sigma, coords))


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 1.5, 2.0])
def test_level_constant_candidate_matches_the_level_by_level_builder(p):
    rng = np.random.default_rng(17)
    for _ in range(60):
        entries = rng.standard_normal(int(rng.integers(1, 9)))
        entries[rng.random(len(entries)) < 0.3] = 0.0
        T = OperatorSpec.diagonal(entries, Norm.L1)
        for n in range(1, len(entries) + 2):
            got = normlab._level_constant_candidate(T, n, p)
            want = reference_level_constant_candidate(T, n, p)
            if want is None:
                assert got is None
                continue
            assert np.array_equal(got.heap_ids, want.heap_ids)
            assert got.heap_ids.dtype == want.heap_ids.dtype
            assert np.array_equal(got.rows, want.rows)


# ---------------------------------------------------------------------------
# structural checks


def test_comparison_check_identity_hilbert():
    T = OperatorSpec.identity(NormedSpaceSpec(2, Norm.L2))
    report = comparison_check(T, {(1, 1), (3, 2), (4, 5)}, restarts=2, iterations=30)
    assert report.passed()
    row = report.rows[0]
    assert row["setEstimate"] == pytest.approx(1.0, abs=1e-9)
    assert row["treeEstimate"] == pytest.approx(1.0, abs=1e-9)
    assert row["l2Residual"] < 1e-9
    assert row["squareSumResidual"] < 1e-9


def test_comparison_check_diagonal_pair():
    T = example_diagonal(4, 4.0 / 3.0, dim=5)
    report = comparison_check(T, {(1, 1), (2, 1)}, restarts=3, iterations=40)
    row = report.rows[0]
    assert row["localHeight"] == 2
    assert row["setEstimate"] <= row["treeEstimate"] + 1e-6
    assert report.passed()


def test_comparison_check_rejects_a_band_above_the_cap_before_any_estimate(monkeypatch):
    # full_tree(3) has local height 3 and compresses into levels up to 4
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "3")
    calls = []
    estimate = normlab._tau_estimate
    monkeypatch.setattr(normlab, "_tau_estimate", lambda *args: calls.append(args) or estimate(*args))
    T = example_diagonal(4, 4.0 / 3.0, dim=5)
    with pytest.raises(DomainError) as err:
        comparison_check(T, full_tree(3), restarts=2, iterations=5)
    assert str(err.value) == "target band level 4 exceeds the configured maximum level 3"
    assert calls == []


def test_comparison_check_exact_height_sets_agree():
    rng = np.random.default_rng(55)
    T = example_diagonal(4, 4.0 / 3.0, dim=6)
    for _ in range(3):
        F = random_exact_height_set(rng, 2, 3)
        report = comparison_check(T, F, restarts=3, iterations=40)
        a = report.rows[0]["setEstimate"]
        b = report.rows[0]["treeEstimate"]
        assert abs(a - b) <= 0.02 * b
        assert report.passed()


def test_monotonicity_check_diagonal():
    T = example_diagonal(4, 4.0 / 3.0, dim=6)
    report = monotonicity_check(T, 1, 3, restarts=3, iterations=40)
    assert report.passed()
    names = [c["name"] for c in report.checks]
    assert names == ["shift-monotonicity", "band-domination", "band-equality"]


@pytest.mark.parametrize(
    "T",
    [
        example_diagonal(4, 4.0 / 3.0, dim=6),
        OperatorSpec.dense(
            np.random.default_rng(3).standard_normal((4, 4)),
            NormedSpaceSpec(4, Norm.LINF),
            NormedSpaceSpec(4, Norm.L1),
        ),
    ],
)
def test_monotonicity_check_rows_are_the_public_band_estimates(T):
    """Each band row is tau_estimate on the band as an index set."""
    m, n = 2, 3
    report = monotonicity_check(T, m, n, restarts=2, iterations=20, seed=4)
    bands = {
        "shiftedBand": dyadic_band(m + 1, n + 1),
        "baseBand": dyadic_band(m, n),
        "squeezedBand": dyadic_band(m + 1, m + n),
        "tree": dyadic_band(1, n),
    }
    assert [row["band"] for row in report.rows] == list(bands)
    for row in report.rows:
        est = tau_estimate(T, bands[row["band"]], restarts=2, iterations=20, seed=4)
        assert row["lowerBound"] == est.lower_bound, row["band"]


def test_monotonicity_check_rejects_bad_band():
    T = example_diagonal(2, 1.5)
    with pytest.raises(DomainError):
        monotonicity_check(T, 3, 2)


def test_triangle_chain_check_random_families():
    rng = np.random.default_rng(77)
    p = 4.0 / 3.0
    T = example_diagonal(6, p, dim=6)
    for _ in range(5):
        f = random_combination(rng, full_tree(4), 6)
        report = triangle_chain_check(T, f, p)
        assert report.passed(), report
        assert report.rows[0]["directNorm"] <= report.rows[0]["pieceNormSum"] + 1e-9


def test_triangle_chain_check_zero_combination():
    T = example_diagonal(3, 1.5)
    z = HaarCombination(3, {(1, 1): np.zeros(3)})
    report = triangle_chain_check(T, z, 1.5)
    assert report.passed()
    assert report.rows[0]["pieceCount"] == 0


def test_apply_operator_maps_coefficients():
    T = OperatorSpec.diagonal([2.0, 3.0], Norm.L1)
    f = HaarCombination(2, {(1, 1): [1.0, -1.0]})
    g = apply_operator(T, f)
    assert np.array_equal(g.coefficient((1, 1)), [2.0, -3.0])
    with pytest.raises(DomainError):
        apply_operator(T, HaarCombination(3, {(1, 1): [1.0, 0.0, 0.0]}))
