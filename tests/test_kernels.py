"""The integer fill and compression kernels, the level-by-level grid kernel
and the array-backed combination against loop-based references, and the
level cap read at call time by every entry point."""

import tracemalloc

import numpy as np
import pytest

from haarlab import normlab
from haarlab.combination import HaarCombination
from haarlab.combinatorics import fill_one, fill_to_height, local_height
from haarlab.dyadic import DyadicRational, dyadic_band, full_tree, heap_ids, make_index_set
from haarlab.errors import DomainError
from haarlab.normlab import (
    apply_operator,
    levelwise_rhs_p,
    lp_norm_of_combination,
    tau_estimate,
    tau_p_estimate,
    tau_p_ratio,
    tau_ratio,
)
from haarlab.spaces import Norm, NormedSpaceSpec, OperatorSpec
from haarlab.transforms import compress, fork_split, rewrite_combination
from helpers import (
    ReferenceAscentProblem,
    ReferenceHaarCombination,
    all_subsets,
    random_subset,
    reference_apply_operator,
    reference_cell_values,
    reference_compress,
    reference_fill_sequence,
    reference_levelwise_rhs_p,
    reference_lp_norm,
    reference_rewrite_combination,
    reference_tau_p_ratio,
    reference_tau_ratio,
)

DIMS = [1, 2, 5, 16, 33]


def assert_fill_matches(subset, n):
    """fill_one and fill_to_height agree with the reference at every budget."""
    for l in range(max(local_height(subset), 1), n + 1):
        if len(subset) >= (1 << l) - 1:
            continue
        expected = reference_fill_sequence(subset, l, n)
        assert fill_to_height(subset, l, n) == frozenset(expected), (sorted(subset), l, n)
        assert fill_one(subset, l, n) == expected[0]


def test_fill_matches_reference_on_every_subset_of_depth_4():
    for subset in all_subsets(full_tree(4)):
        assert_fill_matches(subset, 4)


@pytest.mark.parametrize("depth", [5, 6])
def test_fill_matches_reference_on_seeded_subsets(depth):
    rng = np.random.default_rng(depth)
    pool = sorted(full_tree(depth))
    for _ in range(2000):
        size = int(rng.integers(0, len(pool)))
        assert_fill_matches(random_subset(rng, pool, size), depth)


def test_compression_traces_match_reference_step_by_step():
    rng = np.random.default_rng(11)
    for trial in range(3000):
        depth = 4 + trial % 3
        pool = sorted(full_tree(depth))
        subset = random_subset(rng, pool, int(rng.integers(1, len(pool) + 1)))
        trace = compress(subset)
        steps, final, m = reference_compress(subset)
        assert trace.steps == steps, sorted(subset)
        assert trace.final_set == final
        assert trace.m == m
        assert trace.initial_set == subset


LEVEL_4 = "Haar index level 4 exceeds the configured maximum level 3"


def test_level_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "3")
    bad = [(1, 1), (4, 1)]
    calls = [
        lambda: local_height(bad),
        lambda: fill_to_height(bad, 3, 4),
        lambda: fill_one(bad, 3, 4),
        lambda: compress(bad),
        lambda: fork_split(bad, (1, 1)),
        lambda: make_index_set(bad),
        lambda: HaarCombination(1, {idx: [1.0] for idx in bad}),
    ]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == LEVEL_4
    # the same calls pass once the cap allows level 4 again
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "4")
    assert local_height(bad) == 2
    assert compress(bad).final_set


# ---------------------------------------------------------------------------
# the grid kernel: synthesis and analysis level by level


def seeded_sets(rng, count):
    """Index sets of depths 1-10: random subsets (sparse levels), full
    trees, bands (empty levels on top) and trees with a gap of empty levels."""
    for trial in range(count):
        depth = 1 + trial % 10
        shape = trial % 4
        if shape == 0:
            pool = sorted(full_tree(depth))
            size = int(rng.integers(1, min(len(pool), 60) + 1))
            yield random_subset(rng, pool, size)
        elif shape == 1:
            yield full_tree(depth)
        elif shape == 2:
            yield dyadic_band(int(rng.integers(1, depth + 1)), depth)
        else:  # trials 3, 7, ... have depth 2, 4, ..., 10
            pool = sorted(full_tree(depth) - dyadic_band(depth // 2, depth - 1))
            yield random_subset(rng, pool, int(rng.integers(1, len(pool) + 1)))


@pytest.mark.parametrize("dim", DIMS)
def test_cell_values_match_the_index_loop_bit_for_bit(dim):
    rng = np.random.default_rng(100 + dim)
    for indices in seeded_sets(rng, 120):
        f = HaarCombination(dim, {a: rng.standard_normal(dim) for a in indices})
        top = f.max_level()
        for grid_level in (top, top + 1, top + 3):
            assert np.array_equal(
                f.cell_values(grid_level), reference_cell_values(f, grid_level)
            ), (sorted(indices), grid_level)


def test_cell_values_of_the_empty_combination():
    for grid_level in (0, 1, 4):
        values = HaarCombination(3, {}).cell_values(grid_level)
        assert values.shape == (1 << grid_level, 3)
        assert not values.any()


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_ascent_grid_gradient_and_path_match_the_index_loops(dim):
    rng = np.random.default_rng(200 + dim)
    for trial, indices in enumerate(seeded_sets(rng, 40)):
        ids = heap_ids(indices)
        if trial % 2:
            T = OperatorSpec.diagonal(rng.standard_normal(dim), Norm.L1)
        else:
            domain, codomain = NormedSpaceSpec(dim, Norm.LINF), NormedSpaceSpec(dim, Norm.L2)
            T = OperatorSpec.dense(rng.standard_normal((dim, dim)), domain, codomain)
        for p in (None, 4.0 / 3.0):
            problem = normlab._AscentProblem(T, ids, p)
            reference = ReferenceAscentProblem(T, ids, p)
            X = problem.random_start(np.random.default_rng(trial))
            X = X / problem.denominator(X)
            Y = T.apply_rows(X)
            assert np.array_equal(problem.grid_values(Y.copy()), reference.grid_values(Y))
            V, nu = problem.evaluate(X)
            assert problem.ratio(X, nu) == reference.ratio(X)
            assert np.array_equal(problem.gradient(X, V, nu), reference.gradient(X))
            assert np.array_equal(problem.ascend(X, 12), reference.ascend(X, 12))


def estimates(T, sets, p_depths):
    out = []
    for indices in sets:
        out.append(tau_estimate(T, indices, restarts=3, iterations=25, seed=len(out)))
    for n in p_depths:
        out.append(tau_p_estimate(T, n, 4.0 / 3.0, restarts=3, iterations=25, seed=n))
    return out


def test_estimates_match_the_loop_backed_ascent(monkeypatch):
    rng = np.random.default_rng(5)
    diagonal = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    subsets = [random_subset(rng, sorted(full_tree(d)), s) for d, s in ((6, 6), (7, 12), (8, 24))]
    trees_and_bands = [full_tree(3), full_tree(5), dyadic_band(2, 5), dyadic_band(3, 6)]
    cases = [(diagonal, trees_and_bands + subsets, [3, 4])]
    for domain in (Norm.LINF, Norm.L2):
        for dim in (4, 6):
            M = rng.standard_normal((dim, dim))
            T = OperatorSpec.dense(M, NormedSpaceSpec(dim, domain), NormedSpaceSpec(dim, Norm.L1))
            cases.append((T, [full_tree(3), random_subset(rng, sorted(full_tree(6)), 10)], [3]))

    got = [estimates(T, sets, depths) for T, sets, depths in cases]
    monkeypatch.setattr(normlab, "_AscentProblem", ReferenceAscentProblem)
    monkeypatch.setattr(HaarCombination, "cell_values", reference_cell_values)
    expected = [estimates(T, sets, depths) for T, sets, depths in cases]

    for row, ref_row in zip(got, expected):
        for est, ref in zip(row, ref_row):
            assert est.lower_bound == ref.lower_bound
            assert est.method is ref.method
            assert est.best_witness.indices() == ref.best_witness.indices()
            for idx, x in est.best_witness.items():
                assert np.array_equal(x, ref.best_witness.coefficient(idx))


def test_cell_values_peak_memory_stays_near_the_output():
    rng = np.random.default_rng(14)
    f = HaarCombination(16, {a: rng.standard_normal(16) for a in full_tree(14)})
    tracemalloc.start()
    try:
        values = f.cell_values(14)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.nbytes, peak / values.nbytes


# ---------------------------------------------------------------------------
# the array-backed combination against the dict-backed one, bit for bit

NORMS = [Norm.L1, Norm.L2, Norm.LINF]
EXPONENTS = [1.0, 4.0 / 3.0, 1.5, 2.0]


def combination_pairs(rng, dim, count=40):
    """(HaarCombination, ReferenceHaarCombination) with equal coefficients:
    the empty combination, then seeded sets with about one explicit zero
    row in five."""
    yield HaarCombination(dim, {}), ReferenceHaarCombination(dim, {})
    for indices in seeded_sets(rng, count):
        coeffs = {}
        for a in sorted(indices):
            x = rng.standard_normal(dim) * 2.0 ** (-(a[0] - 1) / 2.0)
            coeffs[a] = np.zeros(dim) if rng.random() < 0.2 else x
        yield HaarCombination(dim, coeffs), ReferenceHaarCombination(dim, coeffs)


def operators(rng, dim, norm):
    """Identity, diagonal and dense operators with domain norm `norm`."""
    space = NormedSpaceSpec(dim, norm)
    yield OperatorSpec.identity(space)
    yield OperatorSpec.diagonal(rng.standard_normal(dim), norm)
    for codomain in NORMS:
        matrix = rng.standard_normal((dim, dim))
        yield OperatorSpec.dense(matrix, space, NormedSpaceSpec(dim, codomain))
    wide = rng.standard_normal((3, dim))
    yield OperatorSpec.dense(wide, space, NormedSpaceSpec(3, Norm.L1))


def assert_same_combination(f, ref):
    got, want = list(f.items()), list(ref.items())
    assert f.dim == ref.dim
    assert [a for a, _x in got] == [a for a, _x in want]
    for (a, x), (_a, y) in zip(got, want):
        assert x.tobytes() == y.tobytes(), a
    assert f.support() == ref.support()
    assert f.indices() == ref.indices()


@pytest.mark.parametrize("dim", DIMS)
def test_squared_sums_and_levelwise_sums_match_the_dict_backed_combination(dim):
    rng = np.random.default_rng(300 + dim)
    spaces = [NormedSpaceSpec(dim, norm) for norm in NORMS]
    for f, ref in combination_pairs(rng, dim):
        assert f.squared_sum() == ref.squared_sum()
        for space in spaces:
            assert f.squared_sum(space) == ref.squared_sum(space.norm_of)
            for p in EXPONENTS:
                assert levelwise_rhs_p(f, space, p) == reference_levelwise_rhs_p(ref, space, p)
    # one row each, so a term rounded differently shows in the sum: numpy's
    # square of a norm differs from Python's ** 2 in about 1 row in 1,200
    for x in rng.standard_normal((3000, dim)):
        f, ref = HaarCombination(dim, {(3, 2): x}), ReferenceHaarCombination(dim, {(3, 2): x})
        assert f.squared_sum() == ref.squared_sum()
        for space in spaces:
            assert f.squared_sum(space) == ref.squared_sum(space.norm_of)
            assert levelwise_rhs_p(f, space, 1.5) == reference_levelwise_rhs_p(ref, space, 1.5)


@pytest.mark.parametrize("dim", DIMS)
def test_operator_images_norms_and_ratios_match_the_dict_backed_combination(dim):
    rng = np.random.default_rng(400 + dim)
    for trial, (f, ref) in enumerate(combination_pairs(rng, dim, count=20)):
        for T in operators(rng, dim, NORMS[trial % 3]):
            image, ref_image = apply_operator(T, f), reference_apply_operator(T, ref)
            assert_same_combination(image, ref_image)
            for p in EXPONENTS:
                assert lp_norm_of_combination(image, T.codomain, p) == reference_lp_norm(
                    ref_image, T.codomain, p
                )
                assert tau_p_ratio(T, f, p) == reference_tau_p_ratio(T, ref, p)
            assert tau_ratio(T, f) == reference_tau_ratio(T, ref)


@pytest.mark.parametrize("dim", DIMS)
def test_views_restrictions_and_point_values_match_the_dict_backed_combination(dim):
    rng = np.random.default_rng(500 + dim)
    for f, ref in combination_pairs(rng, dim):
        assert_same_combination(f, ref)
        assert_same_combination(f.scaled(0.7), ref.scaled(0.7))
        assert len(f) == len(ref) and f.max_level() == ref.max_level()
        top = max(f.max_level(), 1)
        pool = sorted(full_tree(top))
        wanted = random_subset(rng, pool, int(rng.integers(0, len(pool) + 1)))
        assert_same_combination(f.restricted_to(wanted), ref.restricted_to(wanted))
        for a in pool[:8]:
            assert (a in f) == (a in ref.indices())
            assert f.coefficient(a).tobytes() == ref.coefficient(a).tobytes()
        for q in rng.integers(0, 1 << (top + 1), size=6):
            t = DyadicRational(int(q), top + 1)
            assert f.value_at(t).tobytes() == ref.value_at(t).tobytes()


@pytest.mark.parametrize("dim", DIMS)
def test_rewrites_along_compress_traces_match_the_dict_backed_combination(dim):
    rng = np.random.default_rng(600 + dim)
    for f, ref in combination_pairs(rng, dim, count=30):
        support = f.support()
        if not support or len(support) > 200:
            continue  # the full trees of depth 10 take nearly 900 steps
        for step in compress(support).steps:
            f = rewrite_combination(f, step)
            ref = reference_rewrite_combination(ref, step)
            assert_same_combination(f, ref)
