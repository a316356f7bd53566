"""The integer fill and compression kernels, the level-by-level grid kernel
and the array-backed combination against loop-based references, and the
level cap read at call time by every entry point."""

import math
from functools import partial

import numpy as np
import pytest

from haarlab import dyadic, normlab
from haarlab.combination import HaarCombination
from haarlab.combinatorics import (
    _fill,
    _fill_state,
    _local_height,
    fill_one,
    fill_to_height,
    local_height,
)
from haarlab.dyadic import (
    DyadicRational,
    _GatherPlan,
    _GridLevels,
    dyadic_band,
    full_tree,
    heap_ids,
    make_index_set,
)
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
    level_loop_partition_synthesis,
    one_list_levelwise_rhs_p,
    one_list_squared_sum,
    peak_traced_bytes,
    random_subset,
    reference_analysis,
    reference_apply_operator,
    reference_cell_values,
    reference_compress,
    reference_fill_sequence,
    reference_levelwise_rhs_p,
    reference_lp_norm,
    reference_rewrite_combination,
    reference_tau_p_ratio,
    reference_tau_ratio,
    reference_value_at,
    space_norm,
    whole_image_norm,
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


@pytest.mark.parametrize("depth", [7, 8])
def test_fill_matches_reference_in_the_greedy_padding_regime(depth):
    # greedy_family pads its bands under budgets 2^l; the kernel routes all
    # additions in one descent, so tie whole deep fills to the sequence
    rng = np.random.default_rng(70 + depth)
    pool = sorted(full_tree(depth))
    for l in (2, 4, 8):
        if l > depth:
            continue
        tied = 0
        for _ in range(25):
            subset = random_subset(rng, pool, int(rng.integers(0, min((1 << l) - 1, 25))))
            if local_height(subset) > l:
                continue
            expected = reference_fill_sequence(subset, l, depth)
            assert fill_to_height(subset, l, depth) == frozenset(expected), (sorted(subset), l)
            assert fill_one(subset, l, depth) == expected[0]
            tied += 1
        assert tied >= 20


def test_fill_kernel_leaves_its_state_unchanged():
    rng = np.random.default_rng(3)
    pool = list(range(1, 1 << 8))
    for _ in range(200):
        ids = sorted(int(x) for x in rng.choice(pool, size=int(rng.integers(0, 40)), replace=False))
        height = _local_height(ids)
        for l in range(max(height, 1), 9):
            if len(ids) >= (1 << l) - 1:
                continue
            present, counts = _fill_state(ids, 8)
            before = (bytes(present), list(counts))
            added = _fill(present, counts, l, 8, (1 << l) - 1 - len(ids))
            assert (bytes(present), counts) == before
            assert len(set(added)) == len(added) == (1 << l) - 1 - len(ids)


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
        cells = _GridLevels(f.heap_ids).synthesis(f.rows)
        assert np.array_equal(cells, reference_cell_values(f, f.max_level())), sorted(indices)


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_partition_kernel_matches_the_cell_kernel_bit_for_bit(dim):
    rng = np.random.default_rng(150 + dim)
    for indices in seeded_sets(rng, 120):
        ids = heap_ids(indices)
        cell_grid = _GridLevels(ids)
        plan = _GatherPlan(cell_grid)
        assert plan.leaves <= min(3 * len(ids) + 1, plan.cells)
        rows = rng.standard_normal((3, len(ids), dim))
        leaves, expected = plan.synthesis(rows), cell_grid.synthesis(rows)
        assert np.array_equal(plan.to_cells(leaves, -2), expected), sorted(indices)
        sums = plan.analysis(leaves)
        for r in range(len(rows)):
            assert np.array_equal(sums[r], reference_analysis(ids, expected[r])), sorted(indices)


def edge_rows(rng, shape):
    """Standard normal rows (R, m, dim) with zero rows, -0.0 entries and
    entries of +-1.7e308, which overflow to inf once scaled by a level
    below the first or summed with another."""
    rows = rng.standard_normal(shape)
    rows[:, rng.random(shape[1]) < 0.2] = 0.0
    rows[rng.random(shape) < 0.1] = -0.0
    huge = rng.random(shape) < 0.05
    rows[huge] = np.copysign(1.7e308, rows[huge])
    return rows


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_partition_gather_kernel_matches_the_level_loop_bit_for_bit(dim):
    """The gather plan's synthesis against the masked level loop, its cells
    against the cell kernel's synthesis and its analysis against the index
    loop, byte for byte: random sets of depths 1-10, batches of 1-8
    restarts, zero rows, -0.0 entries and rows that overflow to inf (then
    NaN)."""
    rng = np.random.default_rng(190 + dim)
    on_leaves = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for trial, indices in enumerate(seeded_sets(rng, 200)):
            ids = heap_ids(indices)
            cell_grid = _GridLevels(ids)
            plan = _GatherPlan(cell_grid)
            rows = edge_rows(rng, (1 + trial % 8, len(ids), dim))
            on_leaves += plan.leaves < plan.cells
            leaves = plan.synthesis(rows)
            expected = level_loop_partition_synthesis(cell_grid, plan.widths, rows)
            assert leaves.tobytes() == expected.tobytes(), sorted(indices)
            cells = plan.to_cells(leaves, -2)
            assert cells.tobytes() == cell_grid.synthesis(rows).tobytes(), sorted(indices)
            sums = plan.analysis(leaves)
            for r in range(len(rows)):
                got = sums[r].tobytes()
                assert got == reference_analysis(ids, cells[r]).tobytes(), sorted(indices)
    assert on_leaves >= 60  # the random subsets and the trees with a gap


def blocked_sets(rng):
    """Per depth 1-12: the full tree and a sparse set that reaches it."""
    for depth in range(1, 13):
        pool = sorted(full_tree(depth))
        sparse = random_subset(rng, pool, int(rng.integers(1, min(len(pool), 40) + 1)))
        yield full_tree(depth)
        yield sparse | {(depth, int(rng.integers(1, (1 << (depth - 1)) + 1)))}


@pytest.mark.parametrize("block_floats", [1, 8, 64])
def test_blocks_match_the_whole_grid_bit_for_bit(monkeypatch, block_floats):
    """With blocks of one cell (budget 1, and 8 for d = 16) and of a few
    cells, every cell of every block holds the bits of the whole-grid
    synthesis, in cell order."""
    monkeypatch.setattr(dyadic, "_BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(170 + block_floats)
    for dim in [1, 2, 5, 16]:
        for indices in blocked_sets(rng):
            f = HaarCombination(dim, {a: rng.standard_normal(dim) for a in indices})
            grid = _GridLevels(f.heap_ids)
            blocks = list(grid.blocks(f.rows))
            assert max(block.size for block in blocks) <= max(block_floats, dim)
            whole = grid.synthesis(f.rows)
            assert np.concatenate(blocks).tobytes() == whole.tobytes(), (dim, sorted(indices))


@pytest.mark.parametrize("block_floats", [16, 64])
def test_lp_norm_in_blocks_matches_the_norm_of_the_whole_grid(monkeypatch, block_floats):
    """The norm takes the grid in blocks (of one cell for d = 16 at budget
    16); fsum is exactly rounded, so it equals the fsum of the norms of the
    whole grid for every norm and p."""
    monkeypatch.setattr(dyadic, "_BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(180 + block_floats)
    for dim in [1, 2, 5, 16]:
        for indices in blocked_sets(rng):
            f = HaarCombination(dim, {a: rng.standard_normal(dim) for a in indices})
            whole = _GridLevels(f.heap_ids).synthesis(f.rows)
            scale = math.ldexp(1.0, -f.max_level())
            for norm in Norm:
                space = NormedSpaceSpec(dim, norm)
                norms = space.norms_of(whole)
                for p in [1.0, 4.0 / 3.0, 2.0, 3.0]:
                    expected = (math.fsum((norms**p).tolist()) * scale) ** (1.0 / p)
                    assert lp_norm_of_combination(f, space, p) == expected, (dim, norm, p)


def test_cell_values_of_the_empty_combination():
    # no level: the grid is the one zero cell of level 0
    f = HaarCombination(3, {})
    values = _GridLevels(f.heap_ids).synthesis(f.rows)
    assert values.shape == (1, 3)
    assert not values.any()


def test_both_kernels_synthesise_from_read_only_rows_and_leave_them_unchanged():
    rng = np.random.default_rng(160)
    sparse = random_subset(rng, sorted(full_tree(7)), 20)
    for indices in (full_tree(5), sparse, [(k, 1) for k in range(1, 9)]):
        f = HaarCombination(4, {a: rng.standard_normal(4) for a in indices})
        before = f.rows.copy()
        assert not f.rows.flags.writeable
        cell_grid = _GridLevels(f.heap_ids)
        plan = _GatherPlan(cell_grid)
        expected = reference_cell_values(f, f.max_level())
        assert np.array_equal(cell_grid.synthesis(f.rows), expected), sorted(indices)
        assert np.array_equal(f.rows, before)
        assert np.array_equal(plan.to_cells(plan.synthesis(f.rows), -2), expected), sorted(indices)
        assert np.array_equal(f.rows, before)
    assert plan.leaves < plan.cells  # the branch ran on its partition


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
            X = problem.random_starts(np.random.default_rng(trial), 1)
            X = X / problem.denominators(T.domain.norms_of(X))[0]
            Y = T.apply_rows(X)
            # the grid has one row per leaf of the set's partition; each cell holds its leaf's
            cells = problem.plan.to_cells(problem.plan.synthesis(Y)[0], -2)
            assert np.array_equal(cells, reference.grid_values(Y[0]))
            norms = T.domain.norms_of(X)
            V, nu, cell_nu = problem.evaluate(X)
            assert problem.ratios(norms, cell_nu) == [reference.ratio(X[0])]
            G = problem.gradient(X, norms, V, nu, cell_nu)
            assert np.array_equal(G[0], reference.gradient(X[0]))
            assert np.array_equal(problem.ascend(X, 12)[0], reference.ascend_one(X[0], 12))


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
    monkeypatch.setattr(normlab, "lp_norm_of_combination", reference_lp_norm)
    expected = [estimates(T, sets, depths) for T, sets, depths in cases]

    for row, ref_row in zip(got, expected):
        for est, ref in zip(row, ref_row):
            assert est.lower_bound == ref.lower_bound
            assert est.method is ref.method
            assert est.best_witness.heap_ids.tolist() == ref.best_witness.heap_ids.tolist()
            for idx, x in est.best_witness.items():
                assert np.array_equal(x, ref.best_witness.coefficient(idx))


# ---------------------------------------------------------------------------
# the ascent's restarts in lockstep against the serial reference, bit for bit


def ascent_operators(rng, dim):
    """Diagonal and dense operators into l1, l2 and linf."""
    for codomain in NORMS:
        yield OperatorSpec.diagonal(rng.standard_normal(dim), codomain)
        domain = NormedSpaceSpec(dim, NORMS[int(rng.integers(0, 3))])
        matrix = rng.standard_normal((dim, dim))
        yield OperatorSpec.dense(matrix, domain, NormedSpaceSpec(dim, codomain))


def assert_batch_matches_reference(problem, reference, starts, iterations):
    got = problem.ascend(starts, iterations)
    assert got.shape == starts.shape
    assert np.array_equal(got, reference.ascend(starts, iterations))


@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_batched_ascent_matches_the_serial_reference(restarts):
    rng = np.random.default_rng(700 + restarts)
    for trial, indices in enumerate(seeded_sets(rng, 16)):
        if len(indices) > 40:
            continue  # the reference loops over the indices in Python
        ids = heap_ids(indices)
        dim = (1, 3, 5)[trial % 3]
        for T in ascent_operators(rng, dim):
            for p in (None, 4.0 / 3.0):
                problem = normlab._AscentProblem(T, ids, p)
                reference = ReferenceAscentProblem(T, ids, p)
                starts = problem.random_starts(np.random.default_rng(trial), restarts)
                # one (R, m, d) draw equals R draws of (m, d) one after another
                assert np.array_equal(
                    starts, reference.random_starts(np.random.default_rng(trial), restarts)
                )
                assert_batch_matches_reference(problem, reference, starts, 15)


def partition_sets(rng, count):
    """Sets whose own dyadic partition is coarser than the top-level cells:
    sparse subsets of depths 6-10 and branches of depths 5-12."""
    for trial in range(count):
        if trial % 2:
            depth = 5 + (trial // 2) % 8
            q = int(rng.integers(0, 1 << (depth - 1)))
            yield frozenset((k, (q >> (depth - k)) + 1) for k in range(1, depth + 1))
        else:
            depth = 6 + (trial // 2) % 5
            pool = sorted(full_tree(depth))
            yield random_subset(rng, pool, int(rng.integers(1, 25)))


@pytest.mark.parametrize("restarts", [1, 3, 8])
def test_ascent_on_the_sets_partition_matches_the_index_loops(restarts):
    rng = np.random.default_rng(730 + restarts)
    on_leaves = 0
    for trial, indices in enumerate(partition_sets(rng, 16)):
        ids = heap_ids(indices)
        dim = (1, 2, 5, 16)[trial % 4]
        ops = [
            OperatorSpec.diagonal(rng.standard_normal(dim), Norm.L1),
            OperatorSpec.dense(
                rng.standard_normal((dim, dim)),
                NormedSpaceSpec(dim, (Norm.LINF, Norm.L2)[trial % 2]),
                NormedSpaceSpec(dim, (Norm.L1, Norm.L2, Norm.LINF)[trial % 3]),
            ),
        ]
        for T in ops:
            for p in (None, 4.0 / 3.0):
                problem = normlab._AscentProblem(T, ids, p)
                reference = ReferenceAscentProblem(T, ids, p)
                on_leaves += problem.plan.leaves < problem.plan.cells
                X = problem.random_starts(np.random.default_rng(trial), restarts)
                X = X / np.array(problem.denominators(T.domain.norms_of(X)))[:, None, None]
                norms = T.domain.norms_of(X)
                V, nu, cell_nu = problem.evaluate(X)
                Y = T.apply_rows(X)
                for r in range(restarts):
                    cells = problem.plan.to_cells(V[r], -2)
                    assert np.array_equal(cells, reference.grid_values(Y[r])), sorted(indices)
                assert np.array_equal(cell_nu, problem.plan.to_cells(nu, -1))
                assert problem.ratios(norms, cell_nu) == [reference.ratio(x) for x in X]
                G = problem.gradient(X, norms, V, nu, cell_nu)
                for r in range(restarts):
                    assert np.array_equal(G[r], reference.gradient(X[r])), sorted(indices)
                assert_batch_matches_reference(problem, reference, X, 15)
    assert on_leaves == 16 * 2 * 2  # every set ran on its partition


def test_batched_ascent_in_smaller_batches_matches_the_serial_reference():
    rng = np.random.default_rng(710)
    T = OperatorSpec.dense(
        rng.standard_normal((4, 4)), NormedSpaceSpec(4, Norm.LINF), NormedSpaceSpec(4, Norm.L1)
    )
    ids = heap_ids(full_tree(4))
    for batch in (1, 2, 3):
        problem = normlab._AscentProblem(T, ids, None)
        problem.batch = batch
        starts = problem.random_starts(rng, 7)
        assert_batch_matches_reference(problem, ReferenceAscentProblem(T, ids, None), starts, 20)


@pytest.mark.parametrize("p", [None, 4.0 / 3.0])
def test_batched_ascent_stops_one_restart_and_runs_the_others_on(p):
    rng = np.random.default_rng(720)
    ids = heap_ids(full_tree(4))
    # entry 0 is zero: a start on coordinate 0 alone has the zero image, so
    # its gradient vanishes (gn < 1e-14) at the first iterate
    T = OperatorSpec.diagonal([0.0, 1.0, 0.5, 0.25], Norm.L1)
    problem = normlab._AscentProblem(T, ids, p)
    reference = ReferenceAscentProblem(T, ids, p)
    starts = problem.random_starts(rng, 5)
    starts[1] = 0.0  # denominator zero: the start is returned as it is
    starts[3, :, 1:] = 0.0
    assert_batch_matches_reference(problem, reference, starts, 20)
    got = problem.ascend(starts, 20)
    assert not got[1].any()
    assert np.array_equal(got[3], starts[3] / problem.denominators(T.domain.norms_of(starts[3:4]))[0])
    # the zero operator stops every restart at the first iterate
    zero = OperatorSpec.diagonal(np.zeros(4), Norm.L1)
    problem = normlab._AscentProblem(zero, ids, p)
    assert_batch_matches_reference(problem, ReferenceAscentProblem(zero, ids, p), starts, 20)


def test_lockstep_estimate_synthesises_one_grid_per_iterate_for_all_restarts(monkeypatch):
    """tau_estimate on full_tree(6) with 8 restarts of 60 iterations: the
    restarts share one synthesis per iterate (1 + 60) and the polish ascent
    takes another 61; each rated candidate takes one more for its public
    ratio.  One restart at a time takes up to 9 x 61 = 549 in the ascents
    (489 here, where the polish stops at its first iterate)."""
    syntheses, ratings = [], []
    synthesis, candidate_ratio = _GridLevels.synthesis, normlab._candidate_ratio
    plan_synthesis = _GatherPlan.synthesis

    def counted_synthesis(self, rows):
        syntheses.append(rows.shape)
        return synthesis(self, rows)

    def counted_plan_synthesis(self, rows):
        syntheses.append(rows.shape)
        return plan_synthesis(self, rows)

    def counted_ratio(T, f, p, grid=None):
        ratings.append(f)
        return candidate_ratio(T, f, p, grid)

    monkeypatch.setattr(_GridLevels, "synthesis", counted_synthesis)
    monkeypatch.setattr(_GatherPlan, "synthesis", counted_plan_synthesis)
    monkeypatch.setattr(normlab, "_candidate_ratio", counted_ratio)
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    tau_estimate(T, full_tree(6), restarts=8, iterations=60)
    assert len(ratings) >= 10  # the 8 restarts, the polish and the certified witness
    assert (8, 63, 16) in syntheses  # the ascent's iterates, all restarts at once
    assert len(syntheses) <= 2 * 61 + len(ratings), (len(syntheses), len(ratings))


@pytest.mark.parametrize("p", [None, 4.0 / 3.0])
def test_an_iterate_on_the_partition_gathers_its_cells_once(monkeypatch, p):
    """The ratio and the gradient of an iterate share one gather of nu to
    the cells: one to_cells call per evaluated iterate.  The branch of
    depth 10 runs on its partition of 11 leaves, through its gather plan,
    which has no blocks: norms never run on it."""
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 9)], Norm.L1)
    problem = normlab._AscentProblem(T, heap_ids({(k, 1) for k in range(1, 11)}), p)
    assert type(problem.plan) is _GatherPlan and problem.plan.leaves == 11
    assert not hasattr(problem.plan, "blocks")
    evaluations, gathers = [], []
    evaluate, to_cells = normlab._AscentProblem.evaluate, _GatherPlan.to_cells

    def counted_evaluate(self, X):
        evaluations.append(len(X))
        return evaluate(self, X)

    def counted_to_cells(self, rows, axis):
        gathers.append(rows.shape)
        return to_cells(self, rows, axis)

    monkeypatch.setattr(normlab._AscentProblem, "evaluate", counted_evaluate)
    monkeypatch.setattr(_GatherPlan, "to_cells", counted_to_cells)
    problem.ascend(problem.random_starts(np.random.default_rng(9), 4), 30)
    assert evaluations == [4] * 31  # the starts and 30 iterates, no restart stopped
    assert gathers == [(4, 11)] * 31


def test_lockstep_estimate_peak_memory_stays_at_one_restart_per_large_grid():
    """One branch of depth 16 with d = 16.  The bound is the peak measured
    when the ascent ran on the 2^16 cells, one restart at a time in a loop:
    31,558,215 bytes, about 3.76 grids of 8 MiB.  The ascent now runs on the
    branch's own partition of 17 leaves, so a grid is 17 x 16 floats; what
    remains is the cell-order sums of the gradient and the analysis, whose
    cell rows are 2^16 x 16 floats (8 MiB) each, and the rated witnesses.
    Measured: 17.4 MB when each norm took its whole grid, 12.7 MB with
    norms that take it in blocks."""
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    branch = [(k, 1) for k in range(1, 17)]
    tau_estimate(T, [(1, 1), (2, 1)], restarts=2, iterations=2)  # first calls allocate caches
    peak = peak_traced_bytes(lambda: tau_estimate(T, branch, restarts=8, iterations=2))
    assert peak <= 1.25 * 31_558_215, peak


def test_cell_values_peak_memory_stays_near_the_output():
    """Synthesis holds the grid and one level's scaled rows at a time; the
    top level's rows are half the grid, so the peak is about 1.5 grids."""
    rng = np.random.default_rng(14)
    f = HaarCombination(16, {a: rng.standard_normal(16) for a in full_tree(14)})
    grid = _GridLevels(f.heap_ids)
    peak = peak_traced_bytes(lambda: grid.synthesis(f.rows))
    assert peak < 2 * (1 << 14) * 16 * 8, peak


def test_norm_of_a_deep_sparse_set_holds_one_block_of_the_grid():
    """{(1,1), (20,1)} with d = 16: the grid is 2^20 x 16 floats (128 MiB),
    and a norm that held it whole peaked at 264 MiB.  In blocks of 2^16
    floats the measured peak is 1.1 MiB."""
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    rng = np.random.default_rng(20)
    f = HaarCombination(16, {a: rng.standard_normal(16) for a in [(1, 1), (20, 1)]})
    tau_ratio(T, HaarCombination(16, {(1, 1): np.ones(16)}))  # first calls allocate caches
    peak = peak_traced_bytes(lambda: tau_ratio(T, f))
    assert peak < 16 << 20, peak


def test_estimate_on_a_depth_16_tree_holds_one_witness_beside_its_image():
    """full_tree(16) with d = 16, where a witness and its image are 2^16 x
    16 floats (8 MiB) each.  Rating a candidate used to hold the witness,
    its image, the grid, a temporary of the grid's size and, in the
    certification, the unscaled witness beside the scaled one: 41.0 MiB
    measured, then 17.9 MiB with the norm in blocks and the losing and
    unscaled witnesses released.  Rating streams T f through the norm and
    the winner is scaled in place, so the estimate holds about one witness
    and one grid block: 9.9 MiB measured."""
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    tree = full_tree(16)
    tau_estimate(T, [(1, 1), (2, 1)], restarts=2, iterations=2)  # first calls allocate caches
    peak = peak_traced_bytes(lambda: tau_estimate(T, tree))
    assert peak < 14 << 20, peak


def test_restarts_are_held_one_batch_at_a_time():
    """A set of 201 indices reaching level 10 with d = 16, where the ascent
    stacks 64 restarts per batch.  The starts are drawn and the best
    iterates rated one batch at a time, so 8 batches of restarts peak where
    2 do: 19.6 MiB measured for both.  Drawing every start up front and
    rating every restart's best iterate at the end peaked at 20.1 and 38.8
    MiB."""
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    indices = random_subset(np.random.default_rng(10), full_tree(10), 200) | {(10, 1)}
    assert normlab._AscentProblem(T, heap_ids(make_index_set(indices)), None).batch == 64
    tau_estimate(T, [(1, 1), (2, 1)], restarts=2, iterations=2)  # first calls allocate caches
    two, eight = (
        peak_traced_bytes(lambda: tau_estimate(T, indices, restarts=64 * b, iterations=1))
        for b in (2, 8)
    )
    assert eight <= 1.3 * two, (two, eight)


def test_tree_16_estimate_peaks_near_its_witness():
    """The log-variant tree estimate of depth 16, d = 16: the witness is
    2^16 - 1 rows of 16 floats (8 MiB).  Rating streams T f through the
    norm a block's rows at a time and the winner is scaled in place, so the
    estimate holds the witness plus about one grid block: 9.6 MiB measured,
    1.2 witnesses (17.4 MiB, 2.2 witnesses, with the whole image and a
    scaled copy)."""
    T = normlab._diagonal_example(4.0 / 3.0, 16)
    ids = np.arange(1, 1 << 16)
    normlab._tau_estimate(T, ids[:3], 2, 2, 0)  # first calls allocate caches
    peak = peak_traced_bytes(lambda: normlab._tau_estimate(T, ids, 8, 60, 0))
    assert peak <= 1.4 * len(ids) * 16 * 8, peak


def test_ratio_of_a_tree_14_combination_allocates_at_most_its_rows():
    """full_tree(14) with d = 16: 2.0 MiB of rows, a grid of four blocks.
    The ratio holds one block, the image of the rows that block reads and
    one chunk of the denominator's terms: 1.6 MiB measured (3.4 MiB with
    the whole image and one list of every row's norm)."""
    T = normlab._diagonal_example(4.0 / 3.0, 16)
    rng = np.random.default_rng(14)
    ids = np.arange(1, 1 << 14)
    f = HaarCombination._from_arrays(16, ids, rng.standard_normal((len(ids), 16)))
    tau_ratio(T, HaarCombination(16, {(1, 1): np.ones(16)}))  # first calls allocate caches
    peak = peak_traced_bytes(lambda: tau_ratio(T, f))
    assert peak <= f.rows.nbytes, peak


# ---------------------------------------------------------------------------
# the streamed ratio against the whole-image and one-list forms, bit for bit

EXPONENTS_OF_RATIOS = [1.0, 4.0 / 3.0, 1.5, 2.0]


def deep_combination(rng, top: int, dim: int, zero_share: float) -> HaarCombination:
    """A random combination whose top level is `top`: the full levels up to
    a random depth of at most 8, then about 150 random indices below, one of
    them on level `top`, with about a `zero_share` of its rows zero."""
    full = np.arange(1, 1 << int(rng.integers(0, 9)))
    deep = rng.integers(1 << 8, 1 << top, size=150)
    last = rng.integers(1 << (top - 1), 1 << top, size=1)
    ids = np.unique(np.concatenate([full, deep, last]))
    rows = rng.standard_normal((len(ids), dim)) * 2.0 ** rng.integers(-3, 4, size=(len(ids), 1))
    rows[rng.random(len(ids)) < zero_share] = 0.0
    return HaarCombination._from_arrays(dim, ids, rows)


def codomain_operators(rng, image_dim: int):
    """Operators from d = 16 with l1, l2 and linf domains into `image_dim`
    with every codomain norm: dense ones, a diagonal where `image_dim` is 16,
    and the zero operator."""
    for i, codomain in enumerate(NORMS):
        domain = NormedSpaceSpec(16, NORMS[(i + 1) % 3])
        out = NormedSpaceSpec(image_dim, codomain)
        yield OperatorSpec.dense(rng.standard_normal((image_dim, 16)), domain, out)
        if image_dim == 16:
            yield OperatorSpec.diagonal(rng.standard_normal(16), codomain)
    spaces = NormedSpaceSpec(16, Norm.L2), NormedSpaceSpec(image_dim, Norm.L1)
    yield OperatorSpec.dense(np.zeros((image_dim, 16)), *spaces)


@pytest.mark.parametrize("image_dim", [1, 2, 5, 16])
def test_streamed_image_norm_matches_the_whole_image_bit_for_bit(image_dim):
    """Tops 10-17 at d = 16: one grid block up to top 12 for d' = 16 (up to
    16 for d' = 1), many above it."""
    rng = np.random.default_rng(700 + image_dim)
    for top in range(10, 18):
        f = deep_combination(rng, top, 16, zero_share=0.2)
        for i, T in enumerate(codomain_operators(rng, image_dim)):
            p = EXPONENTS_OF_RATIOS[(top + i) % 4]
            image = partial(normlab._image_rows, T)
            want = whole_image_norm(T, f, p)
            assert normlab._lp_norm(f, T.codomain, p, image) == want, (top, i, p)
            den = one_list_levelwise_rhs_p(f, T.domain, p)
            assert tau_p_ratio(T, f, p) == (want / den if den else 0.0)
            if p == 2.0:
                den = math.sqrt(one_list_squared_sum(f, T.domain))
                assert tau_ratio(T, f) == (want / den if den else 0.0)


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_chunked_coefficient_sums_match_one_list_bit_for_bit(dim):
    """Sets of up to three chunks of rows, and combinations whose rows are
    all zero."""
    rng = np.random.default_rng(800 + dim)
    for size in (1, 4095, 4096, 4097, 9000):
        ids = np.sort(rng.choice(np.arange(1, 1 << 14), size=size, replace=False))
        rows = rng.standard_normal((size, dim)) * 2.0 ** rng.integers(-8, 9, size=(size, 1))
        rows[rng.random(size) < 0.2] = 0.0
        for f in (
            HaarCombination._from_arrays(dim, ids, rows),
            HaarCombination._from_arrays(dim, ids, np.zeros((size, dim))),
        ):
            assert f.squared_sum() == one_list_squared_sum(f)
            for norm in NORMS:
                space = NormedSpaceSpec(dim, norm)
                assert f.squared_sum(space) == one_list_squared_sum(f, space)
                for p in EXPONENTS_OF_RATIOS:
                    assert levelwise_rhs_p(f, space, p) == one_list_levelwise_rhs_p(f, space, p)


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
    assert frozenset(a for a, _x in got) == ref.indices()


@pytest.mark.parametrize("dim", DIMS)
def test_squared_sums_and_levelwise_sums_match_the_dict_backed_combination(dim):
    rng = np.random.default_rng(300 + dim)
    spaces = [NormedSpaceSpec(dim, norm) for norm in NORMS]
    for f, ref in combination_pairs(rng, dim):
        assert f.squared_sum() == ref.squared_sum()
        for space in spaces:
            assert f.squared_sum(space) == ref.squared_sum(space_norm(space))
            for p in EXPONENTS:
                assert levelwise_rhs_p(f, space, p) == reference_levelwise_rhs_p(ref, space, p)
    # one row each, so a term rounded differently shows in the sum: numpy's
    # square of a norm differs from Python's ** 2 in about 1 row in 1,200
    for x in rng.standard_normal((3000, dim)):
        f, ref = HaarCombination(dim, {(3, 2): x}), ReferenceHaarCombination(dim, {(3, 2): x})
        assert f.squared_sum() == ref.squared_sum()
        for space in spaces:
            assert f.squared_sum(space) == ref.squared_sum(space_norm(space))
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
        g = HaarCombination._from_arrays(dim, f.heap_ids, f.rows.copy())
        g._scale_in_place(0.7)
        assert_same_combination(g, ref.scaled(0.7))
        assert not g.rows.flags.writeable
        assert len(f) == len(ref) and f.max_level() == ref.max_level()
        top = max(f.max_level(), 1)
        pool = sorted(full_tree(top))
        wanted = random_subset(rng, pool, int(rng.integers(0, len(pool) + 1)))
        assert_same_combination(f.restricted_to(wanted), ref.restricted_to(wanted))
        for a in pool[:8]:
            assert (a in dict(f.items())) == (a in ref.indices())
            assert f.coefficient(a).tobytes() == ref.coefficient(a).tobytes()
        # the value at t, index by index, is the grid's value on the cell of t
        cells = _GridLevels(f.heap_ids).synthesis(f.rows)
        for q in rng.integers(0, 1 << (top + 1), size=6):
            t = DyadicRational(int(q), top + 1)
            cell = cells[int(q) >> (top + 1 - f.max_level())]
            assert cell.tobytes() == reference_value_at(ref, t).tobytes()


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
