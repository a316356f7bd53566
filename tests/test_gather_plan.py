"""The ascent's gather plan (dyadic._GatherPlan) against the index-loop
oracles, bit for bit, on the set's own dyadic partition: every cell a leaf
for full trees and bands, fewer leaves than cells for a sparse or deep set."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarlab import dyadic, normlab
from haarlab.dyadic import (
    _GatherPlan,
    _GatherWorkspace,
    _GridLevels,
    dyadic_band,
    full_tree,
    heap_ids,
)
from haarlab.normlab import tau_estimate
from haarlab.spaces import Norm, OperatorSpec
from helpers import brute_partition_firsts, level_loop_partition_synthesis, reference_analysis


@st.composite
def id_sets(draw):
    """Sorted heap ids of depths 1-10: random subsets of up to 40 indices,
    each reaching its depth, full trees and bands."""
    depth = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["subset", "tree", "band"]))
    if shape == "tree":
        return heap_ids(full_tree(depth))
    if shape == "band":
        return heap_ids(dyadic_band(draw(st.integers(1, depth)), depth))
    top = 1 << (depth - 1)  # the first heap id of level `depth`
    nodes = draw(st.sets(st.integers(1, 2 * top - 1), max_size=39))
    return np.array(sorted(nodes | {draw(st.integers(top, 2 * top - 1))}), dtype=np.int64)


def edge_rows(rng, shape):
    """Standard normal rows with zero rows, -0.0 entries and entries of
    +-1.7e308, which overflow to inf once scaled or summed."""
    rows = rng.standard_normal(shape)
    rows[:, rng.random(shape[1]) < 0.2] = 0.0
    rows[rng.random(shape) < 0.1] = -0.0
    huge = rng.random(shape) < 0.05
    rows[huge] = np.copysign(1.7e308, rows[huge])
    return rows


def synthesis_floats(plan, batch, dim):
    """The floats of the synthesis gather, and of one grid of cells."""
    return batch * plan.table.size * dim, batch * plan.cells * dim


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ids=id_sets(),
    dim=st.sampled_from([1, 2, 5, 16]),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    budget=st.sampled_from(["default", "synthesis at", "synthesis past", "analysis at",
                            "analysis past"]),
)
def test_plan_matches_the_index_loops_bit_for_bit(ids, dim, batch, seed, budget):
    """Synthesis against the masked level loop, analysis against the index
    loop, with the block budget where the gathers take it: exactly at a
    gather's size and one float below it.  A synthesis gather past the
    budget and past one grid runs the grid's level loop; the analysis
    gathers run in groups of levels that each hold at most the budget or
    one grid."""
    rows = edge_rows(np.random.default_rng(seed), (batch, len(ids), dim))
    cell_grid = _GridLevels(ids)
    plan = _GatherPlan(cell_grid)
    gather, one_grid = synthesis_floats(plan, batch, dim)
    analysis_gather = batch * plan.ends[-1] * dim
    block = {
        "default": dyadic._BLOCK_FLOATS,
        "synthesis at": gather,
        "synthesis past": gather - 1,
        "analysis at": analysis_gather,
        "analysis past": analysis_gather - 1,
    }[budget]
    fallbacks = []
    level_loop = _GridLevels.synthesis

    def counted(self, rows):
        fallbacks.append(rows.shape)
        return level_loop(self, rows)

    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(dyadic, "_BLOCK_FLOATS", block)
        mp.setattr(_GridLevels, "synthesis", counted)
        ws = _GatherWorkspace(plan, rows.shape)
        leaves = plan.synthesis(rows, ws)
        sums = plan.analysis(leaves, ws)
        widths = np.diff(np.append(plan.firsts, plan.cells))
        expected = level_loop_partition_synthesis(cell_grid, widths, rows)
        cells = leaves.repeat(widths, axis=-2)
        reference = [reference_analysis(ids, cells[r]) for r in range(batch)]
    assert leaves.tobytes() == expected.tobytes(), (ids.tolist(), budget)
    assert len(fallbacks) == (gather > max(block, one_grid)), (ids.tolist(), budget)
    for r in range(batch):
        assert sums[r].tobytes() == reference[r].tobytes(), ids.tolist()
    if dim == 1:  # every level repeats its leaves in cell order: no gather
        assert ws.groups == []
        return
    # the groups gather every cell of the levels in order, each level once
    limit = max(block, batch * plan.cells * dim)
    orders = [order for order, _gathered, _steps in ws.groups]
    assert np.array_equal(np.concatenate(orders), plan._outer_order)
    assert sum(len(steps) for _order, _gathered, steps in ws.groups) == len(plan.levels)
    assert all(gathered.size <= limit for _order, gathered, _steps in ws.groups)
    if budget == "analysis at" or analysis_gather <= limit:
        assert len(ws.groups) == 1
    elif budget == "analysis past":
        assert len(ws.groups) > 1


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ids=id_sets())
def test_the_partition_is_minimal(ids):
    """The plan's leaves start exactly where the (index, half) membership
    of a cell differs from the cell before it: no leaf could merge with
    its neighbour.  Full trees and bands have every cell a leaf."""
    plan = _GatherPlan(_GridLevels(ids))
    assert plan.firsts.tolist() == brute_partition_firsts(ids), ids.tolist()
    assert plan.widths.sum() == plan.cells
    first, top = int(ids[0]), int(ids[-1]).bit_length()
    if first & (first - 1) == 0 and len(ids) == (1 << top) - first:  # a full tree or a band
        assert plan.leaves == plan.cells


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ids=id_sets(),
    dim=st.sampled_from([1, 2, 5, 16]),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    share=st.floats(0.0, 1.0),
)
def test_analysis_keeps_one_block_of_outer_indices(ids, dim, batch, seed, share):
    """With the block budget anywhere from none to all of the levels'
    cells, the plan keeps the outer-axis indices of the deepest levels
    that fit in it and repeats the levels above them in cell order (dim
    > 1; dim = 1 always repeats).  Every path gives the index loop's bits,
    on cells with -0.0 entries too."""
    block = int(share * _GatherPlan(_GridLevels(ids)).ends[-1])
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(dyadic, "_BLOCK_FLOATS", block)
        plan = _GatherPlan(_GridLevels(ids))
        leaves = edge_rows(np.random.default_rng(seed), (batch, plan.leaves, dim))
        sums = plan.analysis(leaves, _GatherWorkspace(plan, (batch, plan.count, dim)))
        cells = plan.to_cells(leaves, -2)
        reference = [reference_analysis(ids, cells[r]) for r in range(batch)]
        for r in range(batch):
            assert sums[r].tobytes() == reference[r].tobytes(), (ids.tolist(), block)
        kept = plan.ends[-1] - plan.ends[plan.outer]
        assert kept <= block and (plan.outer == 0 or kept + plan.ends[plan.outer]
                                  - plan.ends[plan.outer - 1] > block)
        if plan.outer < len(plan.levels):
            assert plan._outer_order.size == kept


@pytest.mark.parametrize("pairs", [sorted(full_tree(5)), [(1, 1), (5, 1)]])
def test_single_column_analysis_keeps_the_pairwise_half_sums(pairs):
    """For dim = 1 numpy sums a contiguous run of cells pairwise, so a half
    sum taken one cell at a time along an outer axis has other bits.  The
    left half of (1, 1) here is the 16 cells [1e16, 1, 1, ..., 1]: one at a
    time each 1 rounds away, pairwise they do not.  The analysis keeps the
    pairwise sum that cells[lo:mid].sum(axis=0) gives.  On {(1, 1), (5, 1)}
    those cells are the leaves 1e16, 1 and one leaf of 14 cells."""
    ids = heap_ids(frozenset(pairs))
    plan = _GatherPlan(_GridLevels(ids))
    cells = np.ones((32, 1))
    cells[0] = 1e16
    leaves = cells[plan.firsts]
    assert np.array_equal(plan.to_cells(leaves, -2), cells)
    one_at_a_time = 0.0
    for value in cells[:16, 0].tolist():
        one_at_a_time += value
    pairwise = cells[:16].sum(axis=0)[0]
    assert one_at_a_time != pairwise  # the trap is real
    got = plan.analysis(leaves, _GatherWorkspace(plan, (plan.count, 1)))
    assert got.tobytes() == reference_analysis(ids, cells).tobytes()
    assert got[0, 0] == pairwise - cells[16:].sum(axis=0)[0]


def test_one_plan_per_ascent_problem_and_none_for_the_norms(monkeypatch):
    """An estimate on full_tree(4) runs on its 16 cells, one on the branch
    of depth 10 on its partition of 11 leaves: each builds one plan, with
    its problem, not per iterate, and the witnesses' norms build none."""
    built = []
    init = _GatherPlan.__init__

    def counted_init(self, grid):
        init(self, grid)
        built.append(self.leaves)

    monkeypatch.setattr(_GatherPlan, "__init__", counted_init)
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 9)], Norm.L1)
    tau_estimate(T, full_tree(4), restarts=4, iterations=30)
    tau_estimate(T, [(k, 1) for k in range(1, 11)], restarts=4, iterations=30)
    assert built == [16, 11]
    problem = normlab._AscentProblem(T, heap_ids(full_tree(4)), None)
    assert type(problem.plan) is _GatherPlan and problem.plan.grid.ids is problem.ids


def test_a_plan_is_freed_with_its_problem_without_the_collector():
    """The plan keeps its grid, which keeps no plan: no reference cycle, so
    a problem's kernel, plan and tables go when the problem does, not at
    the cyclic collector's next pass."""
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 9)], Norm.L1)
    gc.disable()
    try:
        for pairs in (full_tree(4), [(k, 1) for k in range(1, 11)]):
            problem = normlab._AscentProblem(T, heap_ids(frozenset(pairs)), None)
            problem.ascend(problem.random_starts(np.random.default_rng(1), 2), 3)
            plan, kernel = weakref.ref(problem.plan), weakref.ref(problem.plan.grid)
            del problem
            assert plan() is None and kernel() is None
    finally:
        gc.enable()
