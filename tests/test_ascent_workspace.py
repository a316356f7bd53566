"""The ascent's per-batch workspaces: a batch that loses restarts and the
batch-of-one polish against the serial reference, byte for byte; no
workspace buffer outliving its batch; and bounds and witnesses that do not
depend on the BLAS thread count."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from haarlab import dyadic, normlab, serialize
from haarlab.dyadic import full_tree, heap_ids
from haarlab.normlab import tau_estimate, tau_p_ratio, tau_ratio
from haarlab.spaces import Norm, NormedSpaceSpec, OperatorSpec
from helpers import ReferenceAscentProblem

SOURCES = Path(__file__).resolve().parents[1] / "src"


def workspace_operators(rng, dim):
    """A diagonal operator into l1 whose first entry is zero, so a start on
    the first coordinate alone has the zero image and stops at its first
    iterate, and dense operators into l2 and linf."""
    entries = rng.standard_normal(dim)
    entries[0] = 0.0
    yield OperatorSpec.diagonal(entries, Norm.L1)
    for domain, codomain in ((Norm.LINF, Norm.L2), (Norm.L2, Norm.LINF)):
        spaces = NormedSpaceSpec(dim, domain), NormedSpaceSpec(dim, codomain)
        yield OperatorSpec.dense(rng.standard_normal((dim, dim)), *spaces)


def record_workspaces(monkeypatch):
    """The restarts of every workspace built, in order, and weak references
    to each workspace, its plan buffers and every array either holds."""
    built, refs = [], []
    init = normlab._Workspace.__init__

    def recorded(self, problem, restarts):
        init(self, problem, restarts)
        built.append(restarts)
        for owner in (self, self.grid):
            refs.append(weakref.ref(owner))
            for value in vars(owner).values():
                arrays = [value] if isinstance(value, np.ndarray) else []
                if isinstance(value, list):  # the plan's gather groups
                    arrays = [a for group in value for a in _arrays(group)]
                refs.extend(weakref.ref(a) for a in arrays)

    monkeypatch.setattr(normlab._Workspace, "__init__", recorded)
    return built, refs


def _arrays(item):
    if isinstance(item, np.ndarray):
        return [item]
    if isinstance(item, (list, tuple)):
        return [a for part in item for a in _arrays(part)]
    return []


@pytest.mark.parametrize("p", [None, 4.0 / 3.0])
def test_a_batch_that_loses_restarts_matches_the_serial_reference(monkeypatch, p):
    """Five starts on full_tree(4) and on a branch of depth 7: start 1 is
    zero (its denominator is zero, so it never enters the batch) and start
    3 lies on the first coordinate alone (its gradient vanishes at the
    first iterate under the diagonal operator).  The batch runs in a
    workspace of 4 restarts, then of 3; its best iterates, witnesses and
    ratios equal the serial reference's byte for byte."""
    built, _refs = record_workspaces(monkeypatch)
    rng = np.random.default_rng(40)
    for pairs in (full_tree(4), [(k, 1) for k in range(1, 8)]):
        ids = heap_ids(frozenset(pairs))
        for T in workspace_operators(rng, 4):
            problem = normlab._AscentProblem(T, ids, p)
            reference = ReferenceAscentProblem(T, ids, p)
            starts = problem.random_starts(rng, 5)
            starts[1] = 0.0
            starts[3, :, 1:] = 0.0
            built.clear()
            got = problem.ascend(starts, 25)
            want = reference.ascend(starts, 25)
            assert got.tobytes() == want.tobytes()
            # under the dense operators start 3 runs on
            assert built == ([5, 4, 3] if T.kind.value == "diagonal" else [5, 4])
            ratio = tau_ratio if p is None else (lambda T, f: tau_p_ratio(T, f, p))
            for x, y in zip(got, want):
                f, g = problem.to_combination(x.copy()), reference.to_combination(y)
                assert ratio(T, f) == ratio(T, g)


@pytest.mark.parametrize("p", [None, 4.0 / 3.0])
def test_the_batch_of_one_polish_matches_the_serial_reference(monkeypatch, p):
    """The polish ascends one start, in a workspace of one restart: its
    best iterate, its witness and its ratio equal the reference's."""
    built, _refs = record_workspaces(monkeypatch)
    rng = np.random.default_rng(41)
    for pairs in (full_tree(5), [(1, 1), (4, 3), (6, 20), (9, 1)]):
        ids = heap_ids(frozenset(pairs))
        for T in workspace_operators(rng, 5):
            problem = normlab._AscentProblem(T, ids, p)
            reference = ReferenceAscentProblem(T, ids, p)
            start = problem.random_starts(rng, 1)[0]
            built.clear()
            got = problem.ascend(start[None], 30)[0]
            assert built == [1]
            want = reference.ascend_one(start, 30)
            assert got.tobytes() == want.tobytes()
            ratio = tau_ratio if p is None else (lambda T, f: tau_p_ratio(T, f, p))
            assert ratio(T, problem.to_combination(got)) == ratio(T, reference.to_combination(want))


def test_no_workspace_buffer_outlives_its_batch(monkeypatch):
    """With the cyclic collector off, every workspace, its plan buffers and
    every array they hold are gone once ascend returns, for a batch that
    lost restarts and for a batch of one.  A workspace a caller builds for
    evaluate goes with the caller's last reference, leaving only the
    arrays evaluate returns."""
    _built, refs = record_workspaces(monkeypatch)
    rng = np.random.default_rng(42)
    ids = heap_ids(full_tree(5))
    T = next(workspace_operators(rng, 4))
    problem = normlab._AscentProblem(T, ids, None)
    starts = problem.random_starts(rng, 5)
    starts[3, :, 1:] = 0.0
    gc.disable()
    try:
        problem.ascend(starts, 10)
        problem.ascend(starts[:1], 10)
        assert len(refs) > 20
        assert all(ref() is None for ref in refs)
        refs.clear()
        V, nu, _cell_nu = problem.evaluate(starts, normlab._Workspace(problem, len(starts)))
        held = {id(V), id(nu)}
        assert all(ref() is None or id(ref()) in held for ref in refs)
    finally:
        gc.enable()


def test_an_estimate_builds_one_workspace_per_batch(monkeypatch):
    """tau_estimate of a diagonal operator into l1 on full_tree(6), d = 16,
    with 8 restarts: one workspace for the batch of 8 and one for the
    polish, each with one gather workspace, and none besides."""
    built, _refs = record_workspaces(monkeypatch)
    grids = []
    init = dyadic._GatherWorkspace.__init__

    def counted(self, plan, shape, spare=0):
        init(self, plan, shape, spare)
        grids.append(shape[0])

    monkeypatch.setattr(dyadic._GatherWorkspace, "__init__", counted)
    T = OperatorSpec.diagonal([k ** -0.25 for k in range(1, 17)], Norm.L1)
    tau_estimate(T, full_tree(6), restarts=8, iterations=60)
    assert built == [8, 1]
    assert grids == [8, 1]


@pytest.mark.parametrize("length", [1, 9_999, 10_000, 10_001, 25_000])
def test_row_dot_sums_rows_in_runs_of_the_split(length):
    """Batched rows of `length` elements, into out=: np.vecdot's bytes up
    to _DOT_SPLIT elements, and above it the in-order sum of the np.vecdot
    of each run of _DOT_SPLIT, which no BLAS thread count moves."""
    split = normlab._DOT_SPLIT
    a, b = np.random.default_rng(length).standard_normal((2, 3, 2, length))
    out = np.empty((3, 2))
    got = normlab._row_dot(a, b, out=out)
    assert got is out
    if length <= split:
        want = np.vecdot(a, b)
    else:
        want = np.empty((3, 2))
        for i in np.ndindex(want.shape):
            total = float(np.vecdot(a[i][:split], b[i][:split]))
            for lo in range(split, length, split):
                total += float(np.vecdot(a[i][lo : lo + split], b[i][lo : lo + split]))
            want[i] = total
    assert got.tobytes() == want.tobytes()
    assert normlab._row_dot(a, b).tobytes() == want.tobytes()


def test_a_row_over_an_operator_dimension_is_one_run():
    """Every np.vecdot row over an operator dimension stays within one
    run of _DOT_SPLIT, so it is one BLAS thread's."""
    assert serialize.MAX_OPERATOR_DIM <= normlab._DOT_SPLIT


def test_a_workspace_holds_one_gather_arena():
    """The plan's buffers share one arena: the stack and the synthesis
    gather, then the half sums and the analysis gathers, with `out` over
    the gathers.  On full_tree(6) with 8 restarts of d = 16 the arena is
    the larger of the two phases, and the gradient and the dual rows lie
    in it over the half sums."""
    T = OperatorSpec.diagonal(np.ones(16), Norm.L1)
    problem = normlab._AscentProblem(T, heap_ids(full_tree(6)), None)
    ws = normlab._Workspace(problem, 8)
    plan, grid = problem.plan, ws.grid
    arena = grid.stacked.base
    m, batch = plan.count, 8 * 16
    assert arena.size == batch * max(2 * m + 1 + plan.table.size, 2 * m + plan.ends[-1])
    for view in (grid.S, grid.gathered, grid.sums, grid.out, ws.G, ws.duals):
        assert view.base is arena
    assert np.shares_memory(ws.G, grid.sums) and not np.shares_memory(ws.G, grid.out)


THREAD_RUN = """
import hashlib, json
import numpy as np
from haarlab.dyadic import full_tree
from haarlab.normlab import tau_estimate
from haarlab.spaces import NormedSpaceSpec, OperatorSpec

matrix = np.random.default_rng(7).standard_normal((16, 16))
out = []
for domain in ("linf", "l2"):
    T = OperatorSpec.dense(matrix, NormedSpaceSpec(16, domain), NormedSpaceSpec(16, "l1"))
    est = tau_estimate(T, full_tree(10), restarts=4, iterations=20, seed=1)
    f = est.best_witness
    digest = hashlib.sha256(f.heap_ids.tobytes() + f.rows.tobytes()).hexdigest()
    out.append([est.lower_bound.hex(), est.method.value, digest])
print(json.dumps(out))
"""


def test_bounds_and_witnesses_do_not_depend_on_the_blas_thread_count():
    """full_tree(10) with d = 16: the gradient's squared sum runs over
    1023 x 16 = 16,368 floats, past the 10,000 at which OpenBLAS splits a
    dot product across threads.  Estimates of the dense linf -> l1 and
    l2 -> l1 operators run in two processes, with one BLAS thread and with
    two, and give the same bounds, methods and witness bytes."""
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", THREAD_RUN], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert [method for _bound, method, _digest in runs[0]] == ["random-restart-ascent"] * 2
