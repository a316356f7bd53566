"""Norm evaluation and lower-bound estimation for the tree functionals.

The central quantity is the ratio

    ||sum_F chi_k^(j) T x_k^(j)||_{L2(Y)}  /  (sum_F ||x_k^(j)||_X^2)^{1/2}

maximised over coefficient families on a fixed index set F, and its
variant where the denominator carries level weights and an exponent p.
Everything here produces certified lower bounds: whatever search strategy
proposes a witness, the reported value is the ratio re-evaluated through
the public quadrature path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .combination import HaarCombination, row_chunks
from .combinatorics import (
    _local_height,
    band_weight_bound,
    is_partition,
    level_set_partition,
)
from .config import check_level
from .dyadic import (
    _GatherPlan,
    _GatherWorkspace,
    _GridLevels,
    _level_runs,
    from_heap_id,
    half_power,
    heap_ids,
    make_index_set,
)
from .errors import DomainError
from .serialize import ExperimentReport, check_row
from .spaces import Norm, NormedSpaceSpec, OperatorSpec
from .transforms import compress, rewrite_combination

__all__ = [
    "EstimateMethod",
    "TauEstimate",
    "apply_operator",
    "comparison_check",
    "conjugate_exponent",
    "diagonal_formula_tau",
    "diagonal_formula_tau_p",
    "diagonal_formula_tau_p_values",
    "diagonal_formula_tau_values",
    "levelwise_rhs_p",
    "lp_norm_of_combination",
    "monotonicity_check",
    "tau_estimate",
    "tau_p_estimate",
    "tau_p_ratio",
    "tau_ratio",
    "triangle_chain_check",
]


# ---------------------------------------------------------------------------
# norms of combinations


def _check_dim(
    space: NormedSpaceSpec, f: HaarCombination, name: str = "space", field: str | None = None
) -> None:
    """Raises a DomainError naming `field` where the coefficients of f do
    not live in space."""
    if space.dim != f.dim:
        raise DomainError(
            f"{name} dimension {space.dim} does not match combination dim {f.dim}", field
        )


def lp_norm_of_combination(f: HaarCombination, space: NormedSpaceSpec, p: float) -> float:
    """Exact L_p norm of the vector-valued step function built from f.

    The function is constant on dyadic cells at the finest level present,
    so the integral is a finite sum; no approximation is involved beyond
    float arithmetic.  The cell values come from the grid kernel
    (dyadic._GridLevels.blocks), equal, bit for bit, to adding the Haar
    functions one index at a time in (k, j) order, so the norm does not
    depend on how the grid is built.  They come one block at a time, and
    math.fsum, exactly rounded, takes the terms of each block as they come:
    the sum does not depend on the blocks, and a norm holds its coefficient
    rows and one block of the grid.
    """
    if not 1 <= p < math.inf:
        raise DomainError(f"exponent p must satisfy 1 <= p < inf, got {p}")
    _check_dim(space, f)
    if not f.rows.any():
        return 0.0
    return _lp_norm(f, space, p)


def _lp_norm(
    f: HaarCombination, space: NormedSpaceSpec, p: float, image=None, grid=None
) -> float:
    """lp_norm_of_combination of the combination with rows image(f.rows),
    f's when image is None, taken block by block (_GridLevels.blocks): the
    image of f's rows is made a block's rows at a time.  `grid` is the
    _GridLevels of f's heap ids where the caller has one."""
    if grid is None:
        grid = _GridLevels(f.heap_ids)
    terms = ((space.norms_of(v) ** p).tolist() for v in grid.blocks(f.rows, image))
    total = math.fsum(itertools.chain.from_iterable(terms))
    return (total / grid.cells) ** (1.0 / p)


def _level_weight(k: int, p: float) -> float:
    """The weight 2^{(k-1)(p/2-1)} of level k in the p sum, a Python float power."""
    return 2.0 ** ((k - 1) * (p / 2.0 - 1.0))


def levelwise_rhs_p(f: HaarCombination, space: NormedSpaceSpec, p: float) -> float:
    """Weighted coefficient sum (sum_F 2^{(k-1)(p/2-1)} ||x||^p)^{1/p}.

    The norms come from one array operation per chunk of rows; the powers
    stay Python float powers, which numpy's power does not reproduce bit
    for bit.  math.fsum, exactly rounded, takes the terms a chunk at a
    time, so the sum does not depend on the chunks.
    """
    if not 1 <= p <= 2:
        raise DomainError(f"exponent p must satisfy 1 <= p <= 2, got {p}")
    _check_dim(space, f)

    def terms():
        for k, lo, hi in _level_runs(f.heap_ids):
            weight = _level_weight(k, p)
            for rows in row_chunks(f.rows[lo:hi]):
                yield [(nx**p) * weight for nx in space.norm_of_each(rows).tolist() if nx]

    return math.fsum(itertools.chain.from_iterable(terms())) ** (1.0 / p)


def _image_rows(T: OperatorSpec, rows: np.ndarray) -> np.ndarray:
    """T applied to each of `rows` as a (1, d) product of its own: the bits
    of T applied to the row alone, whatever rows are beside it."""
    return T.apply_rows(rows[:, None, :])[:, 0, :]


def apply_operator(T: OperatorSpec, f: HaarCombination) -> HaarCombination:
    _check_dim(T.domain, f, "operator domain", "operator")
    return HaarCombination._from_arrays(T.codomain.dim, f.heap_ids, _image_rows(T, f.rows))


def _denominator(T: OperatorSpec, f: HaarCombination, p: float | None) -> float:
    """The ratio's denominator: the plain coefficient square sum's root for
    tau (p None), the level-weighted p sum for tau_p."""
    if p is None:
        return math.sqrt(f.squared_sum(T.domain))
    return levelwise_rhs_p(f, T.domain, p)


def _ratio(T: OperatorSpec, f: HaarCombination, p: float | None, grid=None) -> float:
    """The L_p norm of T applied to f (L2 for p None) over _denominator.

    The numerator is the norm of apply_operator(T, f), bit for bit, but T
    is applied only to the rows each grid block reads, so the image of f
    is never held whole.  `grid`, where given, is the _GridLevels of f's
    heap ids, so the norm does not build one.
    """
    _check_dim(T.domain, f, "operator domain", "operator")
    den = _denominator(T, f, p)
    if den == 0.0:
        return 0.0
    num = _lp_norm(f, T.codomain, 2.0 if p is None else p, partial(_image_rows, T), grid)
    return num / den


def tau_ratio(T: OperatorSpec, f: HaarCombination) -> float:
    """L2 norm of T applied to f over the plain coefficient square sum."""
    return _ratio(T, f, None)


def tau_p_ratio(T: OperatorSpec, f: HaarCombination, p: float) -> float:
    """L_p norm of T applied to f over the level-weighted p sum."""
    return _ratio(T, f, p)


# ---------------------------------------------------------------------------
# closed forms for the diagonal example sigma_k = k^{-1/p'}


def conjugate_exponent(p: float) -> float:
    if p <= 1:
        raise DomainError(f"conjugate exponent requires p > 1, got {p}")
    return p / (p - 1.0)


def _check_diagonal_args(n: int, p: float):
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 < p < 2:
        raise DomainError(f"exponent p must satisfy 1 < p < 2, got {p}")


def diagonal_formula_tau_values(n: int, p: float) -> np.ndarray:
    """Vector of (sum_{k<=m} k^{-2/p'})^{1/2} for m = 1..n."""
    _check_diagonal_args(n, p)
    q = conjugate_exponent(p)
    k = np.arange(1, n + 1, dtype=float)
    return np.sqrt(np.cumsum(k ** (-2.0 / q)))


def diagonal_formula_tau(n: int, p: float) -> float:
    return float(diagonal_formula_tau_values(n, p)[-1])


def diagonal_formula_tau_p_values(n: int, p: float) -> np.ndarray:
    """Vector of (sum_{k<=m} 1/k)^{1/p'} for m = 1..n."""
    _check_diagonal_args(n, p)
    q = conjugate_exponent(p)
    k = np.arange(1, n + 1, dtype=float)
    return np.cumsum(1.0 / k) ** (1.0 / q)


def diagonal_formula_tau_p(n: int, p: float) -> float:
    return float(diagonal_formula_tau_p_values(n, p)[-1])


def _diagonal_example(p: float, dim: int) -> OperatorSpec:
    """The diagonal operator sigma_k = k^{-1/p'}, k = 1..dim, on l1^dim."""
    q = conjugate_exponent(p)
    entries = np.array([float(k + 1) ** (-1.0 / q) for k in range(dim)])
    return OperatorSpec.diagonal(entries, norm="l1")


# ---------------------------------------------------------------------------
# estimates


class EstimateMethod(str, Enum):
    POWER_ITERATION = "power-iteration"
    COORDINATE_ALIGNED = "coordinate-aligned"
    RANDOM_RESTART_ASCENT = "random-restart-ascent"


@dataclass(frozen=True)
class TauEstimate:
    lower_bound: float
    best_witness: HaarCombination
    method: EstimateMethod
    restarts: int
    iterations: int

    def as_dict(self) -> dict:
        return {
            "lowerBound": self.lower_bound,
            "method": self.method.value,
            "restarts": self.restarts,
            "iterations": self.iterations,
        }


def _nonempty_heap_ids(indices) -> np.ndarray:
    ids = heap_ids(make_index_set(indices))
    if not len(ids):
        raise DomainError("index set must be nonempty", "indexSet")
    return ids


# the largest budgets an estimate takes: the restarts bound what an estimate
# holds (a start and a best iterate per restart), the iterations its time
_MAX_RESTARTS = 10_000
_MAX_ITERATIONS = 100_000


def _check_budget(restarts: int, iterations: int):
    """Raises a DomainError whose field names the option, restarts or
    iters, of a budget out of range; the callers run it before they
    allocate anything."""
    if not 1 <= restarts <= _MAX_RESTARTS:
        raise DomainError(
            f"restart budget must lie in 1..{_MAX_RESTARTS}, got {restarts}", "restarts"
        )
    if not 1 <= iterations <= _MAX_ITERATIONS:
        raise DomainError(
            f"iteration budget must lie in 1..{_MAX_ITERATIONS}, got {iterations}", "iters"
        )


def _top_singular_vector(M: np.ndarray) -> np.ndarray:
    """A top right singular vector of M: the top eigenvector of M^T M, from
    one symmetric eigensolve.  M is first scaled to largest entry 1, so
    M^T M does not overflow."""
    top = float(np.abs(M).max())
    if top == 0.0:
        return np.eye(M.shape[1])[0]
    scaled = M / top
    return np.linalg.eigh(scaled.T @ scaled)[1][:, -1]


def _nesting(nodes: list[int]) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The nested pairs of the sorted heap ids `nodes` and the Gram factors.

    A pair (a, b) has nodes[a] above nodes[b] on one branch; shifting each id
    up to the set's top level finds them.  H[a, b] = 2^{-|k_a-k_b|/2} on the
    diagonal and for the nested pairs, in both orders, else 0.
    """
    position = {node: i for i, node in enumerate(nodes)}
    k_min = nodes[0].bit_length()
    pairs = []
    factors = np.eye(len(nodes))  # half_power(0) is 1.0
    for b, node in enumerate(nodes):
        for s in range(1, node.bit_length() - k_min + 1):
            a = position.get(node >> s)
            if a is not None:
                pairs.append((a, b))
                factors[a, b] = factors[b, a] = half_power(-s)
    return pairs, factors


def _coordinate_patterns(
    nodes: list[int], pairs: list[tuple[int, int]], sigma: np.ndarray
) -> list[tuple[int, ...]]:
    """The distinct patterns, each a coordinate per id, in the order they
    are tried: the number of each id's ancestors in the set, its depth below
    the set's top level, and for at most four ids every pattern over the
    four largest sigma that no nested pair shares (injective along every
    branch)."""
    dim = len(sigma)
    k_min = nodes[0].bit_length()
    by_level = [node.bit_length() - k_min for node in nodes]
    ancestors = [0] * len(nodes)
    for _a, b in pairs:
        ancestors[b] += 1
    patterns = []
    if max(ancestors) < dim:
        patterns.append(ancestors)
    if max(by_level) < dim and by_level != ancestors:
        patterns.append(by_level)
    if len(nodes) <= 4:
        pool = [int(c) for c in np.argsort(sigma)[::-1][: min(dim, 4)]]
        for cand in itertools.product(pool, repeat=len(nodes)):
            if all(cand[a] != cand[b] for a, b in pairs):
                patterns.append(cand)
    return list(dict.fromkeys(map(tuple, patterns)))


def _level_profile(dim: int, ids: np.ndarray, top: int, amplitude: np.ndarray) -> HaarCombination:
    """The witness on the sorted heap ids `ids` that puts amplitude[c] *
    2^{-c/2} on coordinate c at every index c levels below level `top`."""
    rows = np.zeros((len(ids), dim))
    for k, lo, hi in _level_runs(ids):
        c = k - top
        rows[lo:hi, c] = amplitude[c] * half_power(-c)
    return HaarCombination._from_arrays(dim, ids, rows)


def _coordinate_candidates(T: OperatorSpec, ids: np.ndarray) -> list[HaarCombination]:
    """Witnesses with one active coordinate per index.

    With every x_a restricted to a single coordinate e_{c_a}, a pattern
    (c_a), the squared ratio is a Rayleigh quotient of the PSD Gram matrix
    A[a,b] = sigma_{c_a} sigma_{c_b} 2^{-|k_a-k_b|/2} [supports nested],
    whose top eigenvector gives the best magnitudes.  This needs the pattern
    to be injective along every branch, so that the l1 norm of the image
    splits into per-coordinate absolute values.  A pattern whose Gram matrix
    overflows is skipped.
    """
    sigma = T.diagonal_magnitudes()
    if sigma is None or T.codomain.norm is not Norm.L1:
        return []
    dim = T.domain.dim
    out = []

    # closed-form level profile: amplitude sigma_c at depth c below the top
    # level; on full trees and bands this attains the Cauchy-Schwarz optimum
    # of the branchwise ratio, and it stays cheap for large sets
    k_min = int(ids[0]).bit_length()
    if int(ids[-1]).bit_length() - k_min < dim:
        profile = _level_profile(dim, ids, k_min, sigma)
        if profile.rows.any():
            out.append(profile)

    if len(ids) > 300:
        return out
    nodes = ids.tolist()
    pairs, factors = _nesting(nodes)
    for coords in _coordinate_patterns(nodes, pairs, sigma):
        s = sigma[list(coords)]
        A = np.outer(s, s)
        A *= factors
        if not np.isfinite(A).all():
            continue
        rows = np.zeros((len(ids), dim))
        rows[np.arange(len(ids)), coords] = np.abs(np.linalg.eigh(A)[1][:, -1])
        out.append(HaarCombination._from_arrays(dim, ids, rows))
    return out


# the ascent runs on index sets of at most this many indices (n <= 10 for
# the full trees of tau_p); larger sets keep the closed-form candidates
_ASCENT_MAX_INDICES = 2000

# restarts stacked in one ascent batch: as many as keep restarts x cells x
# codomain dim, the size of a workspace's cell-order gathers, within this
# many floats; a set whose cells alone pass it runs one restart at a time
_BATCH_FLOATS = 1 << 20

# OpenBLAS's ddot, behind np.vecdot, splits a row across threads, and so
# rounds by thread count, past this many elements
_DOT_SPLIT = 10_000


def _row_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The row dot products of two arrays (..., length), whatever the BLAS
    thread count: np.vecdot, summed in runs of _DOT_SPLIT added in order
    where a row is longer."""
    if a.shape[-1] <= _DOT_SPLIT:
        return np.vecdot(a, b, out=out)
    out = np.vecdot(a[..., :_DOT_SPLIT], b[..., :_DOT_SPLIT], out=out)
    for lo in range(_DOT_SPLIT, a.shape[-1], _DOT_SPLIT):
        out += np.vecdot(a[..., lo : lo + _DOT_SPLIT], b[..., lo : lo + _DOT_SPLIT])
    return out


class _Workspace:
    """The arrays an iterate of a batch of `restarts` restarts writes:
    `grid`, the plan's (dyadic._GatherWorkspace, whose S receives T X),
    the norms, the dual rows, the gradient, the cells' powers and scale,
    and the per-restart sums.  It holds none of the problem, and serves
    the batch to its last iterate, stopped restarts included."""

    def __init__(self, problem: "_AscentProblem", restarts: int):
        R, m, plan = restarts, len(problem.ids), problem.plan
        d, e = problem.T.domain.dim, problem.T.codomain.dim
        # G and the dual rows live from an analysis to the next synthesis
        self.grid = _GatherWorkspace(plan, (R, m, e), spare=2 * R * m * d)
        self.G, self.duals = self.grid.spare.reshape(2, R, m, d)
        self.nu = np.empty((R, plan.leaves))
        self.cell_powers = np.empty((R, plan.cells))
        self.cell_scale = np.empty((R, plan.leaves))
        self.norms = np.empty((R, m))
        self.sums, self.factors, self.nums, self.dens = np.empty((4, R))
        self.factors_col, self.cell_scale_col = self.factors[:, None], self.cell_scale[..., None]
        self.nums_col, self.dens_col = self.nums[:, None, None], self.dens[:, None, None]
        self.G_rows = self.G.reshape(R, m * d)
        if problem.p is not None:
            self.powers, self.positive = np.empty((R, m)), np.empty((R, m), dtype=bool)


class _AscentProblem:
    """Shared geometry for the projected subgradient ascent.

    Coefficients are stored as a matrix X with one row per index (sorted
    order, so each level's indices are a block of rows), the layout of a
    HaarCombination's rows; the denominator is evaluated directly from the
    rows, the numerator on the dyadic grid at the finest level.  The grid
    holds one row per leaf of the set's own dyadic partition (fewer than
    the cells for a sparse or deep set): its cells hold the same bits, so
    the codomain norms, the dual rows and the cell scale are taken per
    leaf.  The sums whose bits depend on the number and the order of the
    cells, the numerator's and the gradient's sums of nu and the half sums
    of analysis, still run over the cells.

    The problem builds the gather plan of its heap ids (dyadic._GatherPlan)
    once, and every iterate runs through it: synthesis of the grid of T f
    is one gather of the scaled rows and one reduction over the levels, and
    its adjoint, the per-index sums of the gradient, one gather of the
    cells in the order the half sums need and one reduction per level.
    Both give the same floats as a loop over the indices one at a time.
    Each iterate is synthesised once, and its ratio and gradient share that
    grid.  The rated witnesses take their norms on the plan's _GridLevels
    (plan.grid), the kernel of their heap ids.

    The restarts of one estimate run in lockstep: X is a batch (R, m, d),
    one restart per entry of the leading axis, and every array operation of
    an iterate serves the whole batch.  A restart gets the bits it would get
    alone because each array operation keeps the restarts apart: the grid
    kernel and the row norms reduce along the trailing axes of each entry,
    a dense operator multiplies each entry as its own matrix product (one
    product over the rows of all restarts flattened to 2-D rounds some
    entries differently), and the squared sums, ||G|| among them, are one
    dot product per restart (_row_dot), as x @ x and np.linalg.norm take
    them, summed in runs of at most _DOT_SPLIT elements where a row is
    longer, so no BLAS thread count moves them.  The per-restart scalars
    (numerator, denominator, ratio, num ** (1 - p)) stay Python float
    operations, in the forms a lone restart uses: numpy's array power
    rounds differently from a scalar power in the last bit, which moves
    bounds.  A batch keeps its shape from its first iterate to its last: a
    restart that stops stays in it as zero rows, which no reduction shares
    with another restart.  The polish ascent is a batch of one.

    The caller passes each iterate method a workspace (_Workspace) of the
    batch's shape, and every array an iterate writes goes to it through
    out=, with the operands, order and reduction axes of a fresh result,
    so no bit moves.  ascend builds one per call; the problem holds none.
    """

    def __init__(self, T: OperatorSpec, ids: np.ndarray, p: float | None):
        self.T = T
        self.ids = ids  # sorted heap ids
        self.p = p
        self.plan = _GatherPlan(_GridLevels(self.ids))
        self.batch = max(1, _BATCH_FLOATS // (self.plan.cells * T.codomain.dim))
        if p is not None:
            self.weights = np.empty(len(self.ids))
            for k, lo, hi in _level_runs(self.ids):
                self.weights[lo:hi] = _level_weight(k, p)

    def evaluate(self, X: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid values V (R, leaves, d') of T f, one row per leaf of the
        plan, their codomain norms nu, and nu on the cells (R, cells),
        gathered once for the iterate's ratio and its gradient."""
        V = self.plan.synthesis(self.T.apply_rows(X, out=ws.grid.S), ws.grid)
        nu = self.T.codomain.norms_of(V, out=ws.nu)
        return V, nu, self.plan.to_cells(nu, -1)

    def _power_numerators(self, cell_nu: np.ndarray, q: float, ws: _Workspace) -> list[float]:
        """(mean of cell_nu ** q) ** (1/q) per restart."""
        sums = np.add.reduce(np.power(cell_nu, q, out=ws.cell_powers), axis=-1, out=ws.sums)
        # a Python division by cells: the array's division, the same bits
        return [(s / self.plan.cells) ** (1.0 / q) for s in sums.tolist()]

    def numerators(self, cell_nu: np.ndarray, ws: _Workspace) -> list[float]:
        if self.p is None:
            sums = _row_dot(cell_nu, cell_nu, out=ws.sums).tolist()
            return [math.sqrt(s / self.plan.cells) for s in sums]
        return self._power_numerators(cell_nu, self.p, ws)

    def denominators(self, norms: np.ndarray, ws: _Workspace) -> list[float]:
        """Denominators from the domain norms (R, m) of the rows."""
        if self.p is None:
            return [math.sqrt(s) for s in _row_dot(norms, norms, out=ws.sums).tolist()]
        powers = np.power(norms, self.p, out=ws.powers)
        # each s is a numpy float64: numpy's scalar power, as one restart takes it
        return [float(s ** (1.0 / self.p)) for s in _row_dot(powers, self.weights, out=ws.sums)]

    def ratios(self, norms: np.ndarray, cell_nu: np.ndarray, ws: _Workspace) -> list[float]:
        return [
            num / den if den > 0 else 0.0
            for num, den in zip(self.numerators(cell_nu, ws), self.denominators(norms, ws))
        ]

    def gradient(
        self,
        X: np.ndarray,
        norms: np.ndarray,
        V: np.ndarray,
        nu: np.ndarray,
        cell_nu: np.ndarray,
        ws: _Workspace,
    ) -> np.ndarray:
        """Subgradient of the ratio at each restart of X with domain norms
        `norms` and grids (V, nu, cell_nu) from evaluate, assuming each
        denominator is 1; zero where the numerator is.  The gradient cells
        are built in V's place, so V is overwritten and one grid per restart
        is held at a time."""
        pnum = 2.0 if self.p is None else self.p
        nums = self._power_numerators(cell_nu, pnum, ws)
        ws.factors[:] = [num ** (1.0 - pnum) / self.plan.cells if num else 0.0 for num in nums]
        # nu ** 1.0 is nu, bit for bit
        cell_scale = nu if self.p is None else np.power(nu, pnum - 1.0, out=ws.cell_scale)
        np.multiply(cell_scale, ws.factors_col, out=ws.cell_scale)
        G_cells = self.T.codomain.dual_rows(V, out=V, norms=nu)
        G_cells *= ws.cell_scale_col
        G = self.T.transpose_apply_rows(self.plan.analysis(G_cells, ws.grid), out=ws.G)

        # G_den, the denominator's gradient, in the dual rows' place
        G_den = self.T.domain.dual_rows(X, out=ws.duals, norms=norms)
        if self.p is None:
            G_den *= norms[..., None]
        else:
            # pw = weights * where(norms > 0, norms, 1) ** (p - 1) * (norms > 0)
            positive = np.greater(norms, 0, out=ws.positive)
            pw = ws.powers
            pw[...] = 1.0
            np.copyto(pw, norms, where=positive)
            np.power(pw, self.p - 1.0, out=pw)
            np.multiply(self.weights, pw, out=pw)
            np.multiply(pw, positive, out=pw)
            G_den *= pw[..., None]
        ws.nums[:] = nums
        np.multiply(ws.nums_col, G_den, out=G_den)
        np.subtract(G, G_den, out=G)
        if 0.0 in nums:
            G[[r for r, num in enumerate(nums) if num == 0.0]] = 0.0
        return G

    def random_starts(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` starts (count, m, d) from one draw, which gives the same
        numbers as `count` draws of (m, d) one after another."""
        X = rng.standard_normal((count, len(self.ids), self.T.domain.dim))
        return X * (1.0 / self.plan.grid.scale)[:, None]

    def ascend(self, X0: np.ndarray, iterations: int) -> np.ndarray:
        """The best iterate of each restart of X0 (R, m, d), ascended in
        lockstep in one workspace.  A restart whose denominator is zero or
        whose gradient vanishes stops there: its rows of X and G become
        zero and its gn 1.0, so its numerator and its gradient stay zero
        and its ratio, 0.0, never beats its best.  Denominators of zero
        divide as 1.0, so a zero start is its own best.  The loop ends when
        every restart has stopped.  The step and the normalisation run in
        place, with the bits of X + step * (G / gn) and X / den.  Each
        restart's best ratio is kept as the Python float that ratios
        returns."""
        norms_of = self.T.domain.norms_of
        ws = _Workspace(self, len(X0))
        dens = self.denominators(norms_of(X0, out=ws.norms), ws)
        ws.dens[:] = [den or 1.0 for den in dens]
        best = X0 / ws.dens_col
        X = best.copy()
        X[[i for i, den in enumerate(dens) if den == 0.0]] = 0.0
        norms = norms_of(X, out=ws.norms)
        V, nu, cell_nu = self.evaluate(X, ws)
        best_r = self.ratios(norms, cell_nu, ws)
        for step in [0.35 / math.sqrt(1.0 + it) for it in range(iterations)]:
            G = self.gradient(X, norms, V, nu, cell_nu, ws)  # ws.G
            del V, cell_nu  # free a level-loop grid before the next one is built
            gn = _row_dot(ws.G_rows, ws.G_rows, out=ws.sums)
            gn = np.sqrt(gn, out=gn)  # np.linalg.norm of each G[i]
            if stopped := [i for i, g in enumerate(gn.tolist()) if g < 1e-14]:
                if len(stopped) == len(X):
                    break
                X[stopped], G[stopped], gn[stopped] = 0.0, 0.0, 1.0
            G /= gn[:, None, None]
            G *= step
            X += G
            dens = self.denominators(norms_of(X, out=ws.norms), ws)
            if 0.0 in dens:
                X[[i for i, den in enumerate(dens) if den == 0.0]] = 0.0
                dens = [den or 1.0 for den in dens]
            ws.dens[:] = dens
            X /= ws.dens_col
            norms = norms_of(X, out=ws.norms)
            V, nu, cell_nu = self.evaluate(X, ws)
            ratios = self.ratios(norms, cell_nu, ws)
            if better := [i for i, (r, b) in enumerate(zip(ratios, best_r)) if r > b]:
                for i in better:
                    best_r[i] = ratios[i]
                best[better] = X[better]
        return best

    def to_combination(self, X: np.ndarray) -> HaarCombination:
        return HaarCombination._from_arrays(self.T.domain.dim, self.ids, X)

    def from_combination(self, f: HaarCombination) -> np.ndarray:
        X = np.zeros((len(self.ids), self.T.domain.dim))
        inside = np.isin(f.heap_ids, self.ids)
        X[np.searchsorted(self.ids, f.heap_ids[inside])] = f.rows[inside]
        return X


# a candidate: its witness, the method that found it, and its public ratio
_Candidate = tuple[HaarCombination, EstimateMethod, float]


def _best(candidates: Iterable[_Candidate]) -> _Candidate:
    """The candidate of largest ratio; max keeps the first of equal ratios,
    in the order the candidates were built."""
    return max(candidates, key=lambda c: c[2])


def _rating(T: OperatorSpec, f: HaarCombination, p: float | None, grid=None) -> float:
    """The public ratio of f; `grid`, where given, is the _GridLevels of f's
    heap ids (_ratio).

    Raises a DomainError naming the operator when float arithmetic
    overflows, that is when the ratio is not finite: a bound from the
    candidates that stay finite would ignore the directions in which T is
    largest.  tau is homogeneous in T, so a scaled operator gives the bound.
    """
    try:
        r = _ratio(T, f, p, grid)
    except OverflowError:
        r = math.nan
    if not math.isfinite(r):
        raise DomainError("a witness's ratio overflows float arithmetic", "operator")
    return r


def _ascent_candidate(
    problem: _AscentProblem, batches: Iterable[np.ndarray], iterations: int
) -> _Candidate:
    """The best rated iterate of the ascents from the start batches.  Each
    batch is rated as it ends, so one batch is held at a time.  The witness
    has rows of its own: the winner is scaled in place, and a view would
    keep the whole batch alive with it."""
    T, p, grid = problem.T, problem.p, problem.plan.grid
    method = EstimateMethod.RANDOM_RESTART_ASCENT
    witnesses = (
        problem.to_combination(X.copy())
        for starts in batches
        for X in problem.ascend(starts, iterations)
    )
    return _best((f, method, _rating(T, f, p, grid)) for f in witnesses)


def _random_batches(problem: _AscentProblem, seed: int, restarts: int) -> Iterator[np.ndarray]:
    """random_starts(default_rng(seed), restarts), drawn a batch at a time: the same numbers."""
    rng = np.random.default_rng(seed)
    for lo in range(0, restarts, problem.batch):
        yield problem.random_starts(rng, min(problem.batch, restarts - lo))


def _best_column_candidate(T: OperatorSpec, node: int) -> HaarCombination:
    """Unit coordinate vector on the index with heap id `node`; always a
    valid lower bound."""
    images = T.apply_rows(np.eye(T.domain.dim))
    best = int(np.argmax(T.codomain.norms_of(images)))
    x = np.zeros((1, T.domain.dim))
    x[0, best] = 1.0
    return HaarCombination._from_arrays(T.domain.dim, np.array([node]), x)


def _estimate(
    T: OperatorSpec,
    ids: np.ndarray | range,
    p: float | None,
    cheap: Callable[[], list[HaarCombination | None]],
    polish: Callable[[list[_Candidate]], HaarCombination | None],
    restarts: int,
    iterations: int,
    seed: int,
) -> TauEstimate:
    """The estimate of tau (p None) or tau_p on the nonempty sorted heap ids
    `ids`, with checked budgets.  An l2 -> l2 operator at p None or 2 has
    ratio at most its top singular value on any set, which a top right
    singular vector on the first index attains: that is the estimate, with
    restarts and iterations 1.  Otherwise the witnesses cheap() lists (None
    for one that does not apply) are rated in list order, so an operator
    that overflows float arithmetic is rejected before the search.  On at
    most _ASCENT_MAX_INDICES ids the restarts ascend, then one polish
    ascent starts from polish(candidates so far) unless that is None; only
    there does `ids`, a range for a full tree, become an array.  The best
    candidate, scaled to denominator 1, gives the bound.  Overflow inside
    the numerics is silent, since every ratio that counts is checked to be
    finite (_rating)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if (p is None or p == 2.0) and T.domain.norm is Norm.L2 and T.codomain.norm is Norm.L2:
            v = _top_singular_vector(T.as_matrix())
            f = HaarCombination._from_arrays(T.domain.dim, np.array([int(ids[0])]), v[None, :])
            candidates = [(f, EstimateMethod.POWER_ITERATION, _rating(T, f, p))]
            restarts = iterations = 1
        else:
            method = EstimateMethod.COORDINATE_ALIGNED
            candidates = [(f, method, _rating(T, f, p)) for f in cheap() if f is not None]
            if len(ids) <= _ASCENT_MAX_INDICES:
                problem = _AscentProblem(T, np.asarray(ids), p)
                batches = _random_batches(problem, seed, restarts)
                candidates.append(_ascent_candidate(problem, batches, iterations))
                if (start := polish(candidates)) is not None:
                    start = problem.from_combination(start)[None]
                    candidates.append(_ascent_candidate(problem, [start], iterations))
        best_f, best_method, _r = _best(candidates)
        # the losing witnesses, whose rows can be as large as the winner's,
        # are freed before the winner is scaled; nothing else reads its rows
        candidates.clear()
        den = _denominator(T, best_f, p)
        if den > 0:
            best_f._scale_in_place(1.0 / den)
        return TauEstimate(_rating(T, best_f, p), best_f, best_method, restarts, iterations)


def tau_estimate(
    T: OperatorSpec,
    indices: Iterable[tuple[int, int]],
    restarts: int = 8,
    iterations: int = 60,
    seed: int = 0,
) -> TauEstimate:
    """Certified lower bound for the square-sum ratio over index set F.

    tau_estimate and tau_p_estimate run one pipeline, _estimate: for l2 ->
    l2 one eigensolve of M^T M (the ratio is the top singular value for any
    F); otherwise the cheap candidates, then projected subgradient ascent
    from random starts and a polish.  Three cutoffs bound the search:
    _estimate ascends only on sets of at most _ASCENT_MAX_INDICES indices,
    _coordinate_candidates tries one-coordinate patterns on at most 300
    indices, and _coordinate_patterns every pattern on at most 4.  Here the
    cheap candidates are those coordinate witnesses of a diagonal operator
    into l1 and the best column, and the polish starts from the best
    candidate so far.  The bound is always the ratio of the returned
    witness; an operator that overflows float arithmetic is rejected with a
    DomainError naming the operator before the search.
    """
    _check_budget(restarts, iterations)
    return _tau_estimate(T, _nonempty_heap_ids(indices), restarts, iterations, seed)


def _tau_estimate(
    T: OperatorSpec, ids: np.ndarray, restarts: int, iterations: int, seed: int
) -> TauEstimate:
    """tau_estimate on a nonempty array of sorted heap ids, with checked
    budgets: the entry for sets the package builds itself."""

    def cheap():
        return [*_coordinate_candidates(T, ids), _best_column_candidate(T, int(ids[0]))]

    def polish(candidates):
        return _best(candidates)[0]

    return _estimate(T, ids, None, cheap, polish, restarts, iterations, seed)


def _level_constant_candidate(T: OperatorSpec, n: int, p: float) -> HaarCombination | None:
    """Holder-optimal witness constant on levels, one coordinate per level."""
    sigma = T.diagonal_magnitudes()
    if sigma is None or T.codomain.norm is not Norm.L1 or T.domain.dim < n:
        return None
    lead = sigma[:n]
    if p == 1.0:
        b = np.zeros(n)
        b[int(np.argmax(lead))] = 1.0
    else:
        with np.errstate(divide="ignore"):
            b = np.where(lead > 0, lead ** (1.0 / (p - 1.0)), 0.0)
        if not np.any(b > 0):
            return None
    # the full tree's levels k with b[k - 1] != 0, coordinate k - 1 on level k
    ids = np.concatenate([np.arange(1 << k, 2 << k) for k in np.flatnonzero(b)])
    return _level_profile(T.domain.dim, ids, 1, b)


def tau_p_estimate(
    T: OperatorSpec,
    n: int,
    p: float,
    restarts: int = 8,
    iterations: int = 60,
    seed: int = 0,
) -> TauEstimate:
    """Certified lower bound for the level-weighted p ratio over the full tree.

    It runs tau_estimate's pipeline, cutoffs included, on the tree's heap
    ids (so the ascent runs for n <= 10, and the eigensolve at p = 2 only).
    The cheap candidates are the best column and the level-constant witness
    of a diagonal operator into l1, and the polish starts from the
    level-constant witness where there is one.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}", "depth")
    if not 1 <= p <= 2:
        raise DomainError(f"exponent p must satisfy 1 <= p <= 2, got {p}", "p")
    check_level(n, "tree height", "depth")
    _check_budget(restarts, iterations)

    def cheap():
        return [_best_column_candidate(T, 1), _level_constant_candidate(T, n, p)]

    def polish(_candidates):
        # built again, not kept from cheap(): a kept witness would outlive
        # the candidates, and the pipeline frees the losers before scaling
        return _level_constant_candidate(T, n, p)

    tree = range(1, 1 << n)  # heap ids of the full tree
    return _estimate(T, tree, p, cheap, polish, restarts, iterations, seed)


# ---------------------------------------------------------------------------
# structural checks behind the check command; each returns its report

# slack of the norm comparisons in the triangle and certificate chains
QUADRATURE_TOLERANCE = 1e-9


def _relative_spread(values: list[float]) -> float:
    ref = values[0]
    scale = max(abs(ref), 1e-30)
    return max(abs(v - ref) for v in values) / scale


def comparison_check(
    T: OperatorSpec,
    indices: Iterable[tuple[int, int]],
    restarts: int = 8,
    iterations: int = 60,
    seed: int = 0,
    tolerance: float = 2e-2,
) -> ExperimentReport:
    """Estimate tau on F and on the full tree of height lh(F), then verify
    the domination and the invariance of the compression rewrite."""
    _check_budget(restarts, iterations)
    ids = _nonempty_heap_ids(indices)
    n = _local_height(ids.tolist())
    # the trace first: a target band above the level cap fails before any estimate
    trace = compress(map(from_heap_id, ids.tolist()))
    est_f = _tau_estimate(T, ids, restarts, iterations, seed)
    est_tree = _tau_estimate(T, np.arange(1, 1 << n), restarts, iterations, seed)

    f = est_f.best_witness
    l2_values = [lp_norm_of_combination(apply_operator(T, f), T.codomain, 2.0)]
    sq_values = [f.squared_sum(T.domain)]
    current = f
    for step in trace.steps:
        current = rewrite_combination(current, step)
        l2_values.append(lp_norm_of_combination(apply_operator(T, current), T.codomain, 2.0))
        sq_values.append(current.squared_sum(T.domain))

    res_l2 = _relative_spread(l2_values)
    res_sq = _relative_spread(sq_values)
    row = {
        "localHeight": n,
        "setEstimate": est_f.lower_bound,
        "treeEstimate": est_tree.lower_bound,
        "traceSteps": len(trace.steps),
        "l2Residual": res_l2,
        "squareSumResidual": res_sq,
    }
    checks = [
        check_row(
            "comparison-inequality",
            est_f.lower_bound <= est_tree.lower_bound * (1.0 + tolerance),
            setEstimate=est_f.lower_bound,
            treeEstimate=est_tree.lower_bound,
            tolerance=tolerance,
        ),
        check_row("trace-l2-invariance", res_l2 <= 1e-9, residual=res_l2),
        check_row("trace-square-sum-invariance", res_sq <= 1e-9, residual=res_sq),
    ]
    return ExperimentReport("comparison", {"setSize": len(ids)}, [row], checks)


def monotonicity_check(
    T: OperatorSpec,
    m: int,
    n: int,
    restarts: int = 8,
    iterations: int = 60,
    seed: int = 0,
    tolerance: float = 2e-2,
) -> ExperimentReport:
    """Band estimates: shifting a band down dominates it, and the squeezed
    band D_{m+1}^{m+n} matches the plain tree D_1^n."""
    if m < 1 or n < m:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}", "m" if m < 1 else "depth")
    check_level(m + n, "band level", "depth")  # the top band; m >= 1 puts n + 1 below it
    _check_budget(restarts, iterations)

    def band(lo: int, hi: int) -> float:
        # levels lo..hi are the heap ids 2^(lo-1) .. 2^hi - 1
        ids = np.arange(1 << (lo - 1), 1 << hi)
        return _tau_estimate(T, ids, restarts, iterations, seed).lower_bound

    shifted = band(m + 1, n + 1)
    base = band(m, n)
    squeezed = band(m + 1, m + n)
    tree = band(1, n)

    eq_dev = abs(squeezed - tree) / max(tree, 1e-30)
    checks = [
        check_row(
            "shift-monotonicity",
            shifted <= base * (1.0 + tolerance),
            shifted=shifted,
            base=base,
        ),
        check_row(
            "band-domination",
            squeezed <= tree * (1.0 + tolerance),
            squeezed=squeezed,
            tree=tree,
        ),
        check_row(
            "band-equality",
            eq_dev <= tolerance,
            squeezed=squeezed,
            tree=tree,
            deviation=eq_dev,
        ),
    ]
    bands = {"shiftedBand": shifted, "baseBand": base, "squeezedBand": squeezed, "tree": tree}
    rows = [{"band": label, "lowerBound": bound} for label, bound in bands.items()]
    return ExperimentReport("check-monotonicity", {"m": m, "n": n}, rows, checks)


def triangle_chain_check(T: OperatorSpec, f: HaarCombination, r: float) -> ExperimentReport:
    """Split f by the weight thresholds and verify the resulting chain:
    the pieces partition the support exactly, the triangle inequality holds
    for the L2 norms of the images, and every piece obeys its square-sum
    weight bound.  T maps each row alone, so a piece's image is the image
    of f restricted to the piece, bit for bit."""
    image = apply_operator(T, f)
    supp = frozenset(f.support())
    n = max((k for k, _ in supp), default=1)
    family = level_set_partition(f, n, r, T.domain)

    direct = lp_norm_of_combination(image, T.codomain, 2.0)
    piece_norms = []
    piece_checks = []
    S = family.threshold_base
    for l, piece in enumerate(family.pieces, start=1):
        piece_norms.append(lp_norm_of_combination(image.restricted_to(piece), T.codomain, 2.0))
        sq = f.restricted_to(piece).squared_sum(T.domain)
        bound = band_weight_bound(l, r, S)
        piece_checks.append(sq <= bound * (1.0 + QUADRATURE_TOLERANCE))
    total = math.fsum(piece_norms)

    row = {
        "thresholdBase": S,
        "pieceCount": len(family.pieces),
        "directNorm": direct,
        "pieceNormSum": total,
    }
    checks = [
        check_row(
            "partition-exact",
            is_partition(family.pieces, supp),
            pieces=len(family.pieces),
            supportSize=len(supp),
        ),
        check_row(
            "triangle-inequality",
            direct <= total + QUADRATURE_TOLERANCE,
            direct=direct,
            pieceSum=total,
        ),
        check_row(
            "piece-weight-bounds",
            all(piece_checks),
            pieces=len(family.pieces),
            failing=int(sum(not c for c in piece_checks)),
        ),
    ]
    return ExperimentReport("check-triangle", {"exponent": r}, [row], checks)
