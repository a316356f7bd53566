"""Shared oracles and generators for the test suite."""

import itertools
import math
import tracemalloc
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from haarlab.combination import HaarCombination
from haarlab.combinatorics import GreedyFamily, fill_to_height, level_set_partition
from haarlab.dyadic import (
    DyadicInterval,
    DyadicRational,
    HaarIndex,
    HaarValue,
    _haar_eval,
    _level_runs,
    branch,
    check_haar_index,
    from_heap_id,
    full_tree,
    haar_eval,
    half_power,
    make_index_set,
    max_level_of,
)
from haarlab.errors import DomainError, PreconditionError
from haarlab.normlab import apply_operator, lp_norm_of_combination
from haarlab.spaces import Norm, OperatorKind
from haarlab.transforms import fork_members, swap_point


def brute_local_height(indices) -> int:
    """Reference local height: scan every branch at full resolution."""
    idx = frozenset(HaarIndex(*i) for i in indices)
    if not idx:
        return 0
    top = max_level_of(idx)
    best = 0
    for q in range(1 << top):
        t = DyadicRational(q, top)
        best = max(best, len(idx & branch(t, top)))
    return best


def branch_count_profile(indices, resolution: int) -> list[int]:
    """|F intersect B(t)| for every level-`resolution` cell."""
    idx = frozenset(HaarIndex(*i) for i in indices)
    return [
        len(idx & branch(DyadicRational(q, resolution), resolution))
        for q in range(1 << resolution)
    ]


def all_subsets(pool):
    """Every subset of the given index pool, the empty one included."""
    pool = sorted(pool)
    for mask in range(1 << len(pool)):
        yield frozenset(pool[i] for i in range(len(pool)) if mask & (1 << i))


def random_combination(rng, indices, dim: int) -> HaarCombination:
    """Standard normal coefficients rescaled by 2^(-(k-1)/2) per index."""
    coeffs = {}
    for k, j in sorted(indices):
        coeffs[(k, j)] = rng.standard_normal(dim) * 2.0 ** (-(k - 1) / 2.0)
    return HaarCombination(dim, coeffs)


def quadrature_lp(values, p: float) -> float:
    """Reference L_p norm of a cell-value table under the Euclidean norm."""
    cell_norms = [math.sqrt(float(v @ v)) for v in values]
    return (math.fsum(c**p for c in cell_norms) / len(values)) ** (1.0 / p)


def peak_traced_bytes(call) -> int:
    """The peak of the memory tracemalloc traces while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_subset(rng, pool, size: int):
    pool = sorted(pool)
    chosen = rng.choice(len(pool), size=size, replace=False)
    return frozenset(pool[i] for i in chosen)


def random_exact_height_set(rng, n: int, depth: int) -> frozenset[HaarIndex]:
    """Random F inside the depth-`depth` tree meeting every branch n times."""

    def build(need: int, levels: int, k: int, j: int):
        # (k, j) is the root of the current subtree (as a tree index)
        if need == 0:
            return []
        take_root = need == levels or rng.random() < 0.5
        out = []
        child_need = need
        if take_root:
            out.append(HaarIndex(k, j))
            child_need -= 1
        if child_need > 0:
            out += build(child_need, levels - 1, k + 1, 2 * j - 1)
            out += build(child_need, levels - 1, k + 1, 2 * j)
        return out

    if not 0 <= n <= depth:
        raise ValueError("need 0 <= n <= depth")
    return frozenset(build(n, depth, 1, 1))


# ---------------------------------------------------------------------------
# reference implementations of the fill and compression kernels
#
# Straightforward set-based versions of haarlab's filling and compression,
# kept as oracles: the package's kernels must reproduce them index for index
# and step for step.


class Subtree(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class SubtreeIdentification:
    """Bijection between a half subtree below the root and a full tree.

    The left subtree consists of the indices whose support lies in [0, 1/2),
    the right one of those supported in [1/2, 1); both are order-isomorphic
    to the tree that is one level shorter.
    """

    side: Subtree

    def contains(self, idx: tuple[int, int]) -> bool:
        k, j = idx
        if k < 2:
            return False
        half = 1 << (k - 2)
        if self.side is Subtree.LEFT:
            return 1 <= j <= half
        return half < j <= 2 * half

    def to_parent(self, idx: tuple[int, int]) -> HaarIndex:
        if not self.contains(idx):
            raise DomainError(f"index {idx} is not in the {self.side.value} subtree")
        k, j = idx
        if self.side is Subtree.LEFT:
            return HaarIndex(k - 1, j)
        return HaarIndex(k - 1, j - (1 << (k - 2)))

    def from_parent(self, idx: tuple[int, int]) -> HaarIndex:
        k, j = check_haar_index(*idx)
        if self.side is Subtree.LEFT:
            return HaarIndex(k + 1, j)
        return HaarIndex(k + 1, j + (1 << (k - 1)))


_LEFT = SubtreeIdentification(Subtree.LEFT)
_RIGHT = SubtreeIdentification(Subtree.RIGHT)


def contains_interval(outer: DyadicInterval, inner: DyadicInterval) -> bool:
    """Whether the dyadic cell `inner` lies inside the cell `outer`."""
    lo_ok = (outer.position - 1) << inner.level <= (inner.position - 1) << outer.level
    hi_ok = inner.position << outer.level <= outer.position << inner.level
    return lo_ok and hi_ok


def reference_fill(indices, l: int, n: int) -> HaarIndex:
    """One free index keeping the height of F within l, found by recursing
    into the half subtrees (fill_one's choice)."""
    indices = frozenset(HaarIndex(*x) for x in indices)
    if l == 1 or l == n:
        # any free index keeps the height within budget here; pick the
        # lexicographically smallest for determinism
        for k in range(1, n + 1):
            for j in range(1, (1 << (k - 1)) + 1):
                idx = HaarIndex(k, j)
                if idx not in indices:
                    return idx
        raise AssertionError("cardinality precondition guarantees a free index")
    left = frozenset(_LEFT.to_parent(x) for x in indices if _LEFT.contains(x))
    if HaarIndex(1, 1) not in indices:
        return _LEFT.from_parent(reference_fill(left, l, n - 1))
    right = frozenset(_RIGHT.to_parent(x) for x in indices if _RIGHT.contains(x))
    # the root uses up one unit of height, so the smaller side still has
    # room under the reduced budget; ties go left
    if len(left) <= len(right):
        return _LEFT.from_parent(reference_fill(left, l - 1, n - 1))
    return _RIGHT.from_parent(reference_fill(right, l - 1, n - 1))


def reference_fill_sequence(indices, l: int, n: int) -> list:
    """Indices added by repeated reference_fill up to cardinality 2^l - 1,
    in the order they are added (the first one is fill_one's answer)."""
    current = {HaarIndex(*x) for x in indices}
    added = []
    while len(current) < (1 << l) - 1:
        x = reference_fill(frozenset(current), l, n)
        current.add(x)
        added.append(x)
    return added


def _reference_image(h: int, i: int, k: int, j: int) -> HaarIndex:
    """Image of a non-member index under the swap at (h, i), from the
    containment of its support in the two swapped quarter cells."""
    if k >= h + 2:
        cell = DyadicInterval(k - 1, j)
        if contains_interval(DyadicInterval(h + 1, 4 * i - 2), cell):
            return HaarIndex(k, j + (1 << (k - h - 2)))
        if contains_interval(DyadicInterval(h + 1, 4 * i - 1), cell):
            return HaarIndex(k, j - (1 << (k - h - 2)))
    return HaarIndex(k, j)


def reference_fork_split(indices, h: int, i: int) -> frozenset:
    out = {HaarIndex(h + 1, 2 * i - 1), HaarIndex(h + 1, 2 * i)}
    for k, j in indices:
        if (k, j) != (h, i):
            out.add(_reference_image(h, i, k, j))
    return frozenset(out)


def reference_compress(indices):
    """(steps, final set, m) of compress(), re-sorting the set every step
    and firing at the first admissible index below the target level."""
    start = frozenset(HaarIndex(*x) for x in indices)
    n = brute_local_height(start)
    m = max(1, max_level_of(start) - n)
    top = m + n
    current = start
    steps = []
    while True:
        fired = None
        for h, i in sorted(current):
            if (
                h < top
                and HaarIndex(h + 1, 2 * i - 1) not in current
                and HaarIndex(h + 1, 2 * i) not in current
            ):
                fired = (h, i)
                break
        if fired is None:
            return tuple(steps), current, m
        current = reference_fork_split(current, *fired)
        steps.append(fired)


def branch_weight_profile(f, indices, space=None):
    """Weights 2^((k-1)/2)*||x|| of f restricted to the given indices, the
    norm that of space (Euclidean when None)."""
    norm = space_norm(space)
    keep = make_index_set(indices)
    return {idx: half_power(idx.k - 1) * norm(x) for idx, x in f.items() if idx in keep}


def reference_level_set_partition(f, n, r, norm_fn):
    """(pieces, S_r) of level_set_partition with weights from a dict of
    per-index norms norm_fn(x), and the branch sums added index by index in
    (k, j) order."""
    support = f.support()
    powers = {
        idx: (half_power(idx[0] - 1) * norm_fn(x)) ** r
        for idx, x in f.items()
        if idx in support
    }
    sums = np.zeros(1 << n)
    for (k, j), wr in sorted(powers.items()):
        width = 1 << (n - (k - 1))
        sums[(j - 1) * width : j * width] += wr
    base_power = float(sums.max()) if powers else 0.0
    if base_power == 0.0:
        return (), 0.0
    bands = {}
    for idx, wr in powers.items():
        l = 1
        while math.ldexp(base_power, -l) >= wr:
            l += 1
        bands.setdefault(l, set()).add(idx)
    pieces = tuple(frozenset(bands.get(l, ())) for l in range(1, max(bands) + 1))
    return pieces, base_power ** (1.0 / r)


def reference_greedy_family(f, n, p, space=None) -> GreedyFamily:
    """greedy_family through the public path: the bands of
    level_set_partition, each padded by fill_to_height when the cumulative
    cardinality falls short, as frozensets of indices."""
    partition = level_set_partition(f, n, p, space)
    m = n.bit_length() - 1
    tree = full_tree(n)
    if not partition.pieces:
        return GreedyFamily((frozenset(),) * m + (tree,), m, 0.0, (False,) * m)
    used, pieces, padded = set(), [], []
    cumulative = 0
    for l in range(1, m + 1):
        band = partition.pieces[l - 1] if l <= len(partition.pieces) else frozenset()
        target = (1 << (1 << l)) - 1
        padded.append(cumulative + len(band) < target)
        if padded[-1]:
            band = band | fill_to_height(band, 1 << l, n)
        piece = band - used
        pieces.append(piece)
        used |= piece
        cumulative += len(piece)
    pieces.append(tree - used)
    return GreedyFamily(tuple(pieces), m, partition.threshold_base, tuple(padded))


# ---------------------------------------------------------------------------
# reference fork relation check in exact Fractions
#
# haarlab checks the relations on integer pairs scaled by the common
# denominator of the coefficient table; this is the Fraction arithmetic over
# the public point maps it replaced, kept as the oracle it must agree with.

_ZERO_PAIR = (Fraction(0), Fraction(0))


def _pair_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _pair_mul(a, b):
    return (a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _haar_value_pair(k, j, t):
    v = haar_eval(k, j, t)
    if v.sign == 0:
        return _ZERO_PAIR
    q, r = divmod(v.half_exponent, 2)
    if r == 0:
        return (Fraction(v.sign * (1 << q)), Fraction(0))
    return (Fraction(0), Fraction(v.sign * (1 << q)))


def reference_fork_relations_hold(fork, grid_level, rows) -> bool:
    members = fork_members(fork)
    for q in range(1 << grid_level):
        t = DyadicRational(q, grid_level)
        u = swap_point(fork, t)
        basis_at_t = [_haar_value_pair(k, j, t) for k, j in members]
        for row, member in zip(rows, members):
            lhs = _haar_value_pair(member.k, member.j, u)
            rhs = _ZERO_PAIR
            for coeff, val in zip(row, basis_at_t):
                rhs = _pair_add(rhs, _pair_mul(coeff, val))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# per-vector and per-point twins of the package's array paths
#
# haarlab computes norms, subgradients and operator images a whole array of
# rows at a time (NormedSpaceSpec.norm_of_each, dual_rows,
# normlab.apply_operator) and point values through the grid kernel; these
# take one vector or one point, the definitions the array paths must
# reproduce.


def reference_norm_of(space, v) -> float:
    v = np.asarray(v, dtype=float)
    if space.norm is Norm.L1:
        return float(np.abs(v).sum())
    if space.norm is Norm.L2:
        return float(np.sqrt(v @ v))
    return float(np.abs(v).max()) if v.size else 0.0


def space_norm(space):
    """The norm of one vector in the space (Euclidean when None)."""
    if space is None:
        return lambda x: float(np.linalg.norm(x))
    return lambda x: reference_norm_of(space, x)


def reference_dual_vector(space, v) -> np.ndarray:
    """A subgradient of the norm at v: zero at zero; on linf the sign of the
    first coordinate of largest magnitude, zero elsewhere."""
    v = np.asarray(v, dtype=float)
    if space.norm is Norm.L1:
        return np.sign(v)
    if space.norm is Norm.L2:
        nv = reference_norm_of(space, v)
        return v / nv if nv > 0 else np.zeros_like(v)
    out = np.zeros_like(v)
    if np.any(v != 0):
        pos = int(np.argmax(np.abs(v)))
        out[pos] = np.sign(v[pos])
    return out


def reference_apply(T, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if T.kind is OperatorKind.DIAGONAL:
        return T.entries * x
    return T.matrix @ x


def reference_value_at(f, t: DyadicRational) -> np.ndarray:
    """The value of the combination f at the point t, index by index."""
    out = np.zeros(f.dim)
    for (k, j), x in f.items():
        v = _haar_eval(k, j, t.num, t.level)
        if v.sign != 0:
            out += haar_value_float(v) * x
    return out


def haar_value_float(v: HaarValue) -> float:
    """The float of sign * 2^(half_exponent / 2), with at most one rounding."""
    return 0.0 if v.sign == 0 else v.sign * half_power(v.half_exponent)


# ---------------------------------------------------------------------------
# reference implementations of the grid kernel
#
# haarlab's norms and ascent synthesise the grid level by level; these loops
# add one Haar function at a time in (k, j) order, which is the definition
# the level-by-level kernel must reproduce bit for bit.


def reference_cell_values(f: HaarCombination, grid_level: int) -> np.ndarray:
    values = np.zeros((1 << grid_level, f.dim))
    for (k, j), x in f.items():
        width = 1 << (grid_level - k)
        start = (2 * j - 2) * width
        scaled = half_power(k - 1) * x
        values[start : start + width] += scaled
        values[start + width : start + 2 * width] -= scaled
    return values


def reference_analysis(ids: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The adjoint of synthesis one index at a time: per index, 2^((k-1)/2)
    times the sum of the cells (2^top, dim) over the left half of its
    support minus the sum over the right half.  A half of one cell is that
    cell, as the kernels take it: a sum starts at +0.0 and would turn a
    -0.0 cell into +0.0."""
    top = int(ids[-1]).bit_length()
    out = np.empty((len(ids), cells.shape[-1]))
    for a, node in enumerate(ids.tolist()):
        k, j = from_heap_id(node)
        width = 1 << (top - k)
        lo, mid = (2 * j - 2) * width, (2 * j - 1) * width
        if width == 1:
            left, right = cells[lo], cells[mid]
        else:
            left, right = cells[lo:mid].sum(axis=0), cells[mid : mid + width].sum(axis=0)
        out[a] = half_power(k - 1) * (left - right)
    return out


def brute_partition_firsts(ids: np.ndarray) -> list[int]:
    """The first cell of each leaf of the minimal partition of the 2^top
    cells of the top level on which every index of the sorted heap ids
    `ids` is constant: a new leaf starts at every cell whose (index, half)
    membership differs from the cell before it."""
    members = set(ids.tolist())
    top = int(ids[-1]).bit_length()

    def membership(cell: int) -> set[tuple[int, int]]:
        """(heap id, half) of each index whose support holds the cell."""
        out = set()
        for k in range(1, top + 1):
            node = (1 << (k - 1)) + (cell >> (top - k + 1))
            if node in members:
                out.add((node, (cell >> (top - k)) & 1))
        return out

    cells = [membership(cell) for cell in range(1 << top)]
    return [c for c in range(1 << top) if c == 0 or cells[c] != cells[c - 1]]


def level_loop_partition_synthesis(cell_grid, widths: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The gather plan's synthesis as a level loop with masked ufuncs:
    on the leaves of widths `widths` (cells per leaf) of the partition of
    the cell kernel `cell_grid`, the level-k step reads the leaves under
    the level's indices, adds the scaled row on the left halves, subtracts
    it on the right halves and scatters them back."""
    bounds = np.concatenate([[0], np.cumsum(widths)])
    out = np.zeros(rows.shape[:-2] + (len(widths), rows.shape[-1]))
    for k, lo, hi, _positions, scale in cell_grid.levels:
        w = 1 << (cell_grid.top - k)  # a half support, in cells
        starts = (cell_grid.ids[lo:hi] - (1 << (k - 1))) * (2 * w)
        a, b, c = np.searchsorted(bounds, [starts, starts + w, starts + 2 * w])
        counts = c - a
        row = np.repeat(np.arange(len(starts)), counts)
        leaf = np.arange(len(row)) + np.repeat(a - np.cumsum(counts) + counts, counts)
        left = (leaf < b[row])[:, None]
        block = (rows[..., lo:hi, :] * scale).take(row, axis=-2)
        parents = out.take(leaf, axis=-2)
        np.add(parents, block, out=parents, where=left)
        np.subtract(parents, block, out=parents, where=~left)
        out[..., leaf, :] = parents
    return out


class ReferenceAscentProblem:
    """The projected subgradient ascent with per-index grid loops, and a
    fresh grid for the ratio and for the gradient of each iterate, on the
    indices with the given sorted heap ids.  One restart at a time: the
    batch methods random_starts and ascend loop over the serial ones."""

    batch = 1  # the estimate draws its starts one restart at a time
    plan = SimpleNamespace(grid=None)  # the witnesses' ratios build their own grid kernel

    def __init__(self, T, ids, p):
        self.T = T
        self.idx = idx = [from_heap_id(int(node)) for node in ids]
        self.p = p
        self.kmax = max(k for k, _ in idx)
        self.cells = 1 << self.kmax
        self.slices = []
        self.scale = np.array([half_power(k - 1) for k, _ in idx])
        for k, j in idx:
            width = 1 << (self.kmax - k)
            lo = (2 * j - 2) * width
            self.slices.append((lo, lo + width, lo + 2 * width))
        if p is not None:
            self.weights = np.array([2.0 ** ((k - 1) * (p / 2.0 - 1.0)) for k, _ in idx])

    def grid_values(self, Y):
        V = np.zeros((self.cells, Y.shape[1]))
        for a, (lo, mid, hi) in enumerate(self.slices):
            V[lo:mid] += self.scale[a] * Y[a]
            V[mid:hi] -= self.scale[a] * Y[a]
        return V

    def numerator(self, X):
        Y = self.T.apply_rows(X)
        nu = self.T.codomain.norms_of(self.grid_values(Y))
        if self.p is None:
            return math.sqrt(float(nu @ nu) / self.cells)
        return float((nu**self.p).sum() / self.cells) ** (1.0 / self.p)

    def denominator(self, X):
        norms = self.T.domain.norms_of(X)
        if self.p is None:
            return math.sqrt(float(norms @ norms))
        return float((self.weights @ norms**self.p) ** (1.0 / self.p))

    def ratio(self, X):
        den = self.denominator(X)
        return self.numerator(X) / den if den > 0 else 0.0

    def gradient(self, X):
        Y = self.T.apply_rows(X)
        V = self.grid_values(Y)
        nu = self.T.codomain.norms_of(V)
        pnum = 2.0 if self.p is None else self.p
        num = float((nu**pnum).sum() / self.cells) ** (1.0 / pnum)
        if num == 0.0:
            return np.zeros_like(X)
        cell_scale = (nu ** (pnum - 1.0)) * (num ** (1.0 - pnum) / self.cells)
        G_cells = self.T.codomain.dual_rows(V) * cell_scale[:, None]
        G_Y = np.empty_like(Y)
        for a, (lo, mid, hi) in enumerate(self.slices):
            G_Y[a] = self.scale[a] * (
                G_cells[lo:mid].sum(axis=0) - G_cells[mid:hi].sum(axis=0)
            )
        G_num = self.T.transpose_apply_rows(G_Y)
        norms = self.T.domain.norms_of(X)
        duals = self.T.domain.dual_rows(X)
        if self.p is None:
            G_den = duals * norms[:, None]
        else:
            safe = np.where(norms > 0, norms, 1.0)
            pw = self.weights * safe ** (self.p - 1.0) * (norms > 0)
            G_den = duals * pw[:, None]
        return G_num - num * G_den

    def random_start(self, rng):
        X = rng.standard_normal((len(self.idx), self.T.domain.dim))
        return X * (1.0 / self.scale)[:, None]

    def random_starts(self, rng, count):
        return np.array([self.random_start(rng) for _ in range(count)])

    def ascend(self, X0s, iterations):
        return np.array([self.ascend_one(X0, iterations) for X0 in X0s])

    def ascend_one(self, X0, iterations):
        den = self.denominator(X0)
        if den == 0.0:
            return X0
        X = X0 / den
        best, best_r = X.copy(), self.ratio(X)
        for it in range(iterations):
            G = self.gradient(X)
            gn = np.linalg.norm(G)
            if gn < 1e-14:
                break
            X = X + (0.35 / math.sqrt(1.0 + it)) * (G / gn)
            den = self.denominator(X)
            if den == 0.0:
                break
            X = X / den
            r = self.ratio(X)
            if r > best_r:
                best_r, best = r, X.copy()
        return best

    def to_combination(self, X):
        return HaarCombination(self.T.domain.dim, dict(zip(self.idx, X)))

    def from_combination(self, f):
        return np.array([f.coefficient(a) for a in self.idx])


# ---------------------------------------------------------------------------
# reference combination: one coefficient vector per index in a dict
#
# haarlab's HaarCombination keeps heap ids and one coefficient array, and the
# norm functions work on the whole array at once; this is the dict-backed
# class with per-entry loops they replaced, kept as the oracle they must
# reproduce bit for bit.


class ReferenceHaarCombination:
    """Immutable vector-coefficient combination stored as a mapping from
    index to coefficient vector, in lexicographic key order."""

    def __init__(self, dim, coefficients):
        if dim < 1:
            raise DomainError(f"coefficient dimension must be >= 1, got {dim}")
        self.dim = dim
        make_index_set(coefficients)
        coeffs = {}
        for (k, j), raw in coefficients.items():
            idx = HaarIndex(k, j)
            x = np.asarray(raw, dtype=float)
            if x.shape != (dim,):
                raise DomainError(f"coefficient at {idx} has shape {x.shape}, expected ({dim},)")
            x = x.copy()
            x.flags.writeable = False
            coeffs[idx] = x
        self._coeffs = dict(sorted(coeffs.items()))

    def items(self):
        return iter(self._coeffs.items())

    def indices(self):
        return frozenset(self._coeffs)

    def support(self):
        return frozenset(idx for idx, x in self._coeffs.items() if np.any(x != 0.0))

    def coefficient(self, idx):
        got = self._coeffs.get(HaarIndex(*idx))
        return np.zeros(self.dim) if got is None else got

    def __len__(self):
        return len(self._coeffs)

    def max_level(self):
        return max((k for (k, _j) in self._coeffs), default=0)

    def restricted_to(self, indices):
        keep = frozenset(HaarIndex(*i) for i in indices)
        return ReferenceHaarCombination(
            self.dim, {idx: x for idx, x in self._coeffs.items() if idx in keep}
        )

    def scaled(self, c):
        return ReferenceHaarCombination(self.dim, {idx: c * x for idx, x in self._coeffs.items()})

    def squared_sum(self, norm_fn=None):
        if norm_fn is None:
            terms = [float(x @ x) for _idx, x in self._coeffs.items()]
        else:
            terms = [norm_fn(x) ** 2 for _idx, x in self._coeffs.items()]
        return math.fsum(terms)


def reference_lp_norm(f, space, p):
    if not f.support():
        return 0.0
    n = f.max_level()
    norms = space.norms_of(reference_cell_values(f, n))
    total = math.fsum(float(v) for v in norms**p)
    return (total * math.ldexp(1.0, -n)) ** (1.0 / p)


def reference_levelwise_rhs_p(f, space, p):
    terms = []
    for (k, _), x in f.items():
        nx = reference_norm_of(space, x)
        if nx:
            terms.append((nx**p) * 2.0 ** ((k - 1) * (p / 2.0 - 1.0)))
    return math.fsum(terms) ** (1.0 / p)


def reference_apply_operator(T, f):
    images = {idx: reference_apply(T, x) for idx, x in f.items()}
    return ReferenceHaarCombination(T.codomain.dim, images)


def reference_tau_ratio(T, f):
    den = math.sqrt(f.squared_sum(space_norm(T.domain)))
    if den == 0.0:
        return 0.0
    return reference_lp_norm(reference_apply_operator(T, f), T.codomain, 2.0) / den


def reference_tau_p_ratio(T, f, p):
    den = reference_levelwise_rhs_p(f, T.domain, p)
    if den == 0.0:
        return 0.0
    return reference_lp_norm(reference_apply_operator(T, f), T.codomain, p) / den


def whole_image_norm(T, f, p):
    """The ratio's numerator as it was taken before the image streamed: the
    whole image of T (apply_operator), then its L_p norm."""
    return lp_norm_of_combination(apply_operator(T, f), T.codomain, p)


def one_list_squared_sum(f, space=None):
    """HaarCombination.squared_sum with every row's term in one list."""
    if space is None:
        return math.fsum(np.vecdot(f.rows, f.rows).tolist())
    return math.fsum([v**2 for v in space.norm_of_each(f.rows).tolist()])


def one_list_levelwise_rhs_p(f, space, p):
    """levelwise_rhs_p with every row's norm, then every term, in one list."""
    norms = space.norm_of_each(f.rows).tolist()
    terms = []
    for k, lo, hi in _level_runs(f.heap_ids):
        weight = 2.0 ** ((k - 1) * (p / 2.0 - 1.0))
        terms += [(nx**p) * weight for nx in norms[lo:hi] if nx]
    return math.fsum(terms) ** (1.0 / p)


def reference_rewrite_combination(f, fork):
    """f composed with the swap at the fork, one index at a time."""
    h, i = fork
    root, s1, s2 = HaarIndex(h, i), HaarIndex(h + 1, 2 * i - 1), HaarIndex(h + 1, 2 * i)
    sup = f.support()
    if s1 in sup or s2 in sup:
        raise PreconditionError(f"fork {(h, i)} successors carry nonzero coefficients")
    out = {}
    root_x = None
    for idx, x in f.items():
        if idx == root:
            root_x = x
        elif idx not in (s1, s2):
            out[_reference_image(h, i, *idx)] = x
    if root_x is not None:
        shared = root_x * half_power(-1)
        out[s1] = shared
        out[s2] = shared
    return ReferenceHaarCombination(f.dim, out)


# ---------------------------------------------------------------------------
# the estimate's coordinate patterns on (k, j) pairs
#
# normlab builds the patterns, the nesting relation and the Gram matrices of
# its coordinate candidates on heap ids; these are the same objects built
# from sorted (k, j) pairs, one pair at a time.


def reference_nested(a, b) -> bool:
    """True iff the support cells of two valid indices are nested."""
    (ka, ja), (kb, jb) = (a, b) if a[0] <= b[0] else (b, a)
    return (jb - 1) >> (kb - ka) == ja - 1


def reference_branch_injective(idx, coords) -> bool:
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if coords[a] == coords[b] and reference_nested(idx[a], idx[b]):
                return False
    return True


def reference_coordinate_patterns(idx, sigma) -> list[tuple[int, ...]]:
    """The distinct patterns for the sorted pairs idx, in the order tried."""
    dim = len(sigma)
    k_min = idx[0][0]
    by_level = [a[0] - k_min for a in idx]
    ancestors = [
        sum(1 for b in idx if b != a and b[0] < a[0] and reference_nested(a, b)) for a in idx
    ]
    patterns = []
    if max(ancestors) < dim:
        patterns.append(ancestors)
    if max(by_level) < dim and by_level != ancestors:
        patterns.append(by_level)
    if len(idx) <= 4:
        pool = [int(c) for c in np.argsort(sigma)[::-1][: min(dim, 4)]]
        for cand in itertools.product(pool, repeat=len(idx)):
            if reference_branch_injective(idx, cand):
                patterns.append(cand)
    out = []
    for coords in patterns:
        if tuple(coords) not in out:
            out.append(tuple(coords))
    return out


def reference_pattern_gram(idx, sigma, coords) -> np.ndarray:
    """A[a,b] = |sigma_{c_a} sigma_{c_b}| 2^{-|k_a-k_b|/2} [supports nested]."""
    m = len(idx)
    A = np.zeros((m, m))
    for a in range(m):
        ka = idx[a][0]
        sa = abs(sigma[coords[a]])
        for b in range(a, m):
            kb = idx[b][0]
            if a != b and not reference_nested(idx[a], idx[b]):
                continue
            A[a, b] = A[b, a] = sa * abs(sigma[coords[b]]) * half_power(-abs(ka - kb))
    return A


def reference_level_constant_candidate(T, n, p):
    """The Holder-optimal level-constant witness on the depth-n tree, built
    level by level; None where it has no nonzero amplitude."""
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
    levels = [k for k in range(1, n + 1) if b[k - 1] != 0.0]
    ids = np.concatenate([np.arange(1 << (k - 1), 1 << k) for k in levels])
    rows = np.zeros((len(ids), T.domain.dim))
    lo = 0
    for k in levels:
        hi = lo + (1 << (k - 1))
        rows[lo:hi, k - 1] = b[k - 1] * half_power(-(k - 1))
        lo = hi
    return HaarCombination._from_arrays(T.domain.dim, ids, rows)
