"""Exact arithmetic for the dyadic Haar system on [0, 1).

Points are dyadic rationals a/2^b kept as integer pairs, so interval
membership, Haar values and branch extraction are computed without floats.
All intervals are half open: the level-k cell with position j is
[(j-1)/2^k, j/2^k), positions are 1-based.

The Haar function with index (k, j), k >= 1, 1 <= j <= 2^(k-1), takes the
value +2^((k-1)/2) on the left half of its support cell (level k-1,
position j), -2^((k-1)/2) on the right half, and 0 elsewhere.  Values are
returned as (sign, half_exponent) pairs so that equality checks stay exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .config import check_level, max_level
from .errors import DomainError


@dataclass(frozen=True)
class DyadicRational:
    """A point num / 2^level in [0, 1)."""

    num: int
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"level must be >= 0, got {self.level}")
        check_level(self.level, "dyadic level")
        if not 0 <= self.num < (1 << self.level):
            raise DomainError(
                f"numerator {self.num} out of range for level {self.level}"
            )

    # value comparisons are cross-multiplied so representation does not matter
    def _cmp_key(self, other: "DyadicRational") -> tuple[int, int]:
        return self.num << other.level, other.num << self.level

    def __eq__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        a, b = self._cmp_key(other)
        return a == b

    def __lt__(self, other: "DyadicRational") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "DyadicRational") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __hash__(self):
        return hash(self.reduced_pair())

    def reduced_pair(self) -> tuple[int, int]:
        """(num, level) with trailing powers of two cancelled."""
        if self.num == 0:
            return (0, 0)
        num, level = self.num, self.level
        while num % 2 == 0 and level > 0:
            num //= 2
            level -= 1
        return (num, level)

    def shifted(self, sign: int, exponent: int) -> "DyadicRational":
        """This point plus sign * 2^(-exponent), staying inside [0, 1)."""
        if exponent < 0:
            raise DomainError("shift exponent must be >= 0")
        level = max(self.level, exponent)
        num = (self.num << (level - self.level)) + sign * (1 << (level - exponent))
        if not 0 <= num < (1 << level):
            raise DomainError("shifted point leaves [0, 1)")
        return DyadicRational(num, level)


@dataclass(frozen=True)
class DyadicInterval:
    """The half-open cell [(position-1)/2^level, position/2^level)."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"interval level must be >= 0, got {self.level}")
        check_level(self.level, "interval level")
        if not 1 <= self.position <= (1 << self.level):
            raise DomainError(
                f"position {self.position} out of range for level {self.level}"
            )

    def contains(self, t: DyadicRational) -> bool:
        # (position-1)/2^level <= num/2^b < position/2^level, cross-multiplied
        lhs = t.num << self.level
        return ((self.position - 1) << t.level) <= lhs < (self.position << t.level)


class HaarIndex(NamedTuple):
    k: int
    j: int


def half_power(e: int) -> float:
    """2^(e/2) as a float with at most one rounding."""
    q, r = divmod(e, 2)
    v = math.ldexp(1.0, q)
    return v * math.sqrt(2.0) if r else v


class HaarValue(NamedTuple):
    """sign * 2^(half_exponent / 2); sign 0 encodes the value 0."""

    sign: int
    half_exponent: int


ZERO_VALUE = HaarValue(0, 0)


def _haar_index_error(k: int, j: int, cap: int) -> DomainError:
    if k < 1:
        return DomainError(f"Haar index level must be >= 1, got k={k}")
    if k > cap:
        return DomainError(f"Haar index level {k} exceeds the configured maximum level {cap}")
    return DomainError(f"Haar index position {j} out of range for level {k}")


def check_haar_index(k: int, j: int) -> HaarIndex:
    cap = max_level()
    if not (1 <= k <= cap and 1 <= j <= (1 << (k - 1))):
        raise _haar_index_error(k, j, cap)
    return HaarIndex(k, j)


def _haar_eval(k: int, j: int, num: int, level: int) -> HaarValue:
    """Value of the (k, j) Haar function at num/2^level; trusts its input."""
    # the point lies in the level-k cell with position m iff
    # (m-1)*2^level <= num*2^k < m*2^level
    lhs = num << k
    if ((2 * j - 2) << level) <= lhs < ((2 * j - 1) << level):
        return HaarValue(1, k - 1)
    if ((2 * j - 1) << level) <= lhs < ((2 * j) << level):
        return HaarValue(-1, k - 1)
    return ZERO_VALUE


def haar_eval(k: int, j: int, t: DyadicRational) -> HaarValue:
    """Exact value of the (k, j) Haar function at a dyadic point."""
    check_haar_index(k, j)
    return _haar_eval(k, j, t.num, t.level)


def support(k: int, j: int) -> DyadicInterval:
    """Support cell of the (k, j) Haar function: level k-1, position j."""
    check_haar_index(k, j)
    return DyadicInterval(k - 1, j)


def branch(t: DyadicRational, n: int) -> frozenset[HaarIndex]:
    """Indices of the n Haar functions whose support contains t, one per level."""
    if n < 0:
        raise DomainError(f"branch length must be >= 0, got {n}")
    check_level(n, "branch length")
    out = []
    for k in range(1, n + 1):
        lvl = k - 1
        if t.level >= lvl:
            j = (t.num >> (t.level - lvl)) + 1
        else:
            j = (t.num << (lvl - t.level)) + 1
        out.append(HaarIndex(k, j))
    return frozenset(out)


def _translation_holds(k: int, j: int, num: int, level: int) -> bool:
    """Translation identity at t = num/2^level; trusts t >= 2^(1-k)."""
    top = max(level, k - 1)
    shifted = (num << (top - level)) - (1 << (top - k + 1))
    return _haar_eval(k, j, shifted, top) == _haar_eval(k, j + 1, num, level)


def _scaling_holds(k: int, j: int, num: int, level: int) -> bool:
    """Scaling identity at t = num/2^level; trusts t < 1/2 (so 2t = num/2^(level-1))."""
    lhs = _haar_eval(k + 1, j, num, level)
    rhs = _haar_eval(k, j, num, level - 1)
    if lhs.sign != rhs.sign:
        return False
    return lhs.sign == 0 or lhs.half_exponent == rhs.half_exponent + 1


# ---------------------------------------------------------------------------
# index sets


class IndexSetError(DomainError):
    """A pair of an index set is not a Haar index; position locates it."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _integer_pair(pair, position: int) -> tuple[int, int]:
    try:
        return operator.index(pair[0]), operator.index(pair[1])
    except TypeError:
        raise IndexSetError(
            f"Haar index entries must be integers, got {tuple(pair)!r}", position
        ) from None


def make_index_set(pairs: Iterable[tuple[int, int]]) -> frozenset[HaarIndex]:
    """The validated index set: the one entry check for every set of indices.

    Reads the level cap once and raises IndexSetError, a DomainError that
    carries the position of the first pair that is not a Haar index.
    """
    cap = max_level()
    out = []  # one entry per pair read so far, so len(out) is the position
    for pair in pairs:
        k, j = pair
        if type(k) is not int or type(j) is not int:
            k, j = pair = _integer_pair(pair, len(out))
        if not (1 <= k <= cap and 1 <= j <= (1 << (k - 1))):
            raise IndexSetError(str(_haar_index_error(k, j, cap)), len(out))
        out.append(pair if type(pair) is HaarIndex else HaarIndex(k, j))
    return frozenset(out)


def heap_id(k: int, j: int) -> int:
    """Breadth-first number 2^(k-1) + j - 1 of a valid index.

    The root is 1, the successors of id are 2*id and 2*id + 1, and id order
    is lexicographic (k, j) order.
    """
    return (1 << (k - 1)) + j - 1


def from_heap_id(node: int) -> HaarIndex:
    k = node.bit_length()
    # tuple.__new__ is what HaarIndex(k, j) runs, without its Python frame
    return tuple.__new__(HaarIndex, (k, node - (1 << (k - 1)) + 1))


def heap_ids(indices: frozenset[HaarIndex]) -> np.ndarray:
    """Sorted int64 heap ids of a validated index set."""
    ids = np.fromiter(
        ((1 << (k - 1)) + j - 1 for k, j in indices), dtype=np.int64, count=len(indices)
    )
    ids.sort()
    return ids


def _level_runs(ids: np.ndarray) -> list[tuple[int, int, int]]:
    """(k, lo, hi) for each level k present in sorted heap ids, whose
    level-k ids are ids[lo:hi]."""
    if not len(ids):
        return []
    top = int(ids[-1]).bit_length()
    # starts[k - 1]: the first position of level k (ids >= 2^(k-1))
    starts = np.searchsorted(ids, [1 << k for k in range(top)]).tolist() + [len(ids)]
    return [(k, starts[k - 1], starts[k]) for k in range(1, top + 1) if starts[k - 1] < starts[k]]


# ---------------------------------------------------------------------------
# the grid kernel: Haar synthesis level by level, and the ascent's gather
# plan on the index set's own dyadic partition

# _GridLevels.blocks hands the grid out in aligned blocks of at most this
# many floats, so a norm holds one block of the grid at a time
_BLOCK_FLOATS = 1 << 16


class _GridLevels:
    """Sorted heap ids laid out level by level on a dyadic grid.

    The one place that knows the grid encoding: which rows of the id list
    are each level's, where they sit in their level and how they are scaled.
    Build it once per id list; synthesis, the level loop that the norms
    take through blocks, then takes one block of rows per level present.
    The ascent runs on the id list's own partition, through a _GatherPlan
    of this kernel.

    Synthesis takes leading batch axes: a grid is an array (..., cells, dim)
    of the 2^top cells of the top level and a coefficient list an array
    (..., count, dim), the cells and the rows on axis -2.  Each batch entry
    is computed by the same ufunc calls and reductions along the same axes
    as a lone 2-D grid, so it gets the same bits as it would on its own.
    The norms take the grid of 2-D rows in blocks (blocks), so they hold
    one block at a time.
    """

    def __init__(self, ids: np.ndarray):
        self.ids, self.count = ids, len(ids)
        # (k, lo, hi, positions, 2^((k-1)/2)): ids[lo:hi] are the level-k
        # indices, at positions j - 1 of their level (None: all 2^(k-1))
        self.levels = []
        for k, lo, hi in _level_runs(ids):
            full = hi - lo == 1 << (k - 1)
            positions = None if full else ids[lo:hi] - (1 << (k - 1))
            self.levels.append((k, lo, hi, positions, half_power(k - 1)))
        self.top = self.levels[-1][0] if self.levels else 0
        self.cells = 1 << self.top  # the cells of the top level

    @cached_property
    def scale(self) -> np.ndarray:
        """The scale 2^((k-1)/2) of each row's level, one per row."""
        out = np.empty(self.count)
        for _k, lo, hi, _positions, scale in self.levels:
            out[lo:hi] = scale
        return out

    def synthesis(self, rows: np.ndarray) -> np.ndarray:
        """The Haar functions of the id list with coefficient rows `rows`,
        on the 2^top cells of the top level, one row each on axis -2: the
        level loop _synthesise on a zero grid, for every level at once.

        Reads `rows` and never writes it.  Every cell receives one addition
        per level in increasing k, as a loop adding the Haar functions one
        index at a time in (k, j) order gives it, and a zero row changes
        nothing (a sum of this kind is never -0.0), so the grid equals that
        loop's bit for bit.
        """
        lead, dim = rows.shape[:-2], rows.shape[-1]
        parts = [(k, rows[..., lo:hi, :], pos, scale) for k, lo, hi, pos, scale in self.levels]
        return _synthesise(np.zeros(lead + (self.cells, dim)), parts, self.top)

    def blocks(self, rows: np.ndarray, image=None) -> Iterator[np.ndarray]:
        """synthesis(image(rows)) of 2-D rows, as a run of aligned blocks in
        cell order: each block is the cells of one level-c cell, with c the
        least level that keeps a block within _BLOCK_FLOATS floats (one
        cell at the least).  Where c is 0 the one block is
        synthesis(image(rows)).  `image` (the identity when None) maps any
        run of rows to rows of one width, each row on its own, as a linear
        map applied row by row does; it is applied only to the rows that a
        block reads, so the image of all the rows is never held at once.

        The levels up to c are synthesised once, by the same level loop, on
        the 2^c cells of level c; their sum is constant on each block.  Each
        block then starts with every row at that sum and takes the level
        steps of the indices under its cell.  So every cell receives the
        additions that synthesis gives it, in the same order, and the blocks
        hold synthesis's bits while only one of them is held at a time.
        """
        owned = image is not None  # its rows are the blocks' own, scaled in place
        image = image or (lambda part: part)
        dim = image(rows[:0]).shape[-1]  # the image's width, from no rows
        fine = min(self.top, max(0, (_BLOCK_FLOATS // dim).bit_length() - 1))
        c = self.top - fine
        if not c:
            yield self.synthesis(image(rows))
            return
        coarse = [level for level in self.levels if level[0] <= c]
        # the coarse levels' rows come first: rows[:hi] of the last of them
        head = image(rows[: coarse[-1][2]]) if coarse else None
        levels = [(k, head[lo:hi], pos, scale) for k, lo, hi, pos, scale in coarse]
        sums = _synthesise(np.zeros((1 << c, dim)), levels, c, owned)
        del head, levels
        # per level below c: the rows of its indices under the q-th block are
        # rows[cuts[q]:cuts[q + 1]], at positions `inside` of the block's 2^shift
        below = []
        for k, lo, _hi, positions, scale in self.levels[len(coarse) :]:
            shift = k - 1 - c
            firsts = np.arange((1 << c) + 1) << shift
            if positions is None:
                inside, cuts = None, lo + firsts
            else:
                inside = positions & ((1 << shift) - 1)
                cuts = lo + np.searchsorted(positions, firsts)
            below.append((k - c, lo, inside, scale, cuts.tolist()))

        def under(q: int):
            """The levels of the indices under block q, each level's image
            made only when the level loop reaches it."""
            for k, lo, inside, scale, cuts in below:
                a, b = cuts[q], cuts[q + 1]
                if a < b:
                    part = None if inside is None else inside[a - lo : b - lo]
                    yield k, image(rows[a:b]), part, scale

        for q in range(1 << c):
            yield _synthesise(np.full((1 << fine, dim), sums[q]), under(q), fine, owned)


def _synthesise(out: np.ndarray, levels, g: int, owned: bool = False) -> np.ndarray:
    """Add the Haar functions of `levels` to the grid `out` (..., 2^g, dim),
    every row of which holds the sum so far, and return `out`.  `levels`
    is an iterable of (k, rows, positions, scale) in increasing k: the
    coefficient rows (..., count, dim) of a level, the rest as in
    _GridLevels.levels, with k counted from the cell that `out` covers,
    which is level 0: the unit interval for synthesis, one block's cell for
    blocks.  Where `owned`, the level rows are temporaries that nothing
    else reads, and a full level's rows are scaled in place.

    Each level scales its rows into a block of 2^(k-1) rows, zero where the
    list has no index.  The sum of the levels up to k is constant
    on the level-k cells and is kept in the first row of each of them
    (stride 2^(g-k)).  The level-k step turns each parent into its left
    child, parent + row, and writes its right child, parent - row, with two
    ufuncs.  Levels with no index cost one copy for the whole stretch of
    them, and a last copy fills the cells below the last level.
    """
    lead, dim = out.shape[:-2], out.shape[-1]
    done = 0  # the first row of each level-`done` cell holds the sum so far
    for k, rows, positions, scale in levels:
        if positions is None:
            scaled = np.multiply(rows, scale, out=rows if owned else None)
        else:
            scaled = np.zeros(lead + (1 << (k - 1), dim))
            scaled[..., positions, :] = rows
            scaled *= scale
        wide = 1 << (g - k + 1)
        _spread(out, g, done, k - 1)
        parents = out[..., ::wide, :]
        np.subtract(parents, scaled, out=out[..., wide >> 1 :: wide, :])
        np.add(parents, scaled, out=parents)
        done = k
        del rows, scaled  # free this level's rows before the next are built
    _spread(out, g, done, g)
    return out


def _spread(out: np.ndarray, g: int, lo: int, hi: int) -> None:
    """Copy the first row of each level-lo cell to the first row of each
    level-hi cell inside it: the levels between them are empty.  Before the
    first level (lo = 0) every row already holds the sum so far."""
    if lo and hi > lo:
        lead, dim = out.shape[:-2], out.shape[-1]
        blocks = out[..., :: 1 << (g - hi), :].reshape(lead + (1 << lo, -1, dim))
        blocks[..., 1:, :] = blocks[..., :1, :]


class _GatherPlan:
    """Synthesis and analysis of a _GridLevels on the leaves of the id
    list's own dyadic partition, by gather tables built once.  The ascent
    builds one per problem and runs every iterate through it.

    Leaves.  The leaves are the runs of top-level cells between the starts,
    the midpoints and the ends of the supports of the list's indices, so
    an id list of m indices has at most 3m + 1 of them; full trees and
    bands have every cell a leaf.  Each half support is a run of whole
    leaves, so synthesis makes the same additions in every cell of a leaf
    and its cells hold the same bits: the grid is kept one row per leaf,
    (..., leaves, dim).  Sums over cells depend on the number and the
    order of the cells, so analysis sums the halves cell by cell; to_cells
    gives the per-cell rows that other such sums need.

    Synthesis.  The table holds, per level and leaf, the row of the buffer
    [S; -S; 0] (S the scaled rows) that the leaf adds: its index's row on a
    left half, the negated row on a right half, else the zero row.  One
    take gathers (..., L, leaves, dim) and one reduction adds the L levels
    to +0.0 in level order, along an outer axis, so one addition at a time:
    the additions the level loop _synthesise makes, where x - s rounds as
    x + (-s).  A sum that starts at +0.0 is never -0.0, so the zero row
    changes no bit (a NaN that a row holds may flip sign).

    Analysis.  The adjoint of synthesis: per index of the list,
    2^((k-1)/2) times the sum of the cells over the left half of its
    support minus the sum over the right half, one row each on axis -2.
    Each half is summed cell by cell in cell order, as
    cells[lo:mid].sum(axis=0) sums it.  For dim > 1 that sum runs along the
    outer axis of a (w, dim) block, one addition at a time; so one take
    puts the cells under a level's n indices in (offset, half, index)
    order, and one reduction along the offset axis sums the whole level
    into a (2, m, dim) buffer of left and right sums, in inner loops of
    n dim floats, not dim.  For dim = 1 numpy sums a contiguous run
    pairwise, and the outer-axis layout would change the bits: there each
    level repeats its leaves to their cells in cell order, each half
    contiguous, and the sum runs along them.  On either path a half of one
    cell (the top level) is that cell, copied, not summed from +0.0, so a
    -0.0 cell stays -0.0.  One subtraction of the halves and one scale end
    it.

    Memory.  A gather holds at most _BLOCK_FLOATS floats, or one grid of
    cells where that is larger.  Synthesis where all levels do not fit
    runs the grid's level loop (O(cells), faster on large full trees) and
    keeps the first cell of each leaf; analysis gathers runs of
    consecutive levels that fit.  The outer-axis gather takes the index of
    each cell it gathers, and the plan keeps those of the deepest levels
    (outer on) whose cells number at most _BLOCK_FLOATS; the levels above
    them repeat their leaves in cell order, as for dim = 1, and for dim > 1
    that sum still runs along the outer axis of each (w, dim) block, so
    the bits are the same, in inner loops of dim floats.  Batch entries on
    the leading axes are summed as they would be alone.
    """

    def __init__(self, grid: _GridLevels):
        self.grid, self.count, self.cells = grid, grid.count, grid.cells
        # the partition's bounds: the start, the midpoint and the end of
        # every support, in top-level cells, with the ends of the grid
        edges = [np.array([0, grid.cells])]
        for k, lo, hi, _positions, _scale in grid.levels:
            w = 1 << (grid.top - k)  # a half support
            starts = (grid.ids[lo:hi] - (1 << (k - 1))) * (2 * w)
            edges += [starts, starts + w, starts + 2 * w]
        bounds = np.unique(np.concatenate(edges))
        self.leaves = len(bounds) - 1
        self.firsts = firsts = bounds[:-1]
        self.widths = np.diff(bounds)  # cells per leaf
        # per level (rows) and leaf (columns): the heap id of the index whose
        # support holds the leaf, whether it is the right half, and the row
        # of that id, where the id list has it (a leaf lies in one half of a
        # support or outside it: every support's ends and midpoint bound leaves)
        ks = np.array([level[0] for level in grid.levels], dtype=np.int64)[:, None]
        shift = grid.top - ks  # a half support is 2^shift cells
        node = (1 << (ks - 1)) + (firsts >> (shift + 1))
        right = (firsts >> shift) & 1
        row = np.searchsorted(grid.ids, node).clip(max=self.count - 1)
        held = grid.ids[row] == node
        self.table = np.where(held, row + right * self.count, 2 * self.count)
        # per level and leaf: the cells it spreads to in analysis, 0 outside
        # the level's supports
        self.reps = np.where(held, self.widths, 0)
        # per level: (lo, hi, half width in cells); a level's cells are
        # ends[i]:ends[i + 1] of the levels' cells end to end
        self.levels = [(lo, hi, 1 << (grid.top - k)) for k, lo, hi, _p, _s in grid.levels]
        self.ends = np.cumsum([0] + [2 * (hi - lo) * w for lo, hi, w in self.levels]).tolist()
        # analysis for dim > 1 gathers levels[outer:], the deepest levels
        # whose cells number at most one block, by one index per cell
        self.outer = next(
            i for i, end in enumerate(self.ends) if self.ends[-1] - end <= _BLOCK_FLOATS
        )
        self._group_cache, self._scales = {}, {}  # _groups by limit, _scale by dim

    def to_cells(self, rows: np.ndarray, axis: int) -> np.ndarray:
        """Rows of the leaves on `axis`, one per cell of the top level: the
        rows themselves where every cell is a leaf."""
        return rows if self.leaves == self.cells else rows.repeat(self.widths, axis=axis)

    def synthesis(self, rows: np.ndarray) -> np.ndarray:
        """_GridLevels.synthesis on the leaves (..., leaves, dim)."""
        lead, dim = rows.shape[:-2], rows.shape[-1]
        batch = math.prod(lead) * dim
        if batch * self.table.size > max(_BLOCK_FLOATS, batch * self.cells):
            cells = self.grid.synthesis(rows)
            return cells if self.leaves == self.cells else cells.take(self.firsts, axis=-2)
        stacked = np.zeros(lead + (2 * self.count + 1, dim))
        scaled = np.multiply(rows, self._scale(dim), out=stacked[..., : self.count, :])
        np.negative(scaled, out=stacked[..., self.count : -1, :])
        return np.add.reduce(stacked.take(self.table, axis=-2), axis=-3, initial=0.0)

    def analysis(self, leaves: np.ndarray) -> np.ndarray:
        """The analysis of the cells of the leaf grid `leaves` (..., leaves,
        dim), one row per index (..., count, dim)."""
        lead, dim = leaves.shape[:-2], leaves.shape[-1]
        sums = np.empty(lead + (2, self.count, dim))  # the left and the right half sums
        outer = self.outer if dim > 1 else len(self.levels)
        for (lo, hi, w), reps in zip(self.levels[:outer], self.reps):
            halves = leaves.repeat(reps, axis=-2).reshape(lead + (hi - lo, 2, w, dim))
            half_sums = halves[..., 0, :] if w == 1 else np.add.reduce(halves, axis=-2)
            sums[..., lo:hi, :] = half_sums.swapaxes(-2, -3)
            del halves, half_sums  # free this level's cells before the next level's are made
        if outer < len(self.levels):
            limit = max(_BLOCK_FLOATS // (math.prod(lead) * dim), self.cells)
            for first, last in self._groups(limit):
                self._outer_sums(leaves, first, last, sums)
        out = np.subtract(sums[..., 0, :, :], sums[..., 1, :, :])
        out *= self._scale(dim)
        return out

    def _outer_sums(self, leaves: np.ndarray, first: int, last: int, sums: np.ndarray) -> None:
        """Write the half sums of the levels first..last - 1 into `sums`,
        from one gather of their cells, released on return."""
        lead, dim = leaves.shape[:-2], leaves.shape[-1]
        base, start = self.ends[first], self.ends[self.outer]
        gathered = leaves.take(self._outer_order[base - start : self.ends[last] - start], axis=-2)
        for i in range(first, last):
            lo, hi, w = self.levels[i]
            part = gathered[..., self.ends[i] - base : self.ends[i + 1] - base, :]
            if w == 1:
                sums[..., lo:hi, :] = part.reshape(lead + (2, hi - lo, dim))
            else:
                halves = part.reshape(lead + (w, 2, hi - lo, dim))
                np.add.reduce(halves, axis=-4, out=sums[..., lo:hi, :])

    def _scale(self, dim: int) -> np.ndarray:
        """The scale of each row in each of `dim` columns, (m, dim): a product
        with it runs in loops over whole batch entries, not over one row
        of dim floats at a time."""
        if dim not in self._scales:
            self._scales[dim] = np.repeat(self.grid.scale[:, None], dim, axis=1)
        return self._scales[dim]

    def _groups(self, limit: int) -> list[tuple[int, int]]:
        """Runs [first, last) of consecutive levels from outer on whose
        cells number at most `limit` together; one level has at most the
        grid's cells."""
        if limit not in self._group_cache:
            runs, first = [], self.outer
            for last in range(first + 1, len(self.levels) + 1):
                if self.ends[last] - self.ends[first] > limit:
                    runs.append((first, last - 1))
                    first = last - 1
            self._group_cache[limit] = runs + [(first, len(self.levels))]
        return self._group_cache[limit]

    @cached_property
    def _outer_order(self) -> np.ndarray:
        """The leaf of each cell that analysis gathers for dim > 1, the
        levels from outer on end to end, each level's cells in (offset,
        half, index) order."""
        start = self.ends[self.outer]
        out = np.empty(self.ends[-1] - start, dtype=np.intp)
        every = np.arange(self.leaves)
        for i in range(self.outer, len(self.levels)):
            lo, hi, w = self.levels[i]
            in_cell_order = every.repeat(self.reps[i]).reshape(hi - lo, 2, w)
            level = out[self.ends[i] - start : self.ends[i + 1] - start]
            level.reshape(w, 2, hi - lo)[...] = in_cell_order.transpose(2, 1, 0)
        return out


def dyadic_band(m: int, n: int) -> frozenset[HaarIndex]:
    """All indices with level m <= k <= n."""
    if m < 1 or n < m:
        raise DomainError(f"band bounds must satisfy 1 <= m <= n, got ({m}, {n})")
    check_level(n, "band level")
    return frozenset(
        HaarIndex(k, j) for k in range(m, n + 1) for j in range(1, (1 << (k - 1)) + 1)
    )


def full_tree(n: int) -> frozenset[HaarIndex]:
    return dyadic_band(1, n)


def max_level_of(indices: frozenset[HaarIndex]) -> int:
    return max((k for k, _ in indices), default=0)


def haar_sign_table(k: int, j: int, grid_level: int) -> np.ndarray:
    """Signs of the (k, j) Haar function on the 2^grid_level level cells.

    Entry q is the constant sign on [q/2^L, (q+1)/2^L); requires L >= k.
    """
    check_haar_index(k, j)
    check_level(grid_level, "grid level")
    if grid_level < k:
        raise DomainError("grid level must be at least the index level")
    table = np.zeros(1 << grid_level, dtype=np.int8)
    width = 1 << (grid_level - k)
    start = (2 * j - 2) * width
    table[start : start + width] = 1
    table[start + width : start + 2 * width] = -1
    return table
