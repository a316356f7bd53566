"""Measure-preserving quarter swaps and their action on indices and coefficients.

For a tree index (h, i) the swap interchanges the two middle quarter cells of
the support interval (levels h+1, positions 4i-2 and 4i-1) by a translation
of 2^(-h-1).  Composing Haar functions with the swap permutes most indices
(shifts inside the swapped quarters, identity elsewhere) and mixes the three
functions sitting on the fork {(h,i), (h+1,2i-1), (h+1,2i)} linearly.

The set-level transform fires at an admissible index (root in the set, both
successors absent): the root is replaced by its two successors and every
other index moves to its image.  Repeating this at low levels compresses any
finite set into a band of its local height; compress() records the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, NamedTuple

import numpy as np

from .combination import HaarCombination
from .combinatorics import _local_height, local_height
from .config import check_level
from .dyadic import (
    DyadicInterval,
    DyadicRational,
    HaarIndex,
    _haar_eval,
    _level_runs,
    check_haar_index,
    dyadic_band,
    from_heap_id,
    heap_id,
    half_power,
    make_index_set,
    max_level_of,
)
from .errors import DomainError, PreconditionError


class ForkTransform(NamedTuple):
    h: int
    i: int


def check_fork(fork: tuple[int, int]) -> ForkTransform:
    h, i = fork
    check_haar_index(h, i)
    check_level(h + 1, "fork successor level")
    return ForkTransform(h, i)


def swapped_quarters(fork: tuple[int, int]) -> tuple[DyadicInterval, DyadicInterval]:
    """The two middle quarter cells of the fork's support interval."""
    h, i = check_fork(fork)
    return DyadicInterval(h + 1, 4 * i - 2), DyadicInterval(h + 1, 4 * i - 1)


def swap_point(fork: tuple[int, int], t: DyadicRational) -> DyadicRational:
    """Apply the quarter swap to a point: translate by ±2^(-h-1) or fix."""
    first, second = swapped_quarters(fork)
    h = first.level - 1
    if first.contains(t):
        return t.shifted(1, h + 1)
    if second.contains(t):
        return t.shifted(-1, h + 1)
    return t


def _swap_offset(node: int, member: int) -> int:
    """Shift of the heap id of a non-member under the swap at the fork with
    heap id node: on each level k >= h + 2 the ids below 4*node + 1 and
    4*node + 2 trade places, a shift by 2^(k-h-2) each way; elsewhere 0."""
    shift = member.bit_length() - node.bit_length() - 2
    if shift >= 0:
        quarter = member >> shift  # the level-(h+2) id above member
        if quarter == 4 * node + 1:
            return 1 << shift
        if quarter == 4 * node + 2:
            return -(1 << shift)
    return 0


def _is_fork_member(h: int, i: int, k: int, j: int) -> bool:
    return (k == h and j == i) or (k == h + 1 and j in (2 * i - 1, 2 * i))


def index_image(fork: tuple[int, int], idx: tuple[int, int]) -> HaarIndex:
    """Image index under the swap; rejects fork members (they do not map
    to a single Haar function, see rewrite_combination)."""
    h, i = check_fork(fork)
    k, j = check_haar_index(*idx)
    if _is_fork_member(h, i, k, j):
        raise DomainError(f"index {tuple(idx)} belongs to the fork at {tuple(fork)}")
    return HaarIndex(k, j + _swap_offset(heap_id(h, i), heap_id(k, j)))


# ---------------------------------------------------------------------------
# the three fork relations
#
# A coefficient pair (a, b) stands for a + b*sqrt(2) with exact Fractions.
# The check scales the table by its common denominator D once and compares
# D*lhs with the scaled sum as integer pairs, free of rounding.

Sqrt2Pair = tuple[Fraction, Fraction]

_ZERO: Sqrt2Pair = (Fraction(0), Fraction(0))
_HALF: Sqrt2Pair = (Fraction(1, 2), Fraction(0))
_NEG_HALF: Sqrt2Pair = (Fraction(-1, 2), Fraction(0))
_HALF_SQRT2: Sqrt2Pair = (Fraction(0), Fraction(1, 2))  # both sqrt(2)/2 and 1/sqrt(2)

# rows over the basis (root, first successor, second successor): the row r
# gives the coefficients of (basis member r) composed with the swap
FORK_RELATION_ROWS: tuple[tuple[Sqrt2Pair, Sqrt2Pair, Sqrt2Pair], ...] = (
    (_ZERO, _HALF_SQRT2, _HALF_SQRT2),
    (_HALF_SQRT2, _HALF, _NEG_HALF),
    (_HALF_SQRT2, _NEG_HALF, _HALF),
)

def _scaled_rows(rows: tuple[tuple[Sqrt2Pair, ...], ...]) -> tuple[int, tuple]:
    """(D, the table times D as integer pairs), D its least common denominator."""
    scale = math.lcm(*(Fraction(x).denominator for row in rows for pair in row for x in pair))
    return scale, tuple(
        tuple(tuple(int(Fraction(x) * scale) for x in pair) for pair in row) for row in rows
    )


def _value_pair(k: int, j: int, num: int, level: int) -> tuple[int, int]:
    """The (k, j) Haar function at num/2^level as the pair (a, b) of a + b*sqrt(2)."""
    sign, half_exponent = _haar_eval(k, j, num, level)
    value = sign << (half_exponent >> 1)
    return (0, value) if half_exponent & 1 else (value, 0)


def _swap_grid_permutation(h: int, i: int, grid: int) -> np.ndarray:
    """Index permutation of the level-`grid` cells under the swap at (h, i),
    for grid > h."""
    width = 1 << (grid - h - 1)
    start = (4 * i - 3) * width
    perm = np.arange(1 << grid)
    perm[start : start + width] += width
    perm[start + width : start + 2 * width] -= width
    return perm


def _fork_relations_hold(h: int, i: int, level: int, scaled: tuple) -> bool:
    """fork_relations_hold on a valid fork and level; trusts its input."""
    scale, rows = scaled
    members = ((h, i), (h + 1, 2 * i - 1), (h + 1, 2 * i))
    fine = max(level, h + 1)  # the points q/2^level on a grid the swap maps to itself
    swap = _swap_grid_permutation(h, i, fine).tolist()
    for q in range(0, 1 << fine, 1 << (fine - level)):
        u = swap[q]
        at_t = [_value_pair(k, j, q, fine) for k, j in members]
        for (k, j), row in zip(members, rows):
            a, b = _value_pair(k, j, u, fine)
            rhs_a = sum(ca * va + 2 * cb * vb for (ca, cb), (va, vb) in zip(row, at_t))
            rhs_b = sum(ca * vb + cb * va for (ca, cb), (va, vb) in zip(row, at_t))
            if scale * a != rhs_a or scale * b != rhs_b:
                return False
    return True


def fork_members(fork: tuple[int, int]) -> tuple[HaarIndex, HaarIndex, HaarIndex]:
    h, i = check_fork(fork)
    return (
        HaarIndex(h, i),
        HaarIndex(h + 1, 2 * i - 1),
        HaarIndex(h + 1, 2 * i),
    )


def fork_relations_hold(
    fork: tuple[int, int],
    grid_level: int | None = None,
    rows: tuple[tuple[Sqrt2Pair, Sqrt2Pair, Sqrt2Pair], ...] = FORK_RELATION_ROWS,
) -> bool:
    """Exact pointwise check of the three relations on a dyadic grid.

    The default grid level h+3 resolves every breakpoint involved; the rows
    argument exists so verification suites can inject faults.
    """
    h, i = check_fork(fork)
    level = grid_level if grid_level is not None else h + 3
    if level < 0:
        raise DomainError(f"grid level must be >= 0, got {level}")
    check_level(level, "grid level")
    return _fork_relations_hold(h, i, level, _scaled_rows(rows))


# ---------------------------------------------------------------------------
# set-level transform and compression


def is_admissible(indices: Iterable[tuple[int, int]], h: int, i: int) -> bool:
    """True iff (h,i) is in the set and neither successor is."""
    idx = indices if isinstance(indices, (set, frozenset)) else {tuple(x) for x in indices}
    return (h, i) in idx and (h + 1, 2 * i - 1) not in idx and (h + 1, 2 * i) not in idx


def _split(ids: list[int], node: int) -> list[int]:
    """Heap ids of the transform at the fork node on the ids of a set that admits it."""
    out = [2 * node, 2 * node + 1]
    for member in ids:
        if member != node:
            out.append(member + _swap_offset(node, member))
    return out


def fork_split(indices: Iterable[tuple[int, int]], fork: tuple[int, int]) -> frozenset[HaarIndex]:
    """Fire the transform at an admissible index.

    The root is replaced by its two successors; every other index moves to
    its image under the swap.  Cardinality grows by one and local height is
    preserved.
    """
    h, i = check_fork(fork)
    idx = make_index_set(indices)
    if not is_admissible(idx, h, i):
        raise PreconditionError(f"fork {(h, i)} is not admissible for the set")
    return frozenset(map(from_heap_id, _split([heap_id(k, j) for k, j in idx], heap_id(h, i))))


def rewrite_combination(f: HaarCombination, fork: tuple[int, int]) -> HaarCombination:
    """Coefficient family of f composed with the swap.

    The two successors each receive the root coefficient divided by sqrt(2);
    all other coefficients move to their image index.  Requires that neither
    successor carries a nonzero coefficient already (same admissibility shape
    as the set-level transform; the root itself may be absent or zero).

    On heap ids the images are a permutation: at each level k >= h + 2 the
    ids below the two middle grandchildren 4r + 1 and 4r + 2 of the root r
    trade places, a shift by 2^(k-h-2) each way.
    """
    h, i = check_fork(fork)
    ids, rows = f.heap_ids, f.rows
    root = heap_id(h, i)
    successors = np.array([2 * root, 2 * root + 1])
    at_successor = np.isin(ids, successors)
    if rows[at_successor].any():
        raise PreconditionError(
            f"fork {(h, i)} successors carry nonzero coefficients"
        )
    at_root = ids == root
    images = ids.copy()
    for k, lo, hi in _level_runs(ids):
        if k < h + 2:
            continue
        shift = k - h - 2
        first, second, end = np.searchsorted(
            ids[lo:hi], [(4 * root + 1) << shift, (4 * root + 2) << shift, (4 * root + 3) << shift]
        )
        images[lo + first : lo + second] += 1 << shift
        images[lo + second : lo + end] -= 1 << shift
    # an explicit zero at a successor is absorbed by the split
    keep = ~(at_successor | at_root)
    images, moved = images[keep], rows[keep]
    if at_root.any():
        shared = rows[at_root][0] * half_power(-1)
        images = np.concatenate([images, successors])
        moved = np.concatenate([moved, [shared, shared]])
    return HaarCombination._from_unsorted(f.dim, images, moved)


@dataclass(frozen=True)
class CompressionTrace:
    """Record of a full compression run."""

    steps: tuple[ForkTransform, ...]
    initial_set: frozenset[HaarIndex]
    final_set: frozenset[HaarIndex]
    m: int

    def height(self) -> int:
        return local_height(self.initial_set)

    def band(self) -> tuple[int, int]:
        """(m+1, m+n): levels of the band containing the final set."""
        n = self.height()
        return (self.m + 1, self.m + n)

    def validate(self) -> None:
        """Re-run the trace and verify every invariant; raises on failure."""
        n = self.height()
        sets = [self.initial_set]
        for fork in self.steps:
            sets.append(fork_split(sets[-1], fork))
        if sets[-1] != self.final_set:
            raise AssertionError("trace replay does not reach the final set")
        for before, after in zip(sets, sets[1:]):
            if len(after) != len(before) + 1:
                raise AssertionError("step did not grow cardinality by one")
            if local_height(after) != n:
                raise AssertionError("step changed local height")
        lo, hi = self.band()
        if not self.final_set <= dyadic_band(lo, hi):
            raise AssertionError("final set escapes the target band")


# compress() works on heap ids (see dyadic.heap_id).  The subtrees below the
# two swapped quarters of the fork at id start at the adjacent ids 4*id + 1
# and 4*id + 2, so on every level they occupy two adjacent runs of ids of
# equal length, and the swap exchanges the two runs.


def _split_nodes(present: bytearray, node: int, frontier: list[int], half: int) -> None:
    """Fire the transform at an admissible node of the depth-top tree held
    in present (half = 2^(top-1)), pushing onto the frontier every node whose
    admissibility it may change."""
    left = 2 * node
    present[node] = 0
    present[left] = present[left + 1] = 1
    if node > 1:
        heappush(frontier, node >> 1)
    if left < half:
        heappush(frontier, left)
        heappush(frontier, left + 1)
    first, width = 4 * node + 1, 1
    while first < 2 * half:
        mid, end = first + width, first + 2 * width
        present[first:mid], present[mid:end] = present[mid:end], present[first:mid]
        if first < half:
            moved = present.find(1, first, end)
            while moved >= 0:
                heappush(frontier, moved)
                moved = present.find(1, moved + 1, end)
        first, width = 2 * first, 2 * width


def _members(present: bytearray, stop: int | None = None) -> list[int]:
    """Ascending heap ids of the members held in present, below stop."""
    return np.flatnonzero(np.frombuffer(present, np.uint8)[:stop]).tolist()


def _compress(present: bytearray, top: int) -> list[int]:
    """Heap ids of the forks compress fires on the set held in present, a
    bitmap of at least 2^top bytes whose members all lie below level top
    + 1; present ends up holding the final set.  Trusts its input."""
    half = 1 << (top - 1)
    budget = 2 * half - 1 - present.count(1)
    frontier = _members(present, half)  # ascending, so already a heap
    steps: list[int] = []
    while frontier:
        node = heappop(frontier)
        if not present[node] or present[2 * node] or present[2 * node + 1]:
            continue
        if len(steps) == budget:
            raise AssertionError("compression exceeded its cardinality budget")
        _split_nodes(present, node, frontier, half)
        steps.append(node)
    return steps


def compress(indices: Iterable[tuple[int, int]]) -> CompressionTrace:
    """Push a set into the band of its local height.

    Fires transforms at admissible indices with h < m+n until none exist,
    always at the lexicographically first one for reproducible traces; m is
    minimal with the set contained in the depth-(m+n) tree, but at least 1.
    The candidates wait in a min-heap frontier that each step tops up with
    the nodes it touched; stale entries are dropped when they surface.
    """
    start = make_index_set(indices)
    if not start:
        raise DomainError("cannot compress an empty index set")
    ids = [heap_id(k, j) for k, j in start]
    n = _local_height(ids)
    m = max(1, max_level_of(start) - n)
    top = m + n
    check_level(top, "target band level")
    present = bytearray(1 << top)
    for node in ids:
        present[node] = 1
    steps = _compress(present, top)
    return CompressionTrace(
        steps=tuple(ForkTransform(*from_heap_id(node)) for node in steps),
        initial_set=start,
        final_set=frozenset(map(from_heap_id, _members(present))),
        m=m,
    )
