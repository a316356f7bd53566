"""Branch combinatorics on the dyadic index tree.

Provides local height (the maximal number of indices of a set lying on one
branch), a descent over the tree that pads a set to prescribed cardinality
without exceeding a height budget, and the two weight-threshold partitions
used by the norm estimates: plain level sets of the branch weight, and the
greedy padded variant whose pieces have height at most 2^l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable

import numpy as np

from .combination import HaarCombination
from .config import check_level
from .dyadic import (
    HaarIndex,
    check_haar_index,
    from_heap_id,
    full_tree,
    half_power,
    heap_id,
    make_index_set,
)
from .errors import DomainError


def _branch_counts(indices: frozenset[HaarIndex]) -> list[int]:
    """|F intersect B(t)| per cell at the coarsest exact resolution."""
    top = max(indices)[0]  # counts are constant on level-(top-1) cells
    diff = [0] * ((1 << (top - 1)) + 1)
    for k, j in indices:
        # the support of (k, j) covers cells (j-1)*2^(top-k) .. j*2^(top-k) - 1
        diff[(j - 1) << (top - k)] += 1
        diff[j << (top - k)] -= 1
    del diff[-1]
    return list(accumulate(diff))


def local_height(indices: Iterable[tuple[int, int]]) -> int:
    """Maximum number of indices lying on a single branch; 0 for empty sets."""
    idx = make_index_set(indices)
    if not idx:
        return 0
    return max(_branch_counts(idx))


def exact_local_height(indices: Iterable[tuple[int, int]], n: int) -> bool:
    """True iff every branch meets the set in exactly n indices."""
    idx = make_index_set(indices)
    if not idx:
        return n == 0
    return all(c == n for c in _branch_counts(idx))


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


def _check_fill_preconditions(indices, l: int, n: int) -> frozenset[HaarIndex]:
    idx = make_index_set(indices)
    if n < 1:
        raise DomainError(f"tree depth must be >= 1, got {n}")
    if idx and max(idx)[0] > n:
        raise DomainError(f"index set is not contained in the depth-{n} tree")
    check_level(n, "tree depth")  # the fill kernel's tables have 2^n entries
    height = max(_branch_counts(idx)) if idx else 0
    if not height <= l <= n:
        raise DomainError(
            f"height budget l={l} must satisfy localHeight(F)={height} <= l <= n={n}"
        )
    if len(idx) >= (1 << l) - 1:
        raise DomainError(
            f"|F|={len(idx)} must be smaller than 2^l - 1 = {(1 << l) - 1}"
        )
    return idx


# The fill kernel numbers the depth-n tree by heap ids (see dyadic.heap_id):
# `present` marks the members, `counts[id]` is the number of members in the
# subtree below id.


def _add_node(present: bytearray, counts: list[int], node: int) -> None:
    present[node] = 1
    while node:
        counts[node] += 1
        node >>= 1


def _fill_state(indices: frozenset[HaarIndex], n: int) -> tuple[bytearray, list[int]]:
    present = bytearray(1 << n)
    counts = [0] * (1 << n)
    for k, j in indices:
        _add_node(present, counts, heap_id(k, j))
    return present, counts


def _fill_node(present: bytearray, counts: list[int], l: int, n: int) -> int:
    """Heap id of one free index keeping the height within l (see fill_one).

    Descends from the root: past an absent root to the left subtree under
    the same budget; past a present one (which uses up one unit of height)
    to the side with fewer members, ties going left.  Once the budget is 1
    or equals the remaining depth, any free index of the subtree will do and
    the lexicographically smallest is taken for determinism.
    """
    node = 1
    while l != 1 and l != n:
        left = 2 * node
        if not present[node]:
            node = left
        else:
            node = left if counts[left] <= counts[left + 1] else left + 1
            l -= 1
        n -= 1
    for depth in range(n):
        first = node << depth
        free = present.find(0, first, first + (1 << depth))
        if free >= 0:
            return free
    raise AssertionError("cardinality precondition guarantees a free index")


def fill_one(indices: Iterable[tuple[int, int]], l: int, n: int) -> HaarIndex:
    """One new index outside F such that the enlarged set still has height <= l."""
    idx = _check_fill_preconditions(indices, l, n)
    present, counts = _fill_state(idx, n)
    return from_heap_id(_fill_node(present, counts, l, n))


def fill_to_height(indices: Iterable[tuple[int, int]], l: int, n: int) -> frozenset[HaarIndex]:
    """Added indices bringing F up to cardinality 2^l - 1 with height still <= l."""
    idx = _check_fill_preconditions(indices, l, n)
    present, counts = _fill_state(idx, n)
    added = []
    for _ in range((1 << l) - 1 - len(idx)):
        node = _fill_node(present, counts, l, n)
        _add_node(present, counts, node)
        added.append(from_heap_id(node))
    return frozenset(added)


# ---------------------------------------------------------------------------
# weight thresholds and partitions


def _euclidean(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _weight_powers(
    f: HaarCombination, n: int, r: float, norm_fn: Callable[[np.ndarray], float]
):
    """Per-index branch weights w^r and the max branch sum of them.

    Weights are w = 2^((k-1)/2) * ||x||.  Comparisons downstream happen in
    the r-th power domain: the max branch sum is a float sum of the very
    same w^r terms, so every individual w^r <= max sum holds exactly.
    """
    support = f.support()
    if any(k > n for k, _ in support):
        raise DomainError(f"support is not contained in the depth-{n} tree")
    powers: dict[HaarIndex, float] = {}
    for idx, x in f.items():
        if idx not in support:
            continue
        k, _j = idx
        powers[idx] = (half_power(k - 1) * norm_fn(x)) ** r
    ncells = 1 << n
    sums = np.zeros(ncells)
    for (k, j), wr in sorted(powers.items()):
        width = 1 << (n - (k - 1))
        sums[(j - 1) * width : j * width] += wr
    base_power = float(sums.max()) if powers else 0.0
    return powers, base_power


def threshold_base(
    f: HaarCombination,
    n: int,
    r: float,
    norm_fn: Callable[[np.ndarray], float] | None = None,
) -> float:
    """Largest branch weight aggregate S_r = max_t (sum over B(t) of w^r)^(1/r)."""
    if not 1 <= r <= 2:
        raise DomainError(f"exponent r must lie in [1, 2], got {r}")
    _, base_power = _weight_powers(f, n, r, norm_fn or _euclidean)
    return base_power ** (1.0 / r)


@dataclass(frozen=True)
class PartitionFamily:
    """Weight level sets F_l; pieces[l-1] holds band l (may be empty)."""

    pieces: tuple[frozenset[HaarIndex], ...]
    threshold_base: float
    exponent: float

    def piece(self, l: int) -> frozenset[HaarIndex]:
        if not 1 <= l <= len(self.pieces):
            return frozenset()
        return self.pieces[l - 1]


def _band_assignments(
    f: HaarCombination, n: int, r: float, norm_fn: Callable[[np.ndarray], float]
) -> tuple[dict[HaarIndex, int], float]:
    powers, base_power = _weight_powers(f, n, r, norm_fn)
    if base_power == 0.0:
        return {}, 0.0
    bands: dict[HaarIndex, int] = {}
    for idx, wr in powers.items():
        # band l is S^r/2^l < w^r <= S^r/2^(l-1); ldexp halves exactly (and
        # underflows to 0.0 instead of raising), and w^r <= S^r always, so
        # the smallest qualifying l is the band
        l = 1
        while math.ldexp(base_power, -l) >= wr:
            l += 1
        bands[idx] = l
    return bands, base_power


def level_set_partition(
    f: HaarCombination,
    n: int,
    r: float,
    norm_fn: Callable[[np.ndarray], float] | None = None,
) -> PartitionFamily:
    """Partition of the support into the weight bands F_1, F_2, ...

    Zero coefficients fall below every threshold and land in no piece; an all
    zero combination yields the empty family.
    """
    if not 1 <= r <= 2:
        raise DomainError(f"exponent r must lie in [1, 2], got {r}")
    bands, base_power = _band_assignments(f, n, r, norm_fn or _euclidean)
    if not bands:
        return PartitionFamily((), 0.0, r)
    top = max(bands.values())
    pieces = [set() for _ in range(top)]
    for idx, l in bands.items():
        pieces[l - 1].add(idx)
    return PartitionFamily(
        tuple(frozenset(p) for p in pieces), base_power ** (1.0 / r), r
    )


@dataclass(frozen=True)
class GreedyFamily:
    """Disjoint cover of the full depth-n tree by height-bounded pieces.

    pieces[l-1] has local height at most 2^l for l <= m and at most n for the
    final piece; padded[l-1] records whether step l needed filling, which is
    exactly when the cumulative cardinality bound 2^(2^l) - 1 is asserted.
    """

    pieces: tuple[frozenset[HaarIndex], ...]
    m: int
    threshold_base: float
    exponent: float
    padded: tuple[bool, ...]


def greedy_family(
    f: HaarCombination,
    n: int,
    p: float,
    norm_fn: Callable[[np.ndarray], float] | None = None,
) -> GreedyFamily:
    """Padded weight-band cover of the depth-n tree.

    Walks the bands F_l for l = 1..m (2^m <= n < 2^(m+1)).  Whenever the
    cumulative cardinality falls short of 2^(2^l) - 1 the band is padded to
    that size while keeping its height at most 2^l; already used indices are
    removed in either case, and the final piece is the leftover of the tree.
    """
    if not 1 <= p < 2:
        raise DomainError(f"exponent p must lie in [1, 2), got {p}")
    if n < 1:
        raise DomainError(f"tree depth must be >= 1, got {n}")
    norm = norm_fn or _euclidean
    bands, base_power = _band_assignments(f, n, p, norm)
    m = n.bit_length() - 1
    tree = full_tree(n)

    if base_power == 0.0:
        return GreedyFamily(
            pieces=(frozenset(),) * m + (tree,),
            m=m,
            threshold_base=0.0,
            exponent=p,
            padded=(False,) * m,
        )

    raw: list[set[HaarIndex]] = [set() for _ in range(m + 1)]
    for idx, l in bands.items():
        if l <= m:
            raw[l - 1].add(idx)
        # lower bands have small weights; they are picked up by the leftover

    used: set[HaarIndex] = set()
    pieces: list[frozenset[HaarIndex]] = []
    padded: list[bool] = []
    cumulative = 0
    for l in range(1, m + 1):
        band = frozenset(raw[l - 1])
        target = (1 << (1 << l)) - 1
        if cumulative + len(band) >= target:
            piece = band - used
            padded.append(False)
        else:
            pad = fill_to_height(band, 1 << l, n)
            piece = (band | pad) - used
            padded.append(True)
        pieces.append(frozenset(piece))
        used |= piece
        cumulative += len(piece)
    pieces.append(tree - used)
    return GreedyFamily(
        pieces=tuple(pieces),
        m=m,
        threshold_base=base_power ** (1.0 / p),
        exponent=p,
        padded=tuple(padded),
    )


def band_weight_bound(l: int, r: float, base: float) -> float:
    """Upper bound 2^(2/r) * 2^(l(1-2/r)) * S_r^2 for the piece-l squared sum."""
    return 2.0 ** (2.0 / r) * 2.0 ** (l * (1.0 - 2.0 / r)) * base * base


def branch_weight_profile(
    f: HaarCombination,
    indices: Iterable[tuple[int, int]],
    norm_fn: Callable[[np.ndarray], float] | None = None,
) -> dict[HaarIndex, float]:
    """Weights 2^((k-1)/2)*||x|| of f restricted to the given indices."""
    norm = norm_fn or _euclidean
    keep = make_index_set(indices)
    return {
        idx: half_power(idx.k - 1) * norm(x) for idx, x in f.items() if idx in keep
    }
