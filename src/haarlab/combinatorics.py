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
from itertools import accumulate, compress, islice
from typing import Iterable, Iterator

import numpy as np

from .combination import HaarCombination
from .config import check_level
from .dyadic import (
    HaarIndex,
    from_heap_id,
    half_power,
    heap_id,
    make_index_set,
)
from .errors import DomainError
from .spaces import Norm, NormedSpaceSpec


def _branch_counts(ids: list[int]) -> Iterator[int]:
    """|F intersect B(t)| per cell at the coarsest exact resolution, for F
    given by the heap ids of its members (see dyadic.heap_id)."""
    top = max(ids, default=1).bit_length()  # counts are constant on level-(top-1) cells
    half = 1 << (top - 1)
    diff = [0] * (half + 1)
    for node in ids:
        # the support of node covers 2^shift cells from (node << shift) - half on
        shift = top - node.bit_length()
        first = (node << shift) - half
        diff[first] += 1
        diff[first + (1 << shift)] -= 1
    del diff[-1]
    return accumulate(diff)


def _local_height(ids: list[int]) -> int:
    """Local height of the set with the given heap ids; 0 for none."""
    return max(_branch_counts(ids))


def local_height(indices: Iterable[tuple[int, int]]) -> int:
    """Maximum number of indices lying on a single branch; 0 for empty sets."""
    return _local_height([heap_id(k, j) for k, j in make_index_set(indices)])


def exact_local_height(indices: Iterable[tuple[int, int]], n: int) -> bool:
    """True iff every branch meets the set in exactly n indices."""
    return all(c == n for c in _branch_counts([heap_id(k, j) for k, j in make_index_set(indices)]))


def _check_fill_preconditions(indices, l: int, n: int) -> list[int]:
    """The heap ids of a valid F that fill may pad under budget l in depth n.

    An error about n or l names the fill option that sets it, depth or
    height, as its field.
    """
    idx = make_index_set(indices)
    if n < 1:
        raise DomainError(f"tree depth must be >= 1, got {n}", "depth")
    if idx and max(idx)[0] > n:
        raise DomainError(f"index set is not contained in the depth-{n} tree", "depth")
    check_level(n, "tree depth", "depth")  # the fill kernel's tables have 2^n entries
    ids = [heap_id(k, j) for k, j in idx]
    height = _local_height(ids)
    if not height <= l <= n:
        raise DomainError(
            f"height budget l={l} must satisfy localHeight(F)={height} <= l <= n={n}", "height"
        )
    if len(ids) >= (1 << l) - 1:
        raise DomainError(
            f"|F|={len(ids)} must be smaller than 2^l - 1 = {(1 << l) - 1}", "height"
        )
    return ids


# The fill kernel numbers the depth-n tree by heap ids (see dyadic.heap_id):
# `present` marks the members, `counts[id]` is the number of members in the
# subtree below id.  _FREE maps those flags to free-slot flags.

_FREE = bytes.maketrans(b"\0\1", b"\1\0")


def _fill_state(ids: list[int], n: int) -> tuple[bytearray, list[int]]:
    present = bytearray(1 << n)
    counts = [0] * (1 << n)
    for node in ids:
        present[node] = 1
        while node:
            counts[node] += 1
            node >>= 1
    return present, counts


def _fill(present: bytearray, counts: list[int], l: int, n: int, count: int) -> list[int]:
    """Heap ids of `count` free indices added one at a time to the depth-n
    tree in present and counts, each keeping the height within l; trusts
    that fill_one's preconditions hold.  Reads present and counts and
    leaves both unchanged.

    Each addition descends from the root: past an absent root to the left
    subtree under the same budget; past a present one (which uses up one
    unit of height) to the side with fewer members, ties going left.  Once
    the budget is 1 or equals the remaining depth, any free index of the
    subtree will do and the lexicographically smallest is taken.

    Nothing is added above those stopping points, so all additions are
    routed in one descent: of the c reaching a present node, the smaller
    side takes the difference and the rest alternate starting left; each
    stopping subtree takes its first c free ids in (k, j) order.  With one
    addition the first returned id is the one a single descent finds.
    """
    added: list[int] = []
    stack = [(1, l, n, count)]
    while stack:
        node, budget, depth, c = stack.pop()
        if budget == 1 or budget == depth:
            for level in range(depth):
                first = node << level
                end = first + (1 << level)
                if level < 4:  # narrow: probe each free id
                    free = present.find(0, first, end)
                    while free >= 0 and c:
                        added.append(free)
                        c -= 1
                        free = present.find(0, free + 1, end)
                else:  # wide: pick the free ids in one pass
                    before = len(added)
                    picks = compress(range(first, end), present[first:end].translate(_FREE))
                    added.extend(islice(picks, c))
                    c -= len(added) - before
                if not c:
                    break
            else:
                raise AssertionError("cardinality precondition guarantees a free index")
            continue
        left = 2 * node
        if not present[node]:
            stack.append((left, budget, depth - 1, c))
            continue
        a, b = counts[left], counts[left + 1]
        lead = min(c, abs(a - b))  # the smaller side catches up first
        to_left = (lead if a < b else 0) + (c - lead + 1) // 2
        for child, share in ((left + 1, c - to_left), (left, to_left)):
            if share:
                stack.append((child, budget - 1, depth - 1, share))
    return added


def fill_one(indices: Iterable[tuple[int, int]], l: int, n: int) -> HaarIndex:
    """One new index outside F such that the enlarged set still has height <= l."""
    ids = _check_fill_preconditions(indices, l, n)
    return from_heap_id(_fill(*_fill_state(ids, n), l, n, 1)[0])


def fill_to_height(indices: Iterable[tuple[int, int]], l: int, n: int) -> frozenset[HaarIndex]:
    """Added indices bringing F up to cardinality 2^l - 1 with height still <= l."""
    ids = _check_fill_preconditions(indices, l, n)
    added = _fill(*_fill_state(ids, n), l, n, (1 << l) - 1 - len(ids))
    return frozenset(map(from_heap_id, added))


# ---------------------------------------------------------------------------
# weight thresholds and partitions


def _weight_powers(
    f: HaarCombination, n: int, r: float, space: NormedSpaceSpec | None
) -> tuple[list[int], list[float], float]:
    """Heap ids of the support, their branch weights w^r as Python floats,
    and the max branch sum of them.

    Weights are w = 2^((k-1)/2) * ||x||, in the norm of space (l2 when
    None).  Comparisons downstream happen in the r-th power domain: the max
    branch sum adds the very same w^r terms in (k, j) order, so every
    individual w^r <= max sum holds exactly.
    """
    if n < 1:
        raise DomainError(f"tree depth must be >= 1, got {n}", "depth")
    check_level(n, "tree depth", "depth")  # the branch sums have 2^n entries
    nonzero = f.rows.any(axis=1)
    ids = f.heap_ids[nonzero].tolist()
    if ids and ids[-1].bit_length() > n:
        raise DomainError(f"support is not contained in the depth-{n} tree", "depth")
    norms = (space or NormedSpaceSpec(f.dim, Norm.L2)).norm_of_each(f.rows[nonzero]).tolist()
    powers = [(half_power(node.bit_length() - 1) * x) ** r for node, x in zip(ids, norms)]
    sums = np.zeros(1 << n)
    for node, wr in zip(ids, powers):
        shift = n + 1 - node.bit_length()  # node covers 2^shift cells from first on
        first = (node << shift) - (1 << n)
        sums[first : first + (1 << shift)] += wr
    base_power = float(sums.max()) if powers else 0.0
    return ids, powers, base_power


def threshold_base(
    f: HaarCombination, n: int, r: float, space: NormedSpaceSpec | None = None
) -> float:
    """Largest branch weight aggregate S_r = max_t (sum over B(t) of w^r)^(1/r)."""
    if not 1 <= r <= 2:
        raise DomainError(f"exponent r must lie in [1, 2], got {r}", "exponent")
    _, _, base_power = _weight_powers(f, n, r, space)
    return base_power ** (1.0 / r)


@dataclass(frozen=True)
class PartitionFamily:
    """Weight level sets F_l; pieces[l-1] holds band l (may be empty)."""

    pieces: tuple[frozenset[HaarIndex], ...]
    threshold_base: float


def is_partition(pieces: Iterable[frozenset], whole) -> bool:
    """Whether the pieces are pairwise disjoint and their union is whole."""
    union: set = set()
    for piece in pieces:
        if union & piece:
            return False
        union |= piece
    return union == whole


def _band_assignments(
    f: HaarCombination, n: int, r: float, space: NormedSpaceSpec | None
) -> tuple[list[int], list[int], float]:
    """Heap ids of the support, the band of each, and S_r^r."""
    ids, powers, base_power = _weight_powers(f, n, r, space)
    if base_power == 0.0:
        return [], [], 0.0
    bands = []
    for wr in powers:
        # band l is S^r/2^l < w^r <= S^r/2^(l-1); ldexp halves exactly (and
        # underflows to 0.0 instead of raising), and w^r <= S^r always, so
        # the smallest qualifying l is the band.  A w^r that underflowed to
        # 0.0 takes the first band whose bound underflows too.
        l = 1
        while (bound := math.ldexp(base_power, -l)) >= wr and bound:
            l += 1
        bands.append(l)
    return ids, bands, base_power


def level_set_partition(
    f: HaarCombination, n: int, r: float, space: NormedSpaceSpec | None = None
) -> PartitionFamily:
    """Partition of the support into the weight bands F_1, F_2, ...

    Zero coefficients fall below every threshold and land in no piece; an all
    zero combination yields the empty family.
    """
    if not 1 <= r <= 2:
        raise DomainError(f"exponent r must lie in [1, 2], got {r}", "exponent")
    ids, bands, base_power = _band_assignments(f, n, r, space)
    if not bands:
        return PartitionFamily((), 0.0)
    pieces = [[] for _ in range(max(bands))]
    for node, l in zip(ids, bands):
        pieces[l - 1].append(from_heap_id(node))
    return PartitionFamily(tuple(frozenset(p) for p in pieces), base_power ** (1.0 / r))


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
    padded: tuple[bool, ...]


def greedy_family(
    f: HaarCombination, n: int, p: float, space: NormedSpaceSpec | None = None
) -> GreedyFamily:
    """Padded weight-band cover of the depth-n tree.

    Walks the bands F_l for l = 1..m (2^m <= n < 2^(m+1)).  Whenever the
    cumulative cardinality falls short of 2^(2^l) - 1 the band is padded to
    that size while keeping its height at most 2^l; already used indices are
    removed in either case, and the final piece is the leftover of the tree.
    Band l has height at most 2^l (its weights exceed S^r/2^l and a branch
    sums to at most S^r), so the fill kernel pads it without checks.
    """
    pieces, m, threshold_base, padded = _greedy_cover(f, n, p, space)
    return GreedyFamily(
        pieces=tuple(frozenset(map(from_heap_id, piece)) for piece in pieces),
        m=m,
        threshold_base=threshold_base,
        padded=padded,
    )


def _greedy_cover(
    f: HaarCombination, n: int, p: float, space: NormedSpaceSpec | None = None
) -> tuple[tuple[frozenset[int], ...], int, float, tuple[bool, ...]]:
    """greedy_family as (pieces, m, threshold_base, padded), each piece the
    frozenset of its heap ids: the cover for callers that work on heap ids."""
    if not 1 <= p < 2:
        raise DomainError(f"exponent p must lie in [1, 2), got {p}", "exponent")
    ids, bands, base_power = _band_assignments(f, n, p, space)
    m = n.bit_length() - 1

    if base_power == 0.0:
        return (frozenset(),) * m + (frozenset(range(1, 1 << n)),), m, 0.0, (False,) * m

    raw: list[list[int]] = [[] for _ in range(m)]
    for node, l in zip(ids, bands):
        if l <= m:
            raw[l - 1].append(node)
        # lower bands have small weights; they are picked up by the leftover

    used: set[int] = set()
    pieces: list[frozenset[int]] = []
    padded: list[bool] = []
    cumulative = 0
    for l, band in enumerate(raw, start=1):
        target = (1 << (1 << l)) - 1
        padded.append(cumulative + len(band) < target)
        if padded[-1]:
            band = band + _fill(*_fill_state(band, n), 1 << l, n, target - len(band))
        piece = frozenset(band) - used
        used |= piece
        pieces.append(piece)
        cumulative += len(piece)
    pieces.append(frozenset(node for node in range(1, 1 << n) if node not in used))
    return tuple(pieces), m, base_power ** (1.0 / p), tuple(padded)


def band_weight_bound(l: int, r: float, base: float) -> float:
    """Upper bound 2^(2/r) * 2^(l(1-2/r)) * S_r^2 for the piece-l squared sum."""
    return 2.0 ** (2.0 / r) * 2.0 ** (l * (1.0 - 2.0 / r)) * base * base
