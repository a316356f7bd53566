"""Shared oracles and generators for the test suite."""

import math

import numpy as np

from haarlab.combination import HaarCombination
from haarlab.combinatorics import Subtree, SubtreeIdentification
from haarlab.dyadic import DyadicInterval, DyadicRational, HaarIndex, branch, max_level_of

_LEFT = SubtreeIdentification(Subtree.LEFT)
_RIGHT = SubtreeIdentification(Subtree.RIGHT)


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
        if DyadicInterval(h + 1, 4 * i - 2).contains_interval(cell):
            return HaarIndex(k, j + (1 << (k - h - 2)))
        if DyadicInterval(h + 1, 4 * i - 1).contains_interval(cell):
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
