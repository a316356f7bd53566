"""Exhaustive and randomized invariant suites behind the verify command.

Each suite checks one cluster of identities or contracts at a configurable
scale, clamped to the level cap, and returns a small result record: name,
pass flag, number of checks, and up to five failure samples.  Default scales
are chosen so the whole battery finishes in seconds while still
covering every identity exhaustively on small trees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .combination import HaarCombination
from .combinatorics import (
    _fill,
    _fill_state,
    _local_height,
    band_weight_bound,
    greedy_family,
    is_partition,
    level_set_partition,
    local_height,
)
from .config import _level_limit
from .dyadic import (
    DyadicRational,
    HaarIndex,
    _scaling_holds,
    _translation_holds,
    branch,
    full_tree,
    haar_eval,
    haar_sign_table,
    half_power,
    heap_id,
)
from .normlab import (
    NormedSpaceSpec,
    OperatorSpec,
    _diagonal_example,
    comparison_check,
    diagonal_formula_tau,
    diagonal_formula_tau_p,
    levelwise_rhs_p,
    lp_norm_of_combination,
    tau_estimate,
    tau_p_estimate,
    tau_p_ratio,
    tau_ratio,
)
from .transforms import (
    FORK_RELATION_ROWS,
    Sqrt2Pair,
    _compress,
    _fork_relations_hold,
    _members,
    _scaled_rows,
    _split,
    _swap_grid_permutation,
    compress,
    fork_members,
    index_image,
    rewrite_combination,
    swap_point,
)

SuiteResult = dict

_FAILURE_CAP = 5


def _result(name: str, checked: int, failures: list[str]) -> SuiteResult:
    return {
        "name": name,
        "passed": not failures,
        "checked": checked,
        "failures": failures[:_FAILURE_CAP],
        "failureCount": len(failures),
    }


def _indices_up_to(k_max: int) -> list[HaarIndex]:
    return sorted(full_tree(k_max)) if k_max >= 1 else []


# ---------------------------------------------------------------------------
# exact Haar identities


def haar_identity_suite(
    max_level: int | None = None, k_max: int = 8, grid_level: int = 10
) -> SuiteResult:
    """Translation and scaling identities at every grid point.

    Translation relates neighbouring positions on one level and is defined
    wherever the shifted point stays inside [0, 1); scaling relates level k+1
    to level k on the left half.
    """
    cap = _level_limit(max_level)
    failures: list[str] = []
    checked = 0

    # the indices and the grid points q/2^grid are valid by construction,
    # within the cap, and go straight to the exact evaluation kernels
    k_top = min(k_max, cap)
    grid = min(grid_level, cap)
    for k in range(1, k_top + 1):
        # shifted point t - 2^(1-k) exists iff t >= 2^(1-k)
        q_min = (1 << grid) >> (k - 1) if grid >= k - 1 else 1 << grid
        for j in range(1, (1 << (k - 1))):
            for q in range(q_min, 1 << grid):
                checked += 1
                if not _translation_holds(k, j, q, grid):
                    failures.append(f"translation k={k} j={j} t={q}/2^{grid}")

    k_top = min(k_max - 1, cap - 1)
    grid = min(grid_level, cap - 1)
    for k in range(1, k_top + 1):
        for j in range(1, (1 << (k - 1)) + 1):
            for q in range(1 << (grid - 1)):  # doubling needs t < 1/2
                checked += 1
                if not _scaling_holds(k, j, q, grid):
                    failures.append(f"scaling k={k} j={j} t={q}/2^{grid}")

    return _result("haar-identities", checked, failures)


def orthonormality_suite(max_level: int | None = None, k_max: int = 6) -> SuiteResult:
    """Gram matrix of the basis up to level k_max is the identity, exactly.

    Sign tables at the common grid level reduce every inner product to an
    integer dot product: 0 off the diagonal, 2^(L-k+1) support cells on it
    (which the height normalization 2^(k-1) turns into exactly 1).
    """
    cap = _level_limit(max_level)
    k_top = min(k_max, cap)
    grid = k_top
    members = _indices_up_to(k_top)
    tables = [haar_sign_table(k, j, grid).astype(np.int64) for k, j in members]

    failures: list[str] = []
    checked = 0
    for a, (idx_a, tab_a) in enumerate(zip(members, tables)):
        for idx_b, tab_b in zip(members[a:], tables[a:]):
            checked += 1
            dot = int(np.dot(tab_a, tab_b))
            expected = (1 << (grid - idx_a.k + 1)) if idx_a == idx_b else 0
            if dot != expected:
                failures.append(f"gram {tuple(idx_a)}x{tuple(idx_b)}: {dot} != {expected}")
    return _result("orthonormality", checked, failures)


def branch_structure_suite(max_level: int | None = None) -> SuiteResult:
    """Branches hit one index per level, exactly where the function is nonzero."""
    cap = _level_limit(max_level)
    depth = min(6, cap)
    tree = full_tree(depth)
    failures: list[str] = []
    checked = 0
    for q in range(1 << depth):
        t = DyadicRational(q, depth)
        b = branch(t, depth)
        checked += 1
        if len(b) != depth or {k for k, _ in b} != set(range(1, depth + 1)):
            failures.append(f"branch at {q}/2^{depth}: levels wrong")
            continue
        live = frozenset(idx for idx in tree if haar_eval(idx.k, idx.j, t).sign != 0)
        if live != b:
            failures.append(f"branch at {q}/2^{depth}: mismatch with nonzero set")
        if local_height(b) != depth:
            failures.append(f"branch at {q}/2^{depth}: height != {depth}")
    return _result("branch-structure", checked, failures)


# ---------------------------------------------------------------------------
# quarter swaps


def _forks_up_to(h_max: int, cap: int) -> list[HaarIndex]:
    # successors live on level h+1, so h stops one short of the cap
    return _indices_up_to(min(h_max, cap - 1))


def swap_involution_suite(max_level: int | None = None, h_max: int = 6) -> SuiteResult:
    """Each swap is an involutive bijection of every fine enough dyadic grid."""
    cap = _level_limit(max_level)
    failures: list[str] = []
    checked = 0
    for h, i in _forks_up_to(h_max, cap):
        grid = min(h + 2, cap)
        seen = set()
        for q in range(1 << grid):
            t = DyadicRational(q, grid)
            u = swap_point((h, i), t)
            checked += 1
            if swap_point((h, i), u) != t:
                failures.append(f"fork ({h},{i}): not involutive at {q}/2^{grid}")
            # the image of a grid point is a grid point; collect for bijectivity
            shift = grid - u.level
            seen.add(u.num << shift if shift >= 0 else -1)
        if seen != set(range(1 << grid)):
            failures.append(f"fork ({h},{i}): image is not the full grid")
    return _result("swap-involution", checked, failures)


def fork_relation_suite(
    max_level: int | None = None,
    h_max: int = 6,
    rows: tuple[tuple[Sqrt2Pair, Sqrt2Pair, Sqrt2Pair], ...] = FORK_RELATION_ROWS,
) -> SuiteResult:
    """The three linear relations of each fork, pointwise in exact arithmetic.

    The rows argument lets a fault-injection harness pass a corrupted
    coefficient table; the suite must then fail.
    """
    cap = _level_limit(max_level)
    scaled = _scaled_rows(rows)
    failures: list[str] = []
    checked = 0
    for h, i in _forks_up_to(h_max, cap):
        grid = min(h + 3, cap)
        checked += 1
        if not _fork_relations_hold(h, i, grid, scaled):
            failures.append(f"relations fail at fork ({h},{i})")
    return _result("fork-relations", checked, failures)


def corrupted_fork_rows() -> tuple[tuple[Sqrt2Pair, Sqrt2Pair, Sqrt2Pair], ...]:
    """A deliberately wrong coefficient table for fault injection."""
    rows = [list(row) for row in FORK_RELATION_ROWS]
    rows[1][1] = (Fraction(-1, 2), Fraction(0))  # flip one mixing sign
    return tuple(tuple(row) for row in rows)


def composition_contract_suite(
    max_level: int | None = None, h_max: int = 6, k_max: int = 8
) -> SuiteResult:
    """index_image matches composition with the swap for every non-fork index.

    Works on sign tables: since image and source share the level, the value
    identity haar_eval(image, t) == haar_eval(idx, swap(t)) reduces to a
    permutation identity between the two tables.
    """
    cap = _level_limit(max_level)
    failures: list[str] = []
    checked = 0
    k_top = min(k_max, cap)
    all_indices = _indices_up_to(k_top)
    for h, i in _forks_up_to(h_max, cap):
        members = set(fork_members((h, i)))
        grids: dict[int, np.ndarray] = {}
        for k, j in all_indices:
            if HaarIndex(k, j) in members:
                continue
            grid = max(k, h + 1)
            if grid not in grids:
                perm = _swap_grid_permutation(h, i, grid)
                # tie the integer permutation back to the public map
                for q in (0, (1 << grid) - 1, (4 * i - 3) * (1 << (grid - h - 1))):
                    u = swap_point((h, i), DyadicRational(q, grid))
                    if u.num << (grid - u.level) != perm[q]:
                        failures.append(f"fork ({h},{i}): grid permutation mismatch")
                grids[grid] = perm
            perm = grids[grid]
            image = index_image((h, i), (k, j))
            source = haar_sign_table(k, j, grid)
            target = haar_sign_table(image.k, image.j, grid)
            checked += 1
            if not np.array_equal(target, source[perm]):
                failures.append(f"fork ({h},{i}) index ({k},{j}) -> {tuple(image)}")
    return _result("composition-contract", checked, failures)


# ---------------------------------------------------------------------------
# set-level transform and compression


def _mask_ids(mask: int) -> list[int]:
    """Ascending heap ids of the members of sorted(full_tree(n)) picked by
    mask, whose bit b is the member with heap id b + 1."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length())
        mask ^= low
    return ids


def _height_table(n: int) -> list[int]:
    """Local height of every heap-id bitmask of the depth-n tree (see
    _mask_ids): the largest popcount of mask & path over the root-to-leaf
    path masks.  An independent brute force, tied to _local_height in tests."""
    masks = np.arange(1 << ((1 << n) - 1), dtype=np.uint32)
    heights = np.zeros(masks.shape, dtype=np.uint8)
    for leaf in range(1 << (n - 1), 1 << n):
        path = sum(1 << ((leaf >> up) - 1) for up in range(n))
        np.maximum(heights, np.bitwise_count(masks & path), out=heights)
    return heights.tolist()


def _listed(members: list[HaarIndex], ids: list[int]) -> list[HaarIndex]:
    """The sorted indices with the given ascending heap ids."""
    return [members[node - 1] for node in ids]


def fork_split_compression_suite(
    max_level: int | None = None, n: int = 4
) -> SuiteResult:
    """Exhaustive split and compression contracts over all subsets of a tree.

    Every admissible step grows the cardinality by exactly one and preserves
    local height; compression lands inside the band of the local height.
    Subsets are heap-id bitmasks, run through the kernels of the public maps.
    """
    cap = _level_limit(max_level)
    depth = max(1, min(n, cap - 1))  # splits at the bottom level reach depth+1
    members = _indices_up_to(depth)
    heights = _height_table(depth)
    failures: list[str] = []
    checked = 0
    for mask in range(1, 1 << len(members)):
        ids = _mask_ids(mask)
        height = heights[mask]
        present = bytearray(2 << depth)
        for node in ids:
            present[node] = 1
        for node in ids:
            if present[2 * node] or present[2 * node + 1]:
                continue  # not admissible
            split = _split(ids, node)
            checked += 1
            if len(set(split)) != len(ids) + 1:
                problem = "cardinality"
            elif _local_height(split) != height:
                problem = "height"
            else:
                continue
            h, i = members[node - 1]
            failures.append(f"split {_listed(members, ids)} at ({h},{i}): {problem}")
        m = max(1, ids[-1].bit_length() - height)
        steps = _compress(present, m + height)
        final = _members(present)
        checked += 1
        if final and (final[0] >> m == 0 or final[-1] >> (m + height)):
            failures.append(f"compress {_listed(members, ids)}: escapes band {m + 1}..{m + height}")
        elif len(final) != len(ids) + len(steps):
            failures.append(f"compress {_listed(members, ids)}: cardinality drift")
        elif _local_height(final) != height:
            failures.append(f"compress {_listed(members, ids)}: height drift")
        if mask % 4096 == 0:  # spot-check the public path and its recorded trace
            compress(_listed(members, ids)).validate()
    return _result("fork-split-compression", checked, failures)


def _random_family(
    rng: np.random.Generator, depth: int, max_size: int, dim: int
) -> HaarCombination:
    """A random combination on 1 .. max_size indices of the depth-`depth`
    tree: the size, then distinct heap ids, then one level-balanced row per
    id in draw order (standard normals scaled by 2^(-(k-1)/2))."""
    pool = (1 << depth) - 1  # heap ids 1 .. 2^depth - 1 number the tree in order
    size = int(rng.integers(1, min(pool, max_size) + 1))
    ids = rng.choice(pool, size=size, replace=False) + 1
    rows = np.array(
        [rng.standard_normal(dim) * half_power(-(int(node).bit_length() - 1)) for node in ids]
    )
    return HaarCombination._from_unsorted(dim, ids, rows)


def rewrite_invariance_suite(
    rng: np.random.Generator,
    max_level: int | None = None,
    trials: int = 500,
    n: int = 6,
) -> SuiteResult:
    """Norm invariance of coefficient rewrites along full compression traces.

    The swap is measure preserving, so both the L2 norm and the squared
    coefficient sum must come out unchanged, to 1e-9 relative, after every
    step.
    """
    cap = _level_limit(max_level)
    depth = max(1, min(n, cap - 1))
    dim, tolerance = 3, 1e-9
    space = NormedSpaceSpec(dim=dim, norm="l2")
    failures: list[str] = []
    checked = 0
    for trial in range(trials):
        f = _random_family(rng, depth, 20, dim)
        norm0 = lp_norm_of_combination(f, space, 2.0)
        square0 = f.squared_sum()
        current = f
        for step in compress(f.support()).steps:
            current = rewrite_combination(current, step)
            checked += 1
            norm = lp_norm_of_combination(current, space, 2.0)
            square = current.squared_sum()
            if abs(norm - norm0) > tolerance * max(norm0, 1e-300):
                failures.append(f"trial {trial}: L2 drift {norm} vs {norm0}")
                break
            if abs(square - square0) > tolerance * max(square0, 1e-300):
                failures.append(f"trial {trial}: square sum drift {square} vs {square0}")
                break
    return _result("rewrite-invariance", checked, failures)


# ---------------------------------------------------------------------------
# filling and partitions


def fill_suite(max_level: int | None = None, n_max: int = 4) -> SuiteResult:
    """Exhaustive filling contracts on small trees.

    For every subset and every admissible height budget, the returned pad is
    disjoint, has the exact complementary cardinality, and the union still
    respects the budget.  Subsets are heap-id bitmasks, padded by the kernel
    and judged by the depth's height table.  The kernel leaves its fill
    state unchanged, so one state per depth serves every budget and is
    moved from each subset to the next in place.
    """
    cap = _level_limit(max_level)
    failures: list[str] = []
    checked = 0
    for n in range(1, min(n_max, cap) + 1):
        members = _indices_up_to(n)
        heights = _height_table(n)
        present, counts = _fill_state([], n)
        for mask, height in enumerate(heights):
            # mask - 1 -> mask clears the trailing ones of mask - 1 and sets the next bit
            changed = mask ^ (mask - 1) if mask else 0
            while changed:
                low = changed & -changed
                changed ^= low
                step = 1 if mask & low else -1
                node = low.bit_length()
                present[node] += step
                while node:
                    counts[node] += step
                    node >>= 1
            size = mask.bit_count()
            # budgets l with height <= l <= n and room left: 2^l - 1 > size
            for l in range(max(height, (size + 1).bit_length()), n + 1):
                count = (1 << l) - 1 - size
                pad = sum({1 << (node - 1) for node in _fill(present, counts, l, n, count)})
                checked += 1
                if pad.bit_count() != count:
                    problem = "cardinality"
                elif pad & mask:
                    problem = "overlap"
                elif heights[mask | pad] > l:
                    problem = "height budget"
                else:
                    continue
                failures.append(f"fill n={n} l={l} {_listed(members, _mask_ids(mask))}: {problem}")
    return _result("fill-combinatorics", checked, failures)


def partition_suite(
    rng: np.random.Generator,
    max_level: int | None = None,
    trials: int = 1000,
) -> SuiteResult:
    """Weight level sets: exact partition, height bound, squared-sum bound
    (to 1e-9 relative), for each exponent r in 1, 1.5 and 2."""
    cap = _level_limit(max_level)
    depth = min(6, cap)
    dim, slack = 2, 1e-9
    failures: list[str] = []
    checked = 0
    for trial in range(trials):
        f = _random_family(rng, depth, 30, dim)
        support = f.support()
        rows = f.rows[f.rows.any(axis=1)]  # the support's rows, in (k, j) order
        squares = dict(zip(sorted(support), np.vecdot(rows, rows).tolist()))
        for r in (1.0, 1.5, 2.0):
            family = level_set_partition(f, depth, r)
            checked += 1
            pieces = family.pieces
            if not is_partition(pieces, support):
                failures.append(f"trial {trial} r={r}: not a partition of the support")
                continue
            base = family.threshold_base
            for l, piece in enumerate(pieces, start=1):
                if _local_height([heap_id(k, j) for k, j in piece]) >= (1 << l):
                    failures.append(f"trial {trial} r={r} piece {l}: height >= 2^l")
                    break
                squared = math.fsum(squares[idx] for idx in piece)
                if squared > band_weight_bound(l, r, base) * (1.0 + slack):
                    failures.append(f"trial {trial} r={r} piece {l}: weight bound")
                    break
    return _result("partition-bounds", checked, failures)


def greedy_cover_suite(
    rng: np.random.Generator,
    max_level: int | None = None,
    trials: int = 200,
) -> SuiteResult:
    """Padded cover at p = 4/3: disjoint pieces, height budgets, per-index
    weight bounds (to 1e-9 relative)."""
    cap = _level_limit(max_level)
    depth = min(6, cap)
    tree = full_tree(depth)
    m = depth.bit_length() - 1
    dim, p, slack = 2, 4.0 / 3.0, 1e-9
    failures: list[str] = []
    checked = 0
    for trial in range(trials):
        f = _random_family(rng, depth, 30, dim)
        family = greedy_family(f, depth, p)
        checked += 1
        pieces = family.pieces
        if len(pieces) != m + 1 or family.m != m:
            failures.append(f"trial {trial}: piece count")
            continue
        if not is_partition(pieces, tree):
            failures.append(f"trial {trial}: not a partition of the tree")
            continue
        heights_ok = all(
            local_height(pieces[l - 1]) <= (1 << l) for l in range(1, m + 1)
        ) and local_height(pieces[m]) <= depth
        if not heights_ok:
            failures.append(f"trial {trial}: height budget")
            continue
        base_power = family.threshold_base**p
        support = f.support()
        cumulative: set[HaarIndex] = set()
        for l, piece in enumerate(pieces, start=1):
            exponent = l - 1 if l <= m else m
            bound = math.ldexp(base_power, -exponent) * (1.0 + slack)
            for idx in piece & support:
                w = half_power(idx.k - 1) * float(np.linalg.norm(f.coefficient(idx)))
                if w**p > bound:
                    failures.append(f"trial {trial} piece {l}: weight over threshold")
                    break
            cumulative |= piece
            if l <= m and family.padded[l - 1]:
                if len(cumulative) < (1 << (1 << l)) - 1:
                    failures.append(f"trial {trial} piece {l}: padded step too small")
    return _result("greedy-cover", checked, failures)


# ---------------------------------------------------------------------------
# norms and estimators


def norm_identity_suite(
    rng: np.random.Generator,
    max_level: int | None = None,
    trials: int = 500,
) -> SuiteResult:
    """Parseval on Euclidean coefficients and the levelwise p-sum identity,
    to 1e-12 relative."""
    cap = _level_limit(max_level)
    depth = min(5, cap)
    dim, tolerance = 2, 1e-12
    space = NormedSpaceSpec(dim=dim, norm="l2")
    failures: list[str] = []
    checked = 0
    for trial in range(trials):
        f = _random_family(rng, depth, 15, dim)
        checked += 1
        parseval = lp_norm_of_combination(f, space, 2.0)
        direct = math.sqrt(f.squared_sum())
        if abs(parseval - direct) > tolerance * max(direct, 1e-300):
            failures.append(f"trial {trial}: Parseval {parseval} vs {direct}")
            continue
        p = float(rng.uniform(1.0, 2.0))
        total = levelwise_rhs_p(f, space, p)
        by_level = math.fsum(
            lp_norm_of_combination(
                f.restricted_to([idx for idx in f.support() if idx.k == k]), space, p
            )
            ** p
            for k in {idx.k for idx in f.support()}
        ) ** (1.0 / p)
        if abs(total - by_level) > tolerance * max(by_level, 1e-300):
            failures.append(f"trial {trial}: levelwise p={p}: {total} vs {by_level}")
    return _result("norm-identities", checked, failures)


def estimator_oracle_suite(
    rng: np.random.Generator,
    max_level: int | None = None,
    restarts: int = 6,
    iterations: int = 60,
) -> SuiteResult:
    """Estimator sanity against closed forms and an independent SVD oracle."""
    cap = _level_limit(max_level)
    failures: list[str] = []
    checked = 0

    def expect(label: str, ok: bool):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(label)

    space = NormedSpaceSpec(dim=4, norm="l2")
    depth = min(3, cap)
    est = tau_estimate(OperatorSpec.identity(space), full_tree(depth))
    expect("identity tau == 1", abs(est.lower_bound - 1.0) <= 1e-9)

    matrix = rng.standard_normal((4, 4))
    sigma = float(np.linalg.svd(matrix, compute_uv=False)[0])
    dense = OperatorSpec.dense(matrix, domain=space, codomain=space)
    est = tau_estimate(dense, full_tree(depth))
    expect("dense tau == top singular value", abs(est.lower_bound - sigma) <= 1e-8 * sigma)

    for n in (2, 3):
        if n > cap:
            continue
        p = 4.0 / 3.0
        op = _diagonal_example(p, n)
        closed = diagonal_formula_tau(n, p)
        est = tau_estimate(op, full_tree(n), restarts=restarts, iterations=iterations)
        expect(
            f"diagonal tau n={n} matches closed form",
            abs(est.lower_bound - closed) <= 1e-6 * closed,
        )
        witness_ratio = tau_ratio(op, est.best_witness)
        expect(
            f"diagonal tau n={n} witness reproduces bound",
            abs(witness_ratio - est.lower_bound) <= 1e-9 * est.lower_bound,
        )
        closed_p = diagonal_formula_tau_p(n, p)
        est_p = tau_p_estimate(op, n, p, restarts=restarts, iterations=iterations)
        expect(
            f"diagonal tau_p n={n} matches closed form",
            abs(est_p.lower_bound - closed_p) <= 1e-6 * closed_p,
        )
        expect(
            f"diagonal tau_p n={n} witness reproduces bound",
            abs(tau_p_ratio(op, est_p.best_witness, p) - est_p.lower_bound)
            <= 1e-9 * est_p.lower_bound,
        )

    op = _diagonal_example(4.0 / 3.0, min(4, cap))
    small = tau_estimate(
        op, full_tree(min(2, cap)), restarts=restarts, iterations=iterations
    )
    large = tau_estimate(
        op, full_tree(min(4, cap)), restarts=restarts, iterations=iterations
    )
    expect("tau monotone in the index set", small.lower_bound <= large.lower_bound * 1.02)

    return _result("estimator-oracles", checked, failures)


def comparison_residual_suite(
    rng: np.random.Generator,
    max_level: int | None = None,
    trials: int = 3,
) -> SuiteResult:
    """comparison_check passes with tiny trace residuals on random sets."""
    cap = _level_limit(max_level)
    depth = max(1, min(4, cap - 1))
    pool = sorted(full_tree(depth))
    op = _diagonal_example(4.0 / 3.0, 8)
    failures: list[str] = []
    checked = 0
    for trial in range(trials):
        size = int(rng.integers(2, 7))
        picks = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
        subset = frozenset(pool[int(b)] for b in picks)
        report = comparison_check(op, subset, restarts=4, iterations=50, seed=trial)
        checked += 1
        row = report.rows[0]
        if not report.passed():
            failures.append(f"trial {trial}: {sorted(subset)} checks failed")
        elif max(row["l2Residual"], row["squareSumResidual"]) > 1e-9:
            failures.append(f"trial {trial}: residuals too large")
    return _result("comparison-residuals", checked, failures)


# ---------------------------------------------------------------------------
# the whole battery

SUITES: tuple[tuple[str, Callable[..., SuiteResult]], ...] = (
    ("haar-identities", haar_identity_suite),
    ("orthonormality", orthonormality_suite),
    ("branch-structure", branch_structure_suite),
    ("swap-involution", swap_involution_suite),
    ("fork-relations", fork_relation_suite),
    ("composition-contract", composition_contract_suite),
    ("fork-split-compression", fork_split_compression_suite),
    ("rewrite-invariance", rewrite_invariance_suite),
    ("fill-combinatorics", fill_suite),
    ("partition-bounds", partition_suite),
    ("greedy-cover", greedy_cover_suite),
    ("norm-identities", norm_identity_suite),
    ("estimator-oracles", estimator_oracle_suite),
    ("comparison-residuals", comparison_residual_suite),
)

_RANDOMIZED = {
    "rewrite-invariance",
    "partition-bounds",
    "greedy-cover",
    "norm-identities",
    "estimator-oracles",
    "comparison-residuals",
}


def run_all_suites(
    max_level: int | None = None, seed: int = 0, scales: dict | None = None
) -> list[SuiteResult]:
    """Run every suite in order with per-suite seeded randomness.

    scales maps suite name to keyword overrides, e.g. smaller trial counts
    for a quick pass, or corrupted fork-relation rows for fault injection.
    """
    overrides = scales or {}
    results = []
    for position, (name, suite) in enumerate(SUITES):
        kwargs = dict(overrides.get(name, {}))
        kwargs["max_level"] = max_level
        if name in _RANDOMIZED:
            kwargs["rng"] = np.random.default_rng(np.random.SeedSequence([seed, position]))
        results.append(suite(**kwargs))
    return results
