"""Reference computations that the benchmark checks haarlab's outputs against.

Nothing here imports haarlab: index sets are plain ``(k, j)`` pairs and
combinations are plain ``{(k, j): vector}`` mappings, so a fault in the
package's evaluation paths cannot hide in the reference as well.

Conventions match the package README: index ``(k, j)`` has support
``[(j-1)/2^(k-1), j/2^(k-1))`` and takes the values ``±2^((k-1)/2)`` on its
left and right halves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# local height


def branch_masks(depth: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Tree members in sorted order and, per finest-level cell, the bitmask
    of the members on that cell's branch."""
    members = [(k, j) for k in range(1, depth + 1) for j in range(1, (1 << (k - 1)) + 1)]
    masks = []
    for q in range(1 << depth):
        mask = 0
        for bit, (k, j) in enumerate(members):
            if (q >> (depth - k + 1)) + 1 == j:
                mask |= 1 << bit
        masks.append(mask)
    return members, masks


def brute_local_height(indices) -> int:
    """Largest number of indices on one branch, scanning every finest cell."""
    idx = {(int(k), int(j)) for k, j in indices}
    if not idx:
        return 0
    top = max(k for k, _ in idx)
    best = 0
    for q in range(1 << top):
        # the branch through cell q meets level k at position (q >> (top-k+1)) + 1
        hits = sum(1 for k, j in idx if (q >> (top - k + 1)) + 1 == j)
        best = max(best, hits)
    return best


def subset_local_heights(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Size and local height of every subset of the depth-`depth` tree.

    Subset number s holds member b (sorted order) iff bit b of s is set.
    """
    members, masks = branch_masks(depth)
    subsets = np.arange(1 << len(members), dtype=np.uint64)
    sizes = np.bitwise_count(subsets).astype(np.int64)
    heights = np.zeros(len(subsets), dtype=np.int64)
    for mask in set(masks):
        heights = np.maximum(heights, np.bitwise_count(subsets & np.uint64(mask)))
    return sizes, heights


# ---------------------------------------------------------------------------
# cell synthesis and norms


def haar_matrix(indices, grid_level: int) -> np.ndarray:
    """Values of the Haar functions on the 2^grid_level cells, one column each."""
    q = np.arange(1 << grid_level)[:, None]
    ks = np.array([k for k, _ in indices])[None, :]
    js = np.array([j for _, j in indices])[None, :]
    inside = (q >> (grid_level - ks + 1)) == js - 1
    right_half = ((q >> (grid_level - ks)) & 1) == 1
    amplitude = np.sqrt(2.0) ** (ks - 1)
    return np.where(inside, np.where(right_half, -amplitude, amplitude), 0.0)


def vector_norms(rows: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l1":
        return np.abs(rows).sum(axis=1)
    if norm == "l2":
        return np.sqrt((rows * rows).sum(axis=1))
    if norm == "linf":
        return np.abs(rows).max(axis=1)
    raise ValueError(f"unknown norm {norm!r}")


def lp_norm(coefficients: dict, norm: str, p: float = 2.0) -> float:
    """L_p norm of the step function sum_a h_a x_a, measured in `norm`."""
    indices = sorted(coefficients)
    if not indices:
        return 0.0
    grid = max(k for k, _ in indices)
    X = np.array([coefficients[a] for a in indices], dtype=float)
    cells = vector_norms(haar_matrix(indices, grid) @ X, norm)
    return float(np.mean(cells**p) ** (1.0 / p))


def tau_parts(coefficients: dict, matrix: np.ndarray, domain: str, codomain: str):
    """Numerator ||T f||_{L2} and denominator (sum ||x_a||^2)^{1/2} of the tau ratio."""
    image = {a: matrix @ np.asarray(x, dtype=float) for a, x in coefficients.items()}
    X = np.array([coefficients[a] for a in sorted(coefficients)], dtype=float)
    den = math.sqrt(float(np.sum(vector_norms(X, domain) ** 2)))
    return lp_norm(image, codomain, 2.0), den


def tau_p_parts(coefficients: dict, matrix: np.ndarray, domain: str, codomain: str, p: float):
    """Numerator ||T f||_{Lp} and the level-weighted denominator of the tau_p ratio."""
    image = {a: matrix @ np.asarray(x, dtype=float) for a, x in coefficients.items()}
    indices = sorted(coefficients)
    X = np.array([coefficients[a] for a in indices], dtype=float)
    levels = np.array([k for k, _ in indices], dtype=float)
    weights = 2.0 ** ((levels - 1.0) * (p / 2.0 - 1.0))
    den = float(np.sum(weights * vector_norms(X, domain) ** p) ** (1.0 / p))
    return lp_norm(image, codomain, p), den


# ---------------------------------------------------------------------------
# operator norms


def operator_norm(matrix: np.ndarray, domain: str, codomain: str) -> float:
    """Exact ||T: domain -> codomain|| for the small dimensions used here."""
    M = np.asarray(matrix, dtype=float)
    if domain == "l1":
        # extreme points of the l1 ball are the signed unit vectors
        return float(vector_norms(M.T, codomain).max())
    if domain == "l2" and codomain == "l2":
        return float(np.linalg.svd(M, compute_uv=False)[0])
    if domain == "linf":
        # a convex function peaks at a vertex of the cube
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=M.shape[1])))
        return float(vector_norms(signs @ M.T, codomain).max())
    if domain == "l2" and codomain == "l1":
        # ||T||_{2->1} = max over sign vectors e of ||T^T e||_2
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=M.shape[0])))
        return float(vector_norms(signs @ M, "l2").max())
    if domain == "l2" and codomain == "linf":
        return float(vector_norms(M, "l2").max())
    raise ValueError(f"no exact norm for {domain} -> {codomain}")


# ---------------------------------------------------------------------------
# closed forms for the diagonal example sigma_k = k^(-1/p')


def diagonal_tau(n: int, p: float) -> float:
    """(sum_{k<=n} k^(-2/p'))^(1/2)."""
    q = p / (p - 1.0)
    return math.sqrt(math.fsum(k ** (-2.0 / q) for k in range(1, n + 1)))


def diagonal_tau_p(n: int, p: float) -> float:
    """(sum_{k<=n} 1/k)^(1/p')."""
    q = p / (p - 1.0)
    return math.fsum(1.0 / k for k in range(1, n + 1)) ** (1.0 / q)


def diagonal_entries(dim: int, p: float) -> np.ndarray:
    q = p / (p - 1.0)
    return np.arange(1, dim + 1, dtype=float) ** (-1.0 / q)
