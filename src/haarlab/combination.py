"""Finite Haar combinations with vector coefficients.

A combination f = sum over indices (k, j) of x_k^(j) * chi_k^(j) is stored as
a mapping from index to coefficient vector.  All coefficients share one
ambient dimension; explicit zero vectors are kept (they matter for rewrite
bookkeeping) but excluded from the support.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .config import check_level
from .dyadic import (
    DyadicRational,
    HaarIndex,
    _GridLevels,
    _haar_eval,
    make_index_set,
)
from .errors import DomainError


class HaarCombination:
    """Immutable vector-coefficient combination of Haar functions."""

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coefficients: Mapping[tuple[int, int], Iterable[float]]):
        if dim < 1:
            raise DomainError(f"coefficient dimension must be >= 1, got {dim}")
        self.dim = dim
        make_index_set(coefficients)  # validates every key, reading the level cap once
        coeffs: dict[HaarIndex, np.ndarray] = {}
        for (k, j), raw in coefficients.items():
            idx = HaarIndex(k, j)
            x = np.asarray(raw, dtype=float)
            if x.shape != (dim,):
                raise DomainError(
                    f"coefficient at {idx} has shape {x.shape}, expected ({dim},)"
                )
            x = x.copy()
            x.flags.writeable = False
            coeffs[idx] = x
        # lexicographic key order makes iteration (and float sums) reproducible
        self._coeffs = dict(sorted(coeffs.items()))

    @classmethod
    def zero(cls, dim: int) -> "HaarCombination":
        return cls(dim, {})

    def items(self) -> Iterator[tuple[HaarIndex, np.ndarray]]:
        return iter(self._coeffs.items())

    def indices(self) -> frozenset[HaarIndex]:
        """All stored indices, explicit zeros included."""
        return frozenset(self._coeffs)

    def support(self) -> frozenset[HaarIndex]:
        return frozenset(idx for idx, x in self._coeffs.items() if np.any(x != 0.0))

    def coefficient(self, idx: tuple[int, int]) -> np.ndarray:
        got = self._coeffs.get(HaarIndex(*idx))
        if got is None:
            return np.zeros(self.dim)
        return got

    def __contains__(self, idx) -> bool:
        return HaarIndex(*idx) in self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def max_level(self) -> int:
        return max((k for (k, _j) in self._coeffs), default=0)

    def value_at(self, t: DyadicRational) -> np.ndarray:
        out = np.zeros(self.dim)
        for (k, j), x in self._coeffs.items():
            v = _haar_eval(k, j, t.num, t.level)
            if v.sign != 0:
                out += v.as_float() * x
        return out

    def cell_values(self, grid_level: int) -> np.ndarray:
        """Values on the 2^grid_level cells as a (cells, dim) array.

        The combination is constant on each cell once grid_level reaches the
        maximal support level, so this table is exact.  The grid is built
        level by level in place (dyadic._GridLevels.synthesis): each cell
        gets 2^((k-1)/2) x_k^(j) added or subtracted for its one index per
        level, in increasing k, so the floats are those of adding the Haar
        functions one index at a time in (k, j) order.  Each level's
        coefficient block exists only while that level is synthesised.
        """
        check_level(grid_level, "grid level")
        if grid_level < self.max_level():
            raise DomainError("grid level must be at least the maximal index level")
        values = np.zeros((1 << grid_level, self.dim))
        vectors = list(self._coeffs.values())
        return _GridLevels(list(self._coeffs)).synthesis(
            values, lambda lo, hi: np.array(vectors[lo:hi])
        )

    def map_coefficients(self, fn: Callable[[np.ndarray], np.ndarray], dim: int | None = None) -> "HaarCombination":
        return HaarCombination(
            dim if dim is not None else self.dim,
            {idx: fn(x) for idx, x in self._coeffs.items()},
        )

    def restricted_to(self, indices) -> "HaarCombination":
        keep = frozenset(HaarIndex(*i) for i in indices)
        return HaarCombination(
            self.dim, {idx: x for idx, x in self._coeffs.items() if idx in keep}
        )

    def scaled(self, c: float) -> "HaarCombination":
        return self.map_coefficients(lambda x: c * x)

    def squared_sum(self, norm_fn: Callable[[np.ndarray], float] | None = None) -> float:
        """Sum over indices of ||x||^2 under the given norm (Euclidean default)."""
        if norm_fn is None:
            terms = [float(x @ x) for _idx, x in self._coeffs.items()]
        else:
            terms = [norm_fn(x) ** 2 for _idx, x in self._coeffs.items()]
        return math.fsum(terms)

    def __repr__(self) -> str:
        return f"HaarCombination(dim={self.dim}, indices={len(self._coeffs)})"
