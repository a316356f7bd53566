"""Finite Haar combinations with vector coefficients.

A combination f = sum over indices (k, j) of x_k^(j) * chi_k^(j) is stored as
two arrays: the sorted heap ids 2^(k-1) + j - 1 of its indices (see
dyadic.heap_id; id order is (k, j) order) and one read-only (N, dim) float
array whose row i is the coefficient of the i-th id.  All coefficients share
one ambient dimension; explicit zero rows are kept (they matter for rewrite
bookkeeping) but excluded from the support.  The mapping API (items,
coefficient, support, restricted_to) is a view of the two arrays.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .dyadic import HaarIndex, from_heap_id, heap_id, make_index_set
from .errors import DomainError

# the finest level whose heap ids, and the grid boundaries above them, fit
# in int64
_STORED_LEVELS = 62

# the coefficient sums take the norms of this many rows at a time, so they
# hold one chunk of Python floats, not one per row
_CHUNK_ROWS = 1 << 12


def row_chunks(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive runs of at most _CHUNK_ROWS of `rows`, in order."""
    return (rows[lo : lo + _CHUNK_ROWS] for lo in range(0, len(rows), _CHUNK_ROWS))


def _node(idx) -> int | None:
    """The heap id of a pair, or None when the pair is no storable index."""
    k, j = idx
    if 1 <= k <= _STORED_LEVELS and 1 <= j <= 1 << (k - 1):
        return heap_id(k, j)
    return None


class HaarCombination:
    """Immutable vector-coefficient combination of Haar functions.

    Holds the sorted heap ids of its indices and a read-only (N, dim) float
    array of their coefficients, one C-contiguous row per id.  The
    constructor checks outside input (every key through make_index_set,
    every coefficient's shape); combinations derived inside the package are
    built by _from_arrays, which trusts its arrays.  Every derived
    coefficient is the float the per-index computation gives, so the arrays
    change nothing in the bits of any result.
    """

    __slots__ = ("dim", "_ids", "_rows")

    def __init__(self, dim: int, coefficients: Mapping[tuple[int, int], Iterable[float]]):
        if dim < 1:
            raise DomainError(f"coefficient dimension must be >= 1, got {dim}")
        make_index_set(coefficients)  # validates every key, reading the level cap once
        ids, rows = [], []
        for (k, j), raw in coefficients.items():
            x = np.asarray(raw, dtype=float)
            if x.shape != (dim,):
                raise DomainError(
                    f"coefficient at {HaarIndex(k, j)} has shape {x.shape}, expected ({dim},)"
                )
            if k > _STORED_LEVELS:
                raise DomainError(
                    f"Haar index level {k} exceeds {_STORED_LEVELS}, the finest level "
                    "a combination stores"
                )
            ids.append(heap_id(int(k), int(j)))
            rows.append(x)
        ids = np.array(ids, dtype=np.int64)
        order = np.argsort(ids)  # (k, j) order makes float sums reproducible
        self._set(dim, ids[order], np.array(rows).reshape(len(ids), dim)[order])

    def _set(self, dim: int, ids: np.ndarray, rows: np.ndarray) -> None:
        self.dim = dim
        self._ids = ids.view()
        self._ids.flags.writeable = False
        # a read-only view: the owner's array is not touched
        self._rows = np.ascontiguousarray(rows, dtype=float).view()
        self._rows.flags.writeable = False

    @classmethod
    def _from_arrays(cls, dim: int, ids: np.ndarray, rows: np.ndarray) -> "HaarCombination":
        """The combination with coefficient rows[i] at heap id ids[i].

        Trusts its input: ids sorted, unique and valid, rows of shape
        (len(ids), dim).  The caller hands rows over and does not write them
        afterwards.
        """
        f = cls.__new__(cls)
        f._set(dim, ids, rows)
        return f

    @classmethod
    def _from_unsorted(cls, dim: int, ids: np.ndarray, rows: np.ndarray) -> "HaarCombination":
        """As _from_arrays, for unique valid ids in any order."""
        order = np.argsort(ids)
        return cls._from_arrays(dim, ids[order], rows[order])

    @property
    def heap_ids(self) -> np.ndarray:
        """Sorted heap ids of the stored indices (read-only)."""
        return self._ids

    @property
    def rows(self) -> np.ndarray:
        """The (N, dim) coefficients, row i at heap_ids[i] (read-only)."""
        return self._rows

    def items(self) -> Iterator[tuple[HaarIndex, np.ndarray]]:
        return zip(map(from_heap_id, self._ids.tolist()), self._rows)

    def support(self) -> frozenset[HaarIndex]:
        nonzero = self._ids[self._rows.any(axis=1)]
        return frozenset(from_heap_id(node) for node in nonzero.tolist())

    def coefficient(self, idx: tuple[int, int]) -> np.ndarray:
        """The row of idx, zeros when it is not stored."""
        node = _node(idx)
        pos = len(self._ids) if node is None else int(np.searchsorted(self._ids, node))
        if pos < len(self._ids) and self._ids[pos] == node:
            return self._rows[pos]
        return np.zeros(self.dim)

    def __len__(self) -> int:
        return len(self._ids)

    def max_level(self) -> int:
        return int(self._ids[-1]).bit_length() if len(self._ids) else 0

    def restricted_to(self, indices) -> "HaarCombination":
        return self._restricted_to_ids({_node(idx) for idx in indices})

    def _restricted_to_ids(self, ids) -> "HaarCombination":
        """The stored rows at the heap ids in the set `ids`, in their order."""
        keep = [node in ids for node in self._ids.tolist()]
        return HaarCombination._from_arrays(self.dim, self._ids[keep], self._rows[keep])

    def _scale_in_place(self, c: float) -> None:
        """Multiply every row by c where it is stored: for the one holder of
        rows that nothing else reads.  The rows stay read-only to everyone
        else."""
        self._rows.flags.writeable = True
        self._rows *= c
        self._rows.flags.writeable = False

    def squared_sum(self, space=None) -> float:
        """Sum over indices of ||x||^2 in the given NormedSpaceSpec
        (Euclidean when None).

        The norms come from one array operation (space.norm_of_each) per
        chunk of rows (row_chunks); the squares stay Python float powers,
        which numpy's power does not reproduce bit for bit.  math.fsum,
        exactly rounded, takes them a chunk at a time, so the sum does not
        depend on the chunks.
        """
        chunks = row_chunks(self._rows)
        if space is None:
            terms = (np.vecdot(rows, rows).tolist() for rows in chunks)
        else:
            terms = ([v**2 for v in space.norm_of_each(rows).tolist()] for rows in chunks)
        return math.fsum(itertools.chain.from_iterable(terms))

    def __repr__(self) -> str:
        return f"HaarCombination(dim={self.dim}, indices={len(self._ids)})"
