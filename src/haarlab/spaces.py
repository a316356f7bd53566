"""Finite-dimensional spaces with l1/l2/linf norms and operators between them."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError


class Norm(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


@dataclass(frozen=True)
class NormedSpaceSpec:
    dim: int
    norm: Norm

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"space dimension must be >= 1, got {self.dim}")
        if not isinstance(self.norm, Norm):
            object.__setattr__(self, "norm", Norm(self.norm))

    def norm_of_each(self, rows: np.ndarray) -> np.ndarray:
        """The norm of every row of a C-contiguous (N, dim) array, each the
        bits the row gets on its own: the l2 norm takes each row's dot
        product, as sqrt(x @ x) does; the others are norms_of's."""
        if self.norm is Norm.L2:
            return np.sqrt(np.vecdot(rows, rows))
        return self.norms_of(rows)

    def norms_of(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Norms along the last axis for the grid and the ascent, which may
        stack restarts on leading axes; each row is reduced on its own, so
        a row's norm does not depend on the rows beside it.  An l2 row sums
        its squares and may differ from norm_of_each in the last bit.
        `out`, where given (rows.shape[:-1]), receives the norms: the same
        reductions, so the same bits; the absolute values or squares they
        reduce are a temporary either way."""
        if self.norm is Norm.L1:
            return np.add.reduce(np.abs(rows), axis=-1, out=out)
        if self.norm is Norm.L2:
            return np.sqrt(np.add.reduce(rows * rows, axis=-1, out=out), out=out)
        return np.maximum.reduce(np.abs(rows), axis=-1, out=out)

    def dual_rows(
        self, rows: np.ndarray, out: np.ndarray | None = None, norms: np.ndarray | None = None
    ) -> np.ndarray:
        """A subgradient of the norm at each row (last axis; leading axes
        stack rows).  A zero row gets zero.  On l1 a zero coordinate gets
        zero (np.sign); on l2 the row is divided by its norm; on linf the
        sign goes to the first coordinate of largest magnitude (np.argmax),
        so a tie goes to the first of the tied coordinates and the others
        get zero.  `out`, where given, receives the subgradients, with the
        bits of a fresh result; it may be `rows` itself.  `norms`, where the
        caller has them, are norms_of(rows), which l2 divides by instead of
        taking them again."""
        if self.norm is Norm.L1:
            return np.sign(rows, out=out)
        if self.norm is Norm.L2:
            if norms is None:
                norms = self.norms_of(rows)
            safe = np.where(norms > 0, norms, 1.0)
            return np.divide(rows, safe[..., None], out=out)
        # the flat (C order) position of each row's first largest coordinate;
        # a zero row picks a zero, whose sign is +0.0
        at = np.argmax(np.abs(rows), axis=-1).ravel()
        at += np.arange(0, rows.size, rows.shape[-1])
        signs = np.sign(rows.take(at))
        if out is None:
            out = np.zeros_like(rows)
        else:
            out[...] = 0.0
        out.put(at, signs)
        return out


class OperatorKind(str, Enum):
    DIAGONAL = "diagonal"
    DENSE = "dense"


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    kind: OperatorKind
    domain: NormedSpaceSpec
    codomain: NormedSpaceSpec
    matrix: np.ndarray | None = None
    entries: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, OperatorKind):
            object.__setattr__(self, "kind", OperatorKind(self.kind))
        if self.kind is OperatorKind.DENSE:
            if self.matrix is None:
                raise DomainError("dense operator requires a matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.codomain.dim, self.domain.dim):
                raise DomainError(
                    f"matrix shape {m.shape} does not match codomain x domain "
                    f"({self.codomain.dim}, {self.domain.dim})"
                )
            object.__setattr__(self, "matrix", m)
        elif self.kind is OperatorKind.DIAGONAL:
            if self.entries is None:
                raise DomainError("diagonal operator requires entries")
            e = np.asarray(self.entries, dtype=float)
            if self.domain.dim != self.codomain.dim:
                raise DomainError("diagonal operator requires equal dimensions")
            if e.shape != (self.domain.dim,):
                raise DomainError(
                    f"diagonal entries shape {e.shape} does not match dim {self.domain.dim}"
                )
            object.__setattr__(self, "entries", e)

    @classmethod
    def identity(cls, space: NormedSpaceSpec) -> "OperatorSpec":
        """The identity as the diagonal of ones: x * 1.0 is x, bit for bit."""
        return cls(OperatorKind.DIAGONAL, space, space, entries=np.ones(space.dim))

    @classmethod
    def diagonal(cls, entries, norm: Norm) -> "OperatorSpec":
        e = np.asarray(entries, dtype=float)
        space = NormedSpaceSpec(len(e), norm)
        return cls(OperatorKind.DIAGONAL, space, space, entries=e)

    @classmethod
    def dense(cls, matrix, domain: NormedSpaceSpec, codomain: NormedSpaceSpec) -> "OperatorSpec":
        return cls(OperatorKind.DENSE, domain, codomain, matrix=np.asarray(matrix, dtype=float))

    def apply_rows(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The operator applied along the last axis.  A dense matrix multiplies each 2-D
        slice of stacked rows as its own product (numpy's stacked matmul),
        so a slice gets the bits it would get alone; one product over all
        the rows flattened to 2-D may not.  `out`, where given, receives
        the image, with the same bits."""
        if self.kind is OperatorKind.DIAGONAL:
            return np.multiply(rows, self.entries, out=out)
        return np.matmul(rows, self.matrix.T, out=out)

    def transpose_apply_rows(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.kind is OperatorKind.DIAGONAL:
            return np.multiply(rows, self.entries, out=out)
        return np.matmul(rows, self.matrix, out=out)

    def as_matrix(self) -> np.ndarray:
        if self.kind is OperatorKind.DIAGONAL:
            return np.diag(self.entries)
        return self.matrix.copy()

    def diagonal_magnitudes(self) -> np.ndarray | None:
        """|entries| when the operator acts coordinatewise, else None."""
        if self.kind is OperatorKind.DIAGONAL:
            return np.abs(self.entries)
        return None
