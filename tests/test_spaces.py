"""Norm and operator primitives."""

import numpy as np
import pytest

from haarlab.combination import HaarCombination
from haarlab.errors import DomainError
from haarlab.normlab import apply_operator
from haarlab.spaces import Norm, NormedSpaceSpec, OperatorKind, OperatorSpec
from helpers import reference_apply, reference_dual_vector, reference_norm_of


def test_frozen_norm_values():
    v = np.array([[3.0, -4.0, 0.0]])
    assert NormedSpaceSpec(3, Norm.L1).norm_of_each(v).tolist() == [7.0]
    assert NormedSpaceSpec(3, Norm.L2).norm_of_each(v).tolist() == [5.0]
    assert NormedSpaceSpec(3, Norm.LINF).norm_of_each(v).tolist() == [4.0]


def test_norm_accepts_string_names():
    assert NormedSpaceSpec(2, "l1").norm is Norm.L1
    with pytest.raises(ValueError):
        NormedSpaceSpec(2, "l3")


def test_dimension_must_be_positive():
    with pytest.raises(DomainError):
        NormedSpaceSpec(0, Norm.L2)


@pytest.mark.parametrize("norm", list(Norm))
def test_norm_axioms(norm):
    rng = np.random.default_rng(11)
    space = NormedSpaceSpec(5, norm)
    u, v = rng.standard_normal((50, 5)), rng.standard_normal((50, 5))
    c = rng.standard_normal((50, 1))
    norm_u = space.norm_of_each(u)
    assert np.all(space.norm_of_each(u + v) <= norm_u + space.norm_of_each(v) + 1e-12)
    assert space.norm_of_each(c * u) == pytest.approx(np.abs(c[:, 0]) * norm_u, rel=1e-12)
    assert space.norm_of_each(np.zeros((1, 5))).tolist() == [0.0]


@pytest.mark.parametrize("norm", list(Norm))
def test_norms_of_matches_rowwise(norm):
    rng = np.random.default_rng(4)
    space = NormedSpaceSpec(4, norm)
    rows = rng.standard_normal((20, 4))
    table = space.norms_of(rows)
    assert space.norm_of_each(rows) == pytest.approx(table, rel=1e-14)
    # norm_of_each takes each row as a lone vector does, bit for bit
    assert space.norm_of_each(rows).tolist() == [reference_norm_of(space, r) for r in rows]


@pytest.mark.parametrize("norm", list(Norm))
def test_dual_vector_supports_norm(norm):
    # the defining property of a subgradient at v: <g, v> equals the norm
    rng = np.random.default_rng(9)
    space = NormedSpaceSpec(6, norm)
    v = rng.standard_normal((50, 6))
    g = space.dual_rows(v)
    assert (g * v).sum(axis=1) == pytest.approx(space.norm_of_each(v), rel=1e-12)
    assert not space.dual_rows(np.zeros((1, 6))).any()


@pytest.mark.parametrize("norm", list(Norm))
def test_dual_rows_matches_dual_vector(norm):
    rng = np.random.default_rng(2)
    space = NormedSpaceSpec(3, norm)
    rows = rng.standard_normal((10, 3))
    rows[4] = 0.0
    table = space.dual_rows(rows)
    for r, g in zip(rows, table):
        assert np.allclose(reference_dual_vector(space, r), g, rtol=1e-14, atol=0)
    # stacked rows, and the rows overwritten in place, give the same bits
    stacked = rng.standard_normal((4, 10, 3))
    stacked[1, 4] = 0.0
    expected = np.array([space.dual_rows(block) for block in stacked])
    assert np.array_equal(space.dual_rows(stacked), expected)
    assert space.dual_rows(stacked, out=stacked) is stacked
    assert np.array_equal(stacked, expected)


def test_linf_dual_gives_a_tie_to_the_first_largest_coordinate():
    """On linf the whole subgradient goes to the first coordinate of largest
    magnitude (np.argmax), with that coordinate's sign; the coordinates tied
    with it after it get zero, and a zero row gets zero."""
    space = NormedSpaceSpec(4, Norm.LINF)
    rows = np.array([[1.0, -3.0, 3.0, -3.0], [-2.0, 2.0, 0.0, 0.5], [0.0, -0.0, 0.0, 0.0]])
    expected = [[0.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    assert space.dual_rows(rows).tolist() == expected
    reversed_expected = [[-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0] * 4]
    assert space.dual_rows(rows[:, ::-1]).tolist() == reversed_expected
    g = space.dual_rows(rows)
    assert np.signbit(g[2]).tolist() == [False] * 4  # a zero row gets +0.0


def test_l2_dual_rows_divide_by_the_norms_they_are_given():
    """Given the rows' norms_of, the l2 subgradients are the bits they get
    when dual_rows takes the norms itself; zero rows stay zero."""
    rng = np.random.default_rng(3)
    space = NormedSpaceSpec(5, Norm.L2)
    rows = rng.standard_normal((3, 10, 5))
    rows[1, 4] = 0.0
    got = space.dual_rows(rows, norms=space.norms_of(rows))
    assert got.tobytes() == space.dual_rows(rows).tobytes()
    assert not got[1, 4].any()


def test_operator_validation():
    l2 = NormedSpaceSpec(2, Norm.L2)
    l3 = NormedSpaceSpec(3, Norm.L2)
    with pytest.raises(DomainError):
        OperatorSpec.dense(np.ones((2, 2)), l3, l2)  # wrong shape
    with pytest.raises(DomainError):
        OperatorSpec(OperatorKind.DIAGONAL, l2, l3, entries=np.ones(2))
    with pytest.raises(DomainError):
        OperatorSpec(OperatorKind.DIAGONAL, l2, l2, entries=np.ones(3))
    with pytest.raises(DomainError):
        OperatorSpec(OperatorKind.DENSE, l2, l2)


def test_apply_agrees_with_matrix():
    rng = np.random.default_rng(5)
    l2 = NormedSpaceSpec(3, Norm.L2)
    l1 = NormedSpaceSpec(2, Norm.L1)
    ops = [
        OperatorSpec.identity(l2),
        OperatorSpec.diagonal([2.0, -1.0, 0.5], Norm.L1),
        OperatorSpec.dense(rng.standard_normal((2, 3)), l2, l1),
    ]
    for T in ops:
        M = T.as_matrix()
        rows = rng.standard_normal((6, T.domain.dim))
        f = HaarCombination._from_arrays(T.domain.dim, np.arange(1, 7), rows)
        assert np.allclose(apply_operator(T, f).rows, rows @ M.T, rtol=1e-14, atol=0)
        assert np.allclose(T.apply_rows(rows), rows @ M.T, rtol=1e-14, atol=0)
        back = rng.standard_normal((6, T.codomain.dim))
        assert np.allclose(T.transpose_apply_rows(back), back @ M, rtol=1e-14, atol=0)


def test_apply_operator_maps_each_row_alone():
    # apply_operator maps each row as a lone vector is mapped, bit for bit,
    # whatever the shapes and the number of rows
    rng = np.random.default_rng(8)
    for _ in range(200):
        d, e, n = (int(v) for v in rng.integers(1, [65, 65, 400]))
        if rng.random() < 0.25:
            T = OperatorSpec.diagonal(rng.standard_normal(d), Norm.L1)
        else:
            M = rng.standard_normal((e, d))
            T = OperatorSpec.dense(M, NormedSpaceSpec(d, Norm.LINF), NormedSpaceSpec(e, Norm.L1))
        rows = rng.standard_normal((n, d))
        f = HaarCombination._from_arrays(d, np.arange(1, n + 1), rows)
        image = apply_operator(T, f)
        assert image.dim == T.codomain.dim
        assert np.array_equal(image.heap_ids, f.heap_ids)
        assert np.array_equal(image.rows, [reference_apply(T, x) for x in rows])


def test_diagonal_magnitudes():
    assert np.array_equal(
        OperatorSpec.diagonal([1.0, -2.0], Norm.L1).diagonal_magnitudes(), [1.0, 2.0]
    )
    l2 = NormedSpaceSpec(2, Norm.L2)
    assert np.array_equal(OperatorSpec.identity(l2).diagonal_magnitudes(), [1.0, 1.0])
    assert OperatorSpec.dense(np.eye(2), l2, l2).diagonal_magnitudes() is None
