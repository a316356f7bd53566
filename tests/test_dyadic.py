"""Exact evaluation, intervals, branches, and the two structure identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from haarlab.dyadic import (
    DyadicInterval,
    DyadicRational,
    HaarValue,
    _scaling_holds,
    _translation_holds,
    branch,
    check_haar_index,
    dyadic_band,
    full_tree,
    haar_eval,
    haar_sign_table,
    make_index_set,
    max_level_of,
    support,
)
from haarlab.errors import DomainError
from helpers import contains_interval, haar_value_float


def oracle_sign(k: int, j: int, t: Fraction) -> int:
    """Fraction-based reference: +1 on the left half cell, -1 on the right."""
    lo = Fraction(2 * j - 2, 2**k)
    mid = Fraction(2 * j - 1, 2**k)
    hi = Fraction(2 * j, 2**k)
    if lo <= t < mid:
        return 1
    if mid <= t < hi:
        return -1
    return 0


def grid(level):
    return [DyadicRational(q, level) for q in range(1 << level)]


def fraction(t: DyadicRational) -> Fraction:
    return Fraction(t.num, 1 << t.level)


class TestDyadicRational:
    def test_value_identity_across_representations(self):
        assert DyadicRational(1, 1) == DyadicRational(2, 2)
        assert hash(DyadicRational(1, 1)) == hash(DyadicRational(4, 3))
        assert DyadicRational(0, 0) == DyadicRational(0, 5)

    def test_ordering(self):
        assert DyadicRational(1, 2) < DyadicRational(3, 3)
        assert DyadicRational(1, 1) <= DyadicRational(2, 2)
        assert not DyadicRational(3, 2) < DyadicRational(1, 1)

    def test_fraction_and_float(self):
        t = DyadicRational(9, 4)
        assert fraction(t) == Fraction(9, 16)
        assert math.ldexp(t.num, -t.level) == float(fraction(t)) == 9 / 16

    def test_validation(self):
        with pytest.raises(DomainError):
            DyadicRational(4, 2)  # = 1, outside [0, 1)
        with pytest.raises(DomainError):
            DyadicRational(-1, 2)
        with pytest.raises(DomainError):
            DyadicRational(1, -1)

    def test_level_cap(self, monkeypatch):
        monkeypatch.setenv("HAARLAB_MAX_LEVEL", "5")
        with pytest.raises(DomainError):
            DyadicRational(1, 6)
        assert fraction(DyadicRational(1, 5)) == Fraction(1, 32)

    def test_shifted(self):
        t = DyadicRational(3, 3)  # 3/8
        assert t.shifted(1, 2) == DyadicRational(5, 3)  # +1/4
        assert t.shifted(-1, 3) == DyadicRational(1, 2)
        with pytest.raises(DomainError):
            DyadicRational(0, 2).shifted(-1, 2)
        with pytest.raises(DomainError):
            DyadicRational(3, 2).shifted(1, 1)  # 3/4 + 1/2 >= 1


class TestDyadicInterval:
    def test_endpoints_and_measure(self):
        cell = DyadicInterval(2, 3)  # [1/2, 3/4)
        inside = [t for t in grid(6) if cell.contains(t)]
        assert (fraction(inside[0]), fraction(inside[-1])) == (Fraction(1, 2), Fraction(47, 64))
        assert len(inside) == 16  # measure 16/64 = 1/4

    def test_contains_is_half_open(self):
        cell = DyadicInterval(2, 3)
        assert cell.contains(DyadicRational(1, 1))
        assert cell.contains(DyadicRational(11, 4))
        assert not cell.contains(DyadicRational(3, 2))  # upper endpoint excluded

    def test_contains_interval(self):
        outer = DyadicInterval(1, 2)
        assert contains_interval(outer, DyadicInterval(3, 5))
        assert contains_interval(outer, DyadicInterval(1, 2))
        assert not contains_interval(outer, DyadicInterval(3, 4))
        assert not contains_interval(DyadicInterval(3, 5), outer)

    def test_validation(self):
        with pytest.raises(DomainError):
            DyadicInterval(2, 0)
        with pytest.raises(DomainError):
            DyadicInterval(2, 5)


class TestHaarEval:
    def test_level_one(self):
        assert haar_eval(1, 1, DyadicRational(0, 0)) == HaarValue(1, 0)
        assert haar_eval(1, 1, DyadicRational(1, 1)) == HaarValue(-1, 0)
        assert haar_eval(1, 1, DyadicRational(7, 3)) == HaarValue(-1, 0)

    def test_level_two_value(self):
        v = haar_eval(2, 1, DyadicRational(1, 2))
        assert v == HaarValue(-1, 1)
        assert haar_value_float(v) == pytest.approx(-math.sqrt(2), rel=1e-15)

    def test_outside_support_is_zero(self):
        v = haar_eval(3, 2, DyadicRational(9, 4))  # 9/16 not in [1/4, 1/2)
        assert v.sign == 0
        assert haar_value_float(v) == 0.0

    def test_against_fraction_oracle(self):
        for k in range(1, 5):
            for j in range(1, (1 << (k - 1)) + 1):
                for t in grid(6):
                    v = haar_eval(k, j, t)
                    assert v.sign == oracle_sign(k, j, fraction(t))
                    if v.sign != 0:
                        assert v.half_exponent == k - 1

    def test_invalid_index(self):
        for k, j in [(0, 1), (2, 0), (2, 3), (3, 5), (-1, 1)]:
            with pytest.raises(DomainError):
                haar_eval(k, j, DyadicRational(0, 0))


class TestSupportAndBranch:
    def test_support_cell(self):
        cell = support(3, 2)
        assert cell == DyadicInterval(2, 2)  # [1/4, 1/2)

    def test_support_matches_nonzero_set(self):
        for k in range(1, 5):
            for j in range(1, (1 << (k - 1)) + 1):
                cell = support(k, j)
                for t in grid(6):
                    assert (haar_eval(k, j, t).sign != 0) == cell.contains(t)

    def test_branch_frozen_example(self):
        got = branch(DyadicRational(7, 3), 3)
        assert got == make_index_set([(1, 1), (2, 2), (3, 4)])

    def test_branch_at_zero(self):
        assert branch(DyadicRational(0, 0), 4) == make_index_set(
            [(1, 1), (2, 1), (3, 1), (4, 1)]
        )

    def test_branch_properties(self):
        # one index per level, supports nested, each contains t
        for t in grid(5):
            idx = sorted(branch(t, 6))
            assert [k for k, _ in idx] == list(range(1, 7))
            cells = [support(k, j) for k, j in idx]
            for c in cells:
                assert c.contains(t)
            for outer, inner in zip(cells, cells[1:]):
                assert contains_interval(outer, inner)

    def test_branch_empty_and_errors(self):
        assert branch(DyadicRational(1, 2), 0) == frozenset()
        with pytest.raises(DomainError):
            branch(DyadicRational(0, 0), -1)


class TestIdentities:
    """The kernels behind the haar-identities suite, which trust t and the
    indices; the domain tests pin the preconditions they trust."""

    def test_translation_frozen_example(self):
        assert _translation_holds(2, 1, 3, 2)

    def test_translation_sweep(self):
        for k in range(2, 7):
            for j in range(1, 1 << (k - 1)):
                for t in grid(8):
                    if fraction(t) < Fraction(1, 2 ** (k - 1)):
                        continue
                    assert _translation_holds(k, j, t.num, t.level)

    def test_translation_domain_error(self):
        with pytest.raises(DomainError):
            DyadicRational(0, 0).shifted(-1, 2)  # t - 2^(1-k) < 0 for k = 3
        with pytest.raises(DomainError):
            check_haar_index(2, 3)  # j + 1 invalid for (2, 2)

    def test_scaling_frozen_example(self):
        assert _scaling_holds(1, 1, 3, 3)

    def test_scaling_sweep(self):
        for k in range(1, 7):
            for j in range(1, (1 << (k - 1)) + 1):
                for t in grid(8):
                    if fraction(t) >= Fraction(1, 2):
                        continue
                    assert _scaling_holds(k, j, t.num, t.level)

    def test_scaling_domain_error(self):
        with pytest.raises(DomainError):
            DyadicRational(1, 0)  # 2t = num/2^(level-1) leaves [0, 1) at t = 1/2


class TestIndexSets:
    def test_band_and_tree(self):
        band = dyadic_band(2, 3)
        assert band == make_index_set([(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4)])
        assert len(full_tree(4)) == 15
        assert max_level_of(full_tree(4)) == 4
        assert max_level_of(frozenset()) == 0

    def test_band_errors(self):
        with pytest.raises(DomainError):
            dyadic_band(0, 3)
        with pytest.raises(DomainError):
            dyadic_band(3, 2)

    def test_make_index_set_validates(self):
        with pytest.raises(DomainError):
            make_index_set([(2, 3)])


class TestSignTable:
    def test_matches_scalar_eval(self):
        for k in range(1, 5):
            for j in range(1, (1 << (k - 1)) + 1):
                table = haar_sign_table(k, j, 6)
                for q, t in enumerate(grid(6)):
                    assert table[q] == haar_eval(k, j, t).sign

    def test_requires_fine_enough_grid(self):
        with pytest.raises(DomainError):
            haar_sign_table(4, 1, 3)

    def test_orthonormality_exact(self):
        # integral of x_a * x_b over [0,1) must be exactly delta.
        # With signs s on the level-L grid the integral is
        # S * 2^((ka-1)/2) * 2^((kb-1)/2) / 2^L where S = sum of sign products;
        # comparing both sides squared-free keeps everything in integers.
        level = 8
        idx = [(k, j) for k in range(1, 7) for j in range(1, (1 << (k - 1)) + 1)]
        tables = np.stack([haar_sign_table(k, j, level) for k, j in idx])
        gram = tables.astype(np.int64) @ tables.astype(np.int64).T
        for a, (ka, ja) in enumerate(idx):
            for b, (kb, jb) in enumerate(idx):
                s = int(gram[a, b])
                e = ka + kb - 2
                if e % 2 == 1:
                    assert s == 0  # sqrt(2) factor cannot cancel otherwise
                elif (ka, ja) == (kb, jb):
                    assert s * (1 << (e // 2)) == 1 << level
                else:
                    assert s == 0
