"""Quarter swaps, index shifts, fork relations, set transforms, compression."""

import math

import numpy as np
import pytest

from haarlab.combination import HaarCombination
from haarlab.combinatorics import local_height
from haarlab.dyadic import (
    DyadicRational,
    HaarIndex,
    dyadic_band,
    full_tree,
    haar_eval,
    heap_id,
    make_index_set,
)
from haarlab.errors import DomainError, PreconditionError
from haarlab.transforms import (
    FORK_RELATION_ROWS,
    ForkTransform,
    _swap_offset,
    compress,
    fork_members,
    fork_relations_hold,
    fork_split,
    index_image,
    is_admissible,
    rewrite_combination,
    swap_point,
    swapped_quarters,
)
from haarlab.verify import corrupted_fork_rows
from helpers import (
    all_subsets,
    random_combination,
    reference_fork_relations_hold,
    reference_value_at,
)


def grid(level):
    return [DyadicRational(q, level) for q in range(1 << level)]


def forks_up_to(h_max):
    return [ForkTransform(h, i) for h in range(1, h_max + 1) for i in range(1, (1 << (h - 1)) + 1)]


class TestSwapPoint:
    def test_frozen_examples(self):
        assert swap_point((1, 1), DyadicRational(5, 4)) == DyadicRational(9, 4)
        assert swap_point((1, 1), DyadicRational(1, 3)) == DyadicRational(1, 3)
        # 9/16 sits below both swapped quarters of the (2,2) fork,
        # [5/8,6/8) and [6/8,7/8), so it is fixed
        assert swap_point((2, 2), DyadicRational(9, 4)) == DyadicRational(9, 4)
        assert swap_point((2, 2), DyadicRational(5, 3)) == DyadicRational(3, 2)

    def test_quarters(self):
        first, second = swapped_quarters((2, 2))
        assert (first.level, first.position) == (3, 6)
        assert (second.level, second.position) == (3, 7)

    def test_involution_and_permutation(self):
        for fork in forks_up_to(5):
            level = fork.h + 2
            images = []
            for t in grid(level):
                u = swap_point(fork, t)
                assert swap_point(fork, u) == t
                images.append(u.num << (level - u.level))
            # grid cells are permuted, so measure is preserved
            assert sorted(images) == list(range(1 << level))

    def test_fork_validation(self):
        with pytest.raises(DomainError):
            swap_point((0, 1), DyadicRational(0, 0))
        with pytest.raises(DomainError):
            swap_point((2, 3), DyadicRational(0, 0))


def offset(fork, idx) -> int:
    return _swap_offset(heap_id(*fork), heap_id(*idx))


class TestClassifyIndex:
    """How the swap acts on one index: a fork member (the root or a
    successor) mixes, any other index shifts by _swap_offset positions."""

    def test_frozen_examples(self):
        assert offset((1, 1), (3, 2)) == 1  # shifts right
        assert fork_members((1, 1))[0] == (1, 1)  # the fork root
        assert (3, 1) not in fork_members((1, 1)) and offset((1, 1), (3, 1)) == 0
        assert fork_members((1, 1))[1:] == ((2, 1), (2, 2))  # the successors
        assert offset((1, 1), (4, 3)) == 2

    def test_shift_offsets_keep_positions_valid(self):
        for fork in forks_up_to(4):
            for k in range(1, 7):
                for j in range(1, (1 << (k - 1)) + 1):
                    if (k, j) in fork_members(fork):
                        continue
                    shift = offset(fork, (k, j))
                    if shift > 0:
                        assert shift == 1 << (k - fork.h - 2)
                        assert 1 <= j + shift <= (1 << (k - 1))
                    elif shift < 0:
                        assert 1 <= j + shift


class TestIndexImage:
    def test_frozen_examples(self):
        assert index_image((1, 1), (3, 2)) == (3, 3)
        assert index_image((1, 1), (3, 3)) == (3, 2)
        assert index_image((1, 1), (3, 1)) == (3, 1)

    def test_fork_members_rejected(self):
        for member in fork_members((2, 1)):
            with pytest.raises(DomainError):
                index_image((2, 1), member)

    def test_composition_contract(self):
        # image evaluated at t equals the original evaluated at the swap of t
        level = 8
        points = grid(level)
        swapped = {}
        for fork in forks_up_to(4):
            swapped[fork] = [swap_point(fork, t) for t in points]
        for fork in forks_up_to(4):
            members = set(fork_members(fork))
            for k in range(1, 7):
                for j in range(1, (1 << (k - 1)) + 1):
                    if (k, j) in members:
                        continue
                    image = index_image(fork, (k, j))
                    for t, u in zip(points, swapped[fork]):
                        assert haar_eval(*image, t) == haar_eval(k, j, u)

    def test_image_is_injective_outside_fork(self):
        for fork in forks_up_to(4):
            members = set(fork_members(fork))
            pool = [i for i in full_tree(6) if i not in members]
            images = [index_image(fork, i) for i in pool]
            assert len(set(images)) == len(images)


class TestForkRelations:
    def test_relations_hold_exactly(self):
        for fork in forks_up_to(4):
            assert fork_relations_hold(fork)

    def test_relations_on_finer_grid(self):
        assert fork_relations_hold((1, 1), grid_level=6)

    def test_grid_level_out_of_range(self):
        with pytest.raises(DomainError, match="grid level must be >= 0, got -1"):
            fork_relations_hold((1, 1), grid_level=-1)
        with pytest.raises(DomainError, match="grid level 21 exceeds"):
            fork_relations_hold((1, 1), grid_level=21)

    def test_fault_injection_detected(self):
        from fractions import Fraction

        bad = (
            FORK_RELATION_ROWS[0],
            ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(0))),
            FORK_RELATION_ROWS[2],
        )
        assert not fork_relations_hold((1, 1), rows=bad)

    def test_integer_check_agrees_with_the_fraction_oracle(self):
        """Every fork up to h = 6 on the grids of levels h+1 to h+3, with the
        true table and the one --inject-fault uses."""
        for rows in (FORK_RELATION_ROWS, corrupted_fork_rows()):
            for fork in full_tree(6):
                for level in range(fork.k + 1, fork.k + 4):
                    assert fork_relations_hold(fork, level, rows) == (
                        reference_fork_relations_hold(fork, level, rows)
                    ), (fork, level)

    def test_table_with_a_denominator_of_three(self):
        from fractions import Fraction

        # one mixing entry off by a sixth: the common denominator is 6
        thirds = (
            FORK_RELATION_ROWS[0],
            ((Fraction(0), Fraction(1, 2)), (Fraction(1, 3), Fraction(0)), (Fraction(-1, 2), Fraction(0))),
            FORK_RELATION_ROWS[2],
        )
        for fork in forks_up_to(3):
            assert not fork_relations_hold(fork, rows=thirds)
            assert not reference_fork_relations_hold(fork, fork[0] + 3, thirds)


class TestAdmissibleAndSplit:
    def test_is_admissible_frozen(self):
        F = make_index_set([(1, 1), (2, 1)])
        assert is_admissible(F, 2, 1)
        assert not is_admissible(F, 1, 1)
        assert not is_admissible({HaarIndex(1, 1)}, 2, 1)

    def test_fork_split_frozen_examples(self):
        got = fork_split([(1, 1), (2, 1)], (2, 1))
        assert got == make_index_set([(1, 1), (3, 1), (3, 2)])
        assert fork_split([(1, 1)], (1, 1)) == make_index_set([(2, 1), (2, 2)])
        got = fork_split([(1, 1), (3, 2)], (1, 1))
        assert got == make_index_set([(2, 1), (2, 2), (3, 3)])

    def test_fork_split_rejects_inadmissible(self):
        with pytest.raises(PreconditionError):
            fork_split([(1, 1), (2, 1)], (1, 1))
        with pytest.raises(PreconditionError):
            fork_split([(2, 1)], (1, 1))

    def test_contracts_exhaustive_small(self):
        pool = sorted(full_tree(4))
        for subset in all_subsets(pool):
            if not 0 < len(subset) <= 4:
                continue
            lh = local_height(subset)
            for h, i in subset:
                if not is_admissible(subset, h, i):
                    continue
                out = fork_split(subset, (h, i))
                assert len(out) == len(subset) + 1
                assert local_height(out) == lh


class TestRewriteCombination:
    def test_root_split(self):
        f = HaarCombination(1, {(1, 1): [1.0]})
        g = rewrite_combination(f, (1, 1))
        inv = 1 / math.sqrt(2)
        assert frozenset(dict(g.items())) == make_index_set([(2, 1), (2, 2)])
        assert g.coefficient((2, 1))[0] == pytest.approx(inv)
        assert g.coefficient((2, 2))[0] == pytest.approx(inv)

    def test_zero_root_keeps_invariant_index(self):
        f = HaarCombination(1, {(3, 1): [2.0], (1, 1): [0.0]})
        g = rewrite_combination(f, (1, 1))
        assert g.coefficient((3, 1))[0] == 2.0
        # explicit zero root still splits into explicit zero successors
        assert g.coefficient((2, 1))[0] == 0.0
        assert (3, 1) in g.support()

    def test_two_index_example(self):
        f = HaarCombination(2, {(1, 1): [1.0, 0.0], (3, 2): [0.0, 2.0]})
        g = rewrite_combination(f, (1, 1))
        inv = 1 / math.sqrt(2)
        assert frozenset(dict(g.items())) == make_index_set([(2, 1), (2, 2), (3, 3)])
        assert g.coefficient((2, 1)) == pytest.approx([inv, 0.0])
        assert g.coefficient((3, 3)) == pytest.approx([0.0, 2.0])
        assert g.squared_sum() == pytest.approx(5.0, rel=1e-12)
        assert f.squared_sum() == pytest.approx(5.0, rel=1e-12)

    def test_rejects_loaded_successors(self):
        f = HaarCombination(1, {(1, 1): [1.0], (2, 1): [1.0]})
        with pytest.raises(PreconditionError):
            rewrite_combination(f, (1, 1))

    def test_pointwise_composition_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            subset = [i for i in sorted(full_tree(4)) if rng.random() < 0.4]
            if not subset:
                continue
            f = random_combination(rng, subset, 2)
            sup = f.support()
            candidates = [
                (h, i) for h, i in sorted(full_tree(3)) if
                HaarIndex(h + 1, 2 * i - 1) not in sup and HaarIndex(h + 1, 2 * i) not in sup
            ]
            if not candidates:
                continue
            fork = candidates[int(rng.integers(len(candidates)))]
            g = rewrite_combination(f, fork)
            assert g.squared_sum() == pytest.approx(f.squared_sum(), rel=1e-12)
            for t in grid(5):
                lhs = reference_value_at(g, t)
                rhs = reference_value_at(f, swap_point(fork, t))
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCompress:
    def test_two_element_example(self):
        trace = compress([(1, 1), (2, 1)])
        assert trace.steps == (ForkTransform(2, 1), ForkTransform(1, 1))
        assert trace.final_set == make_index_set([(2, 1), (2, 2), (3, 1), (3, 3)])
        assert trace.m == 1
        assert trace.band() == (2, 3)
        trace.validate()

    def test_already_banded(self):
        trace = compress([(2, 1), (2, 2)])
        assert trace.steps == ()
        assert trace.final_set == make_index_set([(2, 1), (2, 2)])
        trace.validate()

    def test_full_tree(self):
        trace = compress(full_tree(3))
        assert trace.m == 1
        assert trace.final_set <= dyadic_band(2, 4)
        assert len(trace.final_set) >= 7
        trace.validate()

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            compress([])

    def test_exhaustive_small(self):
        for subset in all_subsets(sorted(full_tree(3))):
            if not subset:
                continue
            trace = compress(subset)
            trace.validate()
            n = local_height(subset)
            top = trace.m + n
            assert len(trace.steps) <= (1 << top) - 1 - len(subset)
