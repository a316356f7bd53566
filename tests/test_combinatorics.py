"""Local height, subtree identification, filling, and weight partitions."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarlab.combination import HaarCombination
from haarlab.combinatorics import (
    GreedyFamily,
    band_weight_bound,
    exact_local_height,
    fill_one,
    fill_to_height,
    greedy_family,
    level_set_partition,
    local_height,
    threshold_base,
)
from haarlab.dyadic import HaarIndex, dyadic_band, from_heap_id, full_tree, make_index_set
from haarlab.errors import DomainError
from haarlab.spaces import Norm, NormedSpaceSpec
from helpers import (
    Subtree,
    SubtreeIdentification,
    all_subsets,
    branch_count_profile,
    branch_weight_profile,
    brute_local_height,
    peak_traced_bytes,
    random_combination,
    random_subset,
    reference_greedy_family,
    reference_level_set_partition,
    space_norm,
)

def random_families(rng, count, max_depth):
    """(f, n, space): seeded combinations on random subsets of depth-n trees,
    about one row in five zero, with dimensions 1 to 16 and every norm (None
    for the default l2)."""
    for trial in range(count):
        n = 1 + trial % max_depth
        dim = (1, 2, 5, 16)[trial % 4]
        norm = (None, *Norm)[trial // 4 % 4]
        pool = sorted(full_tree(n))
        subset = random_subset(rng, pool, int(rng.integers(0, min(len(pool), 40) + 1)))
        coeffs = {}
        for idx in sorted(subset):
            x = rng.standard_normal(dim) * 2.0 ** (-(idx.k - 1) / 2.0)
            coeffs[idx] = np.zeros(dim) if rng.random() < 0.2 else x
        space = None if norm is None else NormedSpaceSpec(dim, norm)
        yield HaarCombination(dim, coeffs), n, space


class TestLocalHeight:
    def test_full_tree(self):
        for n in range(1, 5):
            assert local_height(full_tree(n)) == n

    def test_frozen_examples(self):
        assert local_height([(1, 1), (2, 2), (3, 1)]) == 2
        assert local_height([(3, 1)]) == 1
        assert local_height([]) == 0

    def test_exhaustive_against_brute_force(self):
        for subset in all_subsets(full_tree(3)):
            assert local_height(subset) == brute_local_height(subset)

    def test_exact_local_height(self):
        assert exact_local_height(full_tree(3), 3)
        assert exact_local_height(dyadic_band(2, 4), 3)
        assert not exact_local_height([(1, 1), (3, 1)], 2)
        assert exact_local_height([], 0)
        assert not exact_local_height([], 1)

    def test_exact_matches_profile(self):
        for subset in all_subsets(full_tree(3)):
            profile = branch_count_profile(subset, 3)
            for n in range(0, 4):
                assert exact_local_height(subset, n) == all(c == n for c in profile)


class TestSubtreeIdentification:
    def test_roundtrip_and_range(self):
        for side in Subtree:
            ident = SubtreeIdentification(side)
            for k in range(1, 5):
                for j in range(1, (1 << (k - 1)) + 1):
                    idx = HaarIndex(k, j)
                    child = ident.from_parent(idx)
                    assert ident.contains(child)
                    assert ident.to_parent(child) == idx

    def test_sides_partition_the_lower_tree(self):
        left = SubtreeIdentification(Subtree.LEFT)
        right = SubtreeIdentification(Subtree.RIGHT)
        lower = dyadic_band(2, 5)
        in_left = {i for i in lower if left.contains(i)}
        in_right = {i for i in lower if right.contains(i)}
        assert in_left | in_right == lower
        assert not in_left & in_right

    def test_preserves_successors(self):
        for side in Subtree:
            ident = SubtreeIdentification(side)
            for k in range(1, 4):
                for j in range(1, (1 << (k - 1)) + 1):
                    child = ident.from_parent((k, j))
                    succ_left = ident.from_parent((k + 1, 2 * j - 1))
                    succ_right = ident.from_parent((k + 1, 2 * j))
                    ck, cj = child
                    assert succ_left == (ck + 1, 2 * cj - 1)
                    assert succ_right == (ck + 1, 2 * cj)

    def test_outside_subtree_rejected(self):
        left = SubtreeIdentification(Subtree.LEFT)
        with pytest.raises(DomainError):
            left.to_parent((1, 1))
        with pytest.raises(DomainError):
            left.to_parent((3, 3))  # right half


def valid_fill_inputs(n):
    for subset in all_subsets(full_tree(n)):
        lh = brute_local_height(subset)
        for l in range(max(lh, 1), n + 1):
            if len(subset) < (1 << l) - 1:
                yield subset, l


class TestFillOne:
    def test_frozen_examples(self):
        assert fill_one([], 1, 3) == (1, 1)
        assert fill_one([(1, 1)], 2, 2) == (2, 1)
        got = fill_one([(1, 1), (2, 1)], 2, 3)
        assert got == (2, 2)
        assert local_height([(1, 1), (2, 1), got]) == 2

    def test_contract_exhaustive_n3(self):
        for n in (1, 2, 3):
            for subset, l in valid_fill_inputs(n):
                x = fill_one(subset, l, n)
                assert x not in subset
                assert x in full_tree(n)
                assert local_height(subset | {x}) <= l

    def test_precondition_errors(self):
        with pytest.raises(DomainError):
            fill_one([(1, 1)], 1, 3)  # |F| = 2^1 - 1
        with pytest.raises(DomainError):
            fill_one([(1, 1), (2, 1)], 1, 3)  # lh > l
        with pytest.raises(DomainError):
            fill_one([(4, 1)], 2, 3)  # outside D_1^3
        with pytest.raises(DomainError):
            fill_one([], 3, 2)  # l > n


class TestFillToHeight:
    def test_frozen_examples(self):
        assert fill_to_height([], 2, 2) == full_tree(2)
        added = fill_to_height([(1, 1)], 2, 3)
        assert len(added) == 2
        assert local_height({HaarIndex(1, 1)} | added) <= 2
        added = fill_to_height([(2, 1)], 2, 4)
        assert len(added) == 2
        assert local_height({HaarIndex(2, 1)} | added) <= 2

    def test_contract_exhaustive_n3(self):
        for n in (1, 2, 3):
            for subset, l in valid_fill_inputs(n):
                added = fill_to_height(subset, l, n)
                assert len(added) == (1 << l) - 1 - len(subset)
                assert not added & subset
                assert local_height(subset | added) <= l


def unit(dim, axis=0):
    e = np.zeros(dim)
    e[axis] = 1.0
    return e


class TestThresholdBase:
    def test_single_top_index(self):
        f = HaarCombination(2, {(1, 1): unit(2)})
        for r in (1.0, 1.5, 2.0):
            assert threshold_base(f, 3, r) == pytest.approx(1.0, rel=1e-12)

    def test_two_level_branch(self):
        f = HaarCombination(1, {(1, 1): [1.0], (2, 1): [1.0]})
        assert threshold_base(f, 2, 2.0) == pytest.approx(math.sqrt(3), rel=1e-12)
        # r = 1: branch through [0, 1/2) sees 1 + sqrt(2)
        assert threshold_base(f, 2, 1.0) == pytest.approx(1 + math.sqrt(2), rel=1e-12)

    def test_zero_combination(self):
        f = HaarCombination(3, {(2, 2): np.zeros(3)})
        assert threshold_base(f, 4, 1.5) == 0.0

    def test_validation(self):
        f = HaarCombination(1, {(3, 1): [1.0]})
        with pytest.raises(DomainError):
            threshold_base(f, 2, 1.5)  # support outside D_1^2
        with pytest.raises(DomainError):
            threshold_base(f, 3, 2.5)

    def test_against_branch_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_combination(rng, full_tree(4), 3)
            for r in (1.0, 1.3, 2.0):
                base = threshold_base(f, 4, r)
                best = 0.0
                for q in range(16):
                    from haarlab.dyadic import DyadicRational, branch

                    members = branch(DyadicRational(q, 4), 4) & f.support()
                    s = math.fsum(
                        (2 ** ((k - 1) / 2) * float(np.linalg.norm(f.coefficient((k, j)))))
                        ** r
                        for k, j in sorted(members)
                    )
                    best = max(best, s ** (1.0 / r))
                assert base == pytest.approx(best, rel=1e-9)


class TestLevelSetPartition:
    def test_single_index(self):
        f = HaarCombination(1, {(1, 1): [1.0]})
        fam = level_set_partition(f, 2, 2.0)
        assert fam.pieces == (frozenset({HaarIndex(1, 1)}),)
        assert fam.threshold_base == pytest.approx(1.0)

    def test_a_weight_that_underflows_takes_the_first_band_whose_bound_does(self):
        # w^2 of (2, 1) is (sqrt(2) * 1e-200)^2, which underflows to 0.0; S^2 = 1,
        # and 2^-1075 is the first power of two to underflow.  This looped forever
        f = HaarCombination(1, {(1, 1): [1.0], (2, 1): [1e-200]})
        fam = level_set_partition(f, 3, 2.0)
        assert len(fam.pieces) == 1075 and math.ldexp(1.0, -1075) == 0.0 < math.ldexp(1.0, -1074)
        assert fam.pieces[0] == {HaarIndex(1, 1)} and fam.pieces[-1] == {HaarIndex(2, 1)}
        assert not any(fam.pieces[1:-1])

    def test_a_depth_below_one_or_above_the_cap_names_the_depth(self):
        # an all-zero combination skips the support check: depth -1 raised
        # a ValueError from the branch sums' 1 << n
        for f in (HaarCombination(1, {}), HaarCombination(1, {(1, 1): [1.0]})):
            for n in (-1, 0, 21):
                with pytest.raises(DomainError) as err:
                    level_set_partition(f, n, 2.0)
                assert err.value.field == "depth"

    def test_two_bands_with_gap(self):
        f = HaarCombination(1, {(1, 1): [1.0], (2, 1): [0.1]})
        fam = level_set_partition(f, 2, 2.0)
        # weights^2 are 1 and 0.02 against S^2 = 1.02: bands 1 and 6
        assert fam.pieces[0] == {HaarIndex(1, 1)}
        assert fam.pieces[5] == {HaarIndex(2, 1)}
        assert len(fam.pieces) == 6
        for l in (2, 3, 4, 5):
            assert fam.pieces[l - 1] == frozenset()

    def test_zero_combination_empty_family(self):
        fam = level_set_partition(HaarCombination(1, {}), 3, 1.5)
        assert fam.pieces == ()
        assert fam.threshold_base == 0.0

    def test_contracts_randomized(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            f = random_combination(rng, full_tree(4), 2)
            for r in (1.0, 1.5, 2.0):
                fam = level_set_partition(f, 4, r)
                pieces = fam.pieces
                union = set().union(*pieces) if pieces else set()
                assert union == set(f.support())
                assert sum(len(p) for p in pieces) == len(f.support())
                for l, piece in enumerate(pieces, start=1):
                    if not piece:
                        continue
                    profile = branch_count_profile(piece, 4)
                    assert max(profile) < (1 << l)
                    # weight band bound on the squared sums
                    sq = math.fsum(
                        float(f.coefficient(i) @ f.coefficient(i)) for i in sorted(piece)
                    )
                    assert sq <= band_weight_bound(l, r, fam.threshold_base) * (1 + 1e-9)


class TestWeightsFromRows:
    def test_partition_matches_per_index_norms(self):
        """Weights from the norms of all rows at once give the pieces and
        the base of per-index norm calls, bit for bit."""
        rng = np.random.default_rng(17)
        for f, n, space in random_families(rng, 600, 8):
            norm_fn = space_norm(space)
            for r in (1.0, float(rng.uniform(1.0, 2.0)), 2.0):
                pieces, base = reference_level_set_partition(f, n, r, norm_fn)
                family = level_set_partition(f, n, r, space)
                assert family.pieces == pieces
                assert family.threshold_base == base
                assert threshold_base(f, n, r, space) == base

    def test_a_deep_sparse_set_takes_its_bands_without_a_tree_sized_table(self):
        """{(1,1), (20,1)} at depth 20: branch sums over the 2^20 cells of
        the tree took 8.0 MiB traced; the sums down the set's own chains
        and the bands take about 4 KiB."""
        f = HaarCombination(1, {(1, 1): [1.0], (20, 1): [1.0]})
        for call in (threshold_base, level_set_partition):
            call(f, 20, 1.5)  # first calls allocate caches
            peak = peak_traced_bytes(lambda: call(f, 20, 1.5))
            assert peak <= 64 << 10, (call.__name__, peak)


# entries of one sign and a magnitude whose weights stay clear of underflow
# (the reference's halving loop would not end on a weight of 0.0), and
# values whose weights land on band bounds exactly
ENTRIES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 0.25]),
    st.builds(math.copysign, st.floats(1e-6, 1e3), st.sampled_from([1.0, -1.0])),
)
EXPONENTS = st.one_of(st.sampled_from([1.0, 4 / 3, 1.5, 2.0]), st.floats(1.0, 2.0))


@st.composite
def weighted_families(draw):
    """(f, n, space): a combination on up to 30 indices of the depth-n tree,
    n from 1 to 12, with rows of dimension 1 to 4 (zero rows included)
    and the space l1, l2, linf or the default l2 (None)."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    nodes = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=30))
    rows = {
        from_heap_id(node): draw(st.lists(ENTRIES, min_size=dim, max_size=dim))
        for node in sorted(nodes)
    }
    norm = draw(st.sampled_from([None, *Norm]))
    return HaarCombination(dim, rows), n, None if norm is None else NormedSpaceSpec(dim, norm)


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=weighted_families(), r=EXPONENTS,
       p=st.one_of(st.sampled_from([1.0, 4 / 3, 1.5]), st.floats(1.0, 2.0, exclude_max=True)))
def test_bands_and_the_greedy_cover_match_the_branch_grid_references(family, r, p):
    """Bands and thresholds from each index's chain of support ancestors
    equal the references that sum every cell of the depth-n tree: the same
    pieces and the same threshold bits."""
    f, n, space = family
    pieces, base = reference_level_set_partition(f, n, r, space_norm(space))
    partition = level_set_partition(f, n, r, space)
    assert partition.pieces == pieces
    assert partition.threshold_base.hex() == base.hex()
    assert threshold_base(f, n, r, space).hex() == base.hex()
    cover = greedy_family(f, n, p, space)
    expected = reference_greedy_family(f, n, p, space)
    assert (cover.pieces, cover.m, cover.padded) == (expected.pieces, expected.m, expected.padded)
    assert cover.threshold_base.hex() == reference_level_set_partition(
        f, n, p, space_norm(space))[1].hex()


class TestGreedyFamily:
    def test_matches_the_public_path(self):
        """The heap-id padding gives the pieces of level_set_partition's bands
        padded by fill_to_height."""
        rng = np.random.default_rng(23)
        for f, n, space in random_families(rng, 200, 8):
            p = float(rng.uniform(1.0, 2.0))
            assert greedy_family(f, n, p, space) == reference_greedy_family(f, n, p, space)

    def test_single_index_padded(self):
        f = HaarCombination(1, {(1, 1): [1.0]})
        fam = greedy_family(f, 2, 1.5)
        assert fam.m == 1
        assert fam.pieces == (full_tree(2), frozenset())
        assert fam.padded == (True,)

    def test_zero_family_degenerate(self):
        fam = greedy_family(HaarCombination(2, {}), 4, 1.2)
        assert fam.m == 2
        assert fam.pieces[:2] == (frozenset(), frozenset())
        assert fam.pieces[2] == full_tree(4)
        assert fam.padded == (False, False)

    def test_validation(self):
        f = HaarCombination(1, {(1, 1): [1.0]})
        with pytest.raises(DomainError):
            greedy_family(f, 2, 2.0)
        with pytest.raises(DomainError):
            greedy_family(f, 0, 1.5)

    def test_contracts_randomized(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 6))
            f = random_combination(rng, full_tree(n), 2)
            p = [1.2, 4 / 3, 1.5][trial % 3]
            fam = greedy_family(f, n, p)
            assert len(fam.pieces) == fam.m + 1
            # pieces partition the whole tree
            union = set()
            for piece in fam.pieces:
                assert not piece & union
                union |= piece
            assert union == set(full_tree(n))
            # height bounds
            for l, piece in enumerate(fam.pieces, start=1):
                cap = (1 << l) if l <= fam.m else n
                assert local_height(piece) <= cap
            # weight band bound per piece, exponent l for l <= m, m for final
            if fam.threshold_base > 0:
                for l, piece in enumerate(fam.pieces, start=1):
                    exp = l - 1 if l <= fam.m else fam.m
                    cap = fam.threshold_base / 2 ** (exp / p)
                    for idx, w in branch_weight_profile(f, piece).items():
                        assert w <= cap * (1 + 1e-9)
            # cumulative cardinality bound at padded steps
            total = 0
            for l, piece in enumerate(fam.pieces[: fam.m], start=1):
                total += len(piece)
                if fam.padded[l - 1]:
                    assert total >= (1 << (1 << l)) - 1
