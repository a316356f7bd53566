"""The integer fill and compression kernels against set-based references,
and the level cap read at call time by every entry point."""

import numpy as np
import pytest

from haarlab.combination import HaarCombination
from haarlab.combinatorics import fill_one, fill_to_height, local_height
from haarlab.dyadic import full_tree, make_index_set
from haarlab.errors import DomainError
from haarlab.transforms import compress, fork_split
from helpers import all_subsets, random_subset, reference_compress, reference_fill_sequence


def assert_fill_matches(subset, n):
    """fill_one and fill_to_height agree with the reference at every budget."""
    for l in range(max(local_height(subset), 1), n + 1):
        if len(subset) >= (1 << l) - 1:
            continue
        expected = reference_fill_sequence(subset, l, n)
        assert fill_to_height(subset, l, n) == frozenset(expected), (sorted(subset), l, n)
        assert fill_one(subset, l, n) == expected[0]


def test_fill_matches_reference_on_every_subset_of_depth_4():
    for subset in all_subsets(full_tree(4)):
        assert_fill_matches(subset, 4)


@pytest.mark.parametrize("depth", [5, 6])
def test_fill_matches_reference_on_seeded_subsets(depth):
    rng = np.random.default_rng(depth)
    pool = sorted(full_tree(depth))
    for _ in range(2000):
        size = int(rng.integers(0, len(pool)))
        assert_fill_matches(random_subset(rng, pool, size), depth)


def test_compression_traces_match_reference_step_by_step():
    rng = np.random.default_rng(11)
    for trial in range(3000):
        depth = 4 + trial % 3
        pool = sorted(full_tree(depth))
        subset = random_subset(rng, pool, int(rng.integers(1, len(pool) + 1)))
        trace = compress(subset)
        steps, final, m = reference_compress(subset)
        assert trace.steps == steps, sorted(subset)
        assert trace.final_set == final
        assert trace.m == m
        assert trace.initial_set == subset


LEVEL_4 = "Haar index level 4 exceeds the configured maximum level 3"


def test_level_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "3")
    bad = [(1, 1), (4, 1)]
    calls = [
        lambda: local_height(bad),
        lambda: fill_to_height(bad, 3, 4),
        lambda: fill_one(bad, 3, 4),
        lambda: compress(bad),
        lambda: fork_split(bad, (1, 1)),
        lambda: make_index_set(bad),
        lambda: HaarCombination(1, {idx: [1.0] for idx in bad}),
    ]
    for call in calls:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == LEVEL_4
    # the same calls pass once the cap allows level 4 again
    monkeypatch.setenv("HAARLAB_MAX_LEVEL", "4")
    assert local_height(bad) == 2
    assert compress(bad).final_set
