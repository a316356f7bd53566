"""Invariant suite battery: scaled-down runs, fault injection, level caps."""

import numpy as np
import pytest

from haarlab import verify
from haarlab.combinatorics import _local_height, fill_one, fill_to_height, local_height
from haarlab.dyadic import full_tree
from haarlab.transforms import compress, fork_split, is_admissible
from helpers import (
    all_subsets,
    brute_local_height,
    reference_compress,
    reference_fill_sequence,
    reference_fork_split,
)

QUICK_SCALES = {
    "haar-identities": {"k_max": 5, "grid_level": 7},
    "swap-involution": {"h_max": 4},
    "fork-relations": {"h_max": 4},
    "composition-contract": {"h_max": 4, "k_max": 6},
    "fork-split-compression": {"n": 3},
    "rewrite-invariance": {"trials": 40, "n": 5},
    "fill-combinatorics": {"n_max": 3},
    "partition-bounds": {"trials": 60},
    "greedy-cover": {"trials": 40},
    "norm-identities": {"trials": 60},
    "estimator-oracles": {"restarts": 3, "iterations": 40},
    "comparison-residuals": {"trials": 2},
}


def test_every_suite_passes_at_reduced_scale():
    results = verify.run_all_suites(seed=7, scales=QUICK_SCALES)
    assert [r["name"] for r in results] == [name for name, _ in verify.SUITES]
    for r in results:
        assert r["passed"], (r["name"], r["failures"])
        assert r["checked"] > 0
        assert r["failureCount"] == 0


def test_result_record_shape():
    r = verify.orthonormality_suite(k_max=4)
    assert set(r) == {"name", "passed", "checked", "failures", "failureCount"}
    assert r["name"] == "orthonormality"
    assert isinstance(r["failures"], list)


def test_fault_injection_breaks_only_the_relation_suite():
    relations = {**QUICK_SCALES["fork-relations"], "rows": verify.corrupted_fork_rows()}
    results = verify.run_all_suites(
        seed=7, scales={**QUICK_SCALES, "fork-relations": relations}
    )
    failed = [r["name"] for r in results if not r["passed"]]
    assert failed == ["fork-relations"]
    broken = next(r for r in results if r["name"] == "fork-relations")
    assert broken["failureCount"] > 0
    assert broken["failures"]  # samples name the offending forks


def test_level_cap_restricts_every_suite():
    capped = verify.run_all_suites(max_level=3, seed=1, scales=QUICK_SCALES)
    assert all(r["passed"] for r in capped)
    # the exhaustive suites shrink visibly under the cap
    full = verify.haar_identity_suite(k_max=5, grid_level=7)
    small = verify.haar_identity_suite(max_level=3, k_max=5, grid_level=7)
    assert 0 < small["checked"] < full["checked"]


def test_suites_are_deterministic_given_seed():
    first = verify.run_all_suites(seed=3, scales=QUICK_SCALES)
    second = verify.run_all_suites(seed=3, scales=QUICK_SCALES)
    assert [(r["checked"], r["passed"]) for r in first] == [
        (r["checked"], r["passed"]) for r in second
    ]


def test_randomized_suites_accept_external_rng():
    rng = np.random.default_rng(5)
    r = verify.rewrite_invariance_suite(trials=10, rng=rng)
    assert r["passed"]
    r = verify.partition_suite(trials=10, rng=np.random.default_rng(5))
    assert r["passed"]


def test_orthonormality_counts_all_pairs():
    r = verify.orthonormality_suite(k_max=4)
    functions = sum(1 << (k - 1) for k in range(1, 5))
    assert r["checked"] == functions * (functions + 1) // 2


def test_composition_contract_covers_non_members():
    r = verify.composition_contract_suite(h_max=2, k_max=4)
    # 3 forks, 15 indices, minus the 3 fork members for each fork
    assert r["checked"] == 3 * (15 - 3)
    assert r["passed"]


# ---------------------------------------------------------------------------
# the exhaustive suites run on the kernels; tie the public wrappers to the
# references, and the suites to the kernels they call


def test_public_wrappers_match_the_references_on_every_subset_of_depth_3():
    for subset in all_subsets(full_tree(3)):
        height = local_height(subset)
        assert height == brute_local_height(subset)
        for l in range(max(height, 1), 4):
            if len(subset) < (1 << l) - 1:
                expected = reference_fill_sequence(subset, l, 3)
                assert fill_to_height(subset, l, 3) == frozenset(expected)
                assert fill_one(subset, l, 3) == expected[0]
        for h, i in subset:
            if is_admissible(subset, h, i):
                assert fork_split(subset, (h, i)) == reference_fork_split(subset, h, i)
        if subset:
            trace = compress(subset)
            assert (trace.steps, trace.final_set, trace.m) == reference_compress(subset)


def test_height_tables_match_the_kernel_local_height_on_every_mask():
    for n in range(1, 5):
        heights = verify._height_table(n)
        assert len(heights) == 1 << ((1 << n) - 1)
        for mask, height in enumerate(heights):
            assert height == _local_height(verify._mask_ids(mask)), (n, mask)


def test_fill_suite_fails_on_a_kernel_returning_an_occupied_node(monkeypatch):
    fill = verify._fill

    def occupied_first(present, counts, l, n, count):
        member = present.find(1)  # the first member, -1 for the empty set
        added = fill(present, counts, l, n, count)
        if member >= 0:
            added[0] = member
        return added

    monkeypatch.setattr(verify, "_fill", occupied_first)
    r = verify.fill_suite(n_max=3)
    assert not r["passed"] and r["failureCount"] > 0
    assert r["failures"][0] == "fill n=2 l=2 [HaarIndex(k=1, j=1)]: overlap"
    assert all(sample.endswith(": overlap") for sample in r["failures"])


def test_split_compression_suite_fails_on_a_split_dropping_a_member(monkeypatch):
    split = verify._split
    monkeypatch.setattr(verify, "_split", lambda ids, node: split(ids, node)[:-1])
    r = verify.fork_split_compression_suite(n=3)
    assert not r["passed"] and r["failureCount"] > 0
    assert r["failures"][0] == "split [HaarIndex(k=1, j=1)] at (1,1): cardinality"
    assert all(sample.endswith(": cardinality") for sample in r["failures"])
