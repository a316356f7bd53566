"""Reproducible experiment runners: verification battery, formula sweeps,
and the certificate-chain experiment for the logarithmic norm bound.

Every runner returns an ExperimentReport whose rows are plain records ready
for CSV emission and whose checks carry an asserted flag; a failed asserted
check makes the report exit nonzero.  Reports are deterministic functions of
(seed, inputs): trials run in order, so output bytes are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .combination import HaarCombination
from .combinatorics import _greedy_cover, _local_height, band_weight_bound, is_partition
from .config import _level_limit, check_level, max_level as level_cap
from .errors import DomainError
from .normlab import (
    QUADRATURE_TOLERANCE,
    OperatorSpec,
    _check_budget,
    _diagonal_example,
    _tau_estimate,
    apply_operator,
    conjugate_exponent,
    diagonal_formula_tau_p_values,
    diagonal_formula_tau_values,
    lp_norm_of_combination,
)
from .serialize import ExperimentReport, check_row
from .verify import _random_family, corrupted_fork_rows, run_all_suites


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs: seed, level cap, optimizer tolerance and budgets.  The
    CLI takes its knob defaults from here."""

    seed: int = 0
    max_level: int | None = None
    optimizer_tolerance: float = 2e-2
    restarts: int = 8
    iterations: int = 60

    def __post_init__(self):
        """Each error names the option that sets the field at fault."""
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}", "seed")
        if not 0 < self.optimizer_tolerance < math.inf:
            raise DomainError("optimizer_tolerance must be positive and finite", "tol-opt")
        cap = level_cap()
        if self.max_level is not None and not 1 <= self.max_level <= cap:
            raise DomainError(
                f"max_level must lie in 1..{cap} (the HAARLAB_MAX_LEVEL cap), "
                f"got {self.max_level}",
                "max-level",
            )
        _check_budget(self.restarts, self.iterations)

    def level_limit(self) -> int:
        return _level_limit(self.max_level)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "maxLevel": self.level_limit(),
            "tolerances": {
                "quadrature": QUADRATURE_TOLERANCE,
                "optimizer": self.optimizer_tolerance,
            },
            "budgets": {"restarts": self.restarts, "iterations": self.iterations},
        }


# ---------------------------------------------------------------------------
# verification battery


def run_verify(
    config: ExperimentConfig | None = None,
    inject_fault: bool = False,
    scales: dict | None = None,
) -> ExperimentReport:
    """Run every invariant suite and aggregate the outcome.

    inject_fault feeds a corrupted fork coefficient table into the relation
    suite, unless scales already gives it rows; the report must then fail,
    which is itself a testable contract.
    """
    config = config or ExperimentConfig()
    if inject_fault:
        scales = dict(scales or {})
        relations = {"rows": corrupted_fork_rows(), **scales.get("fork-relations", {})}
        scales["fork-relations"] = relations
    results = run_all_suites(max_level=config.max_level, seed=config.seed, scales=scales)
    report = ExperimentReport(
        name="verify",
        parameters=dict(seed=config.seed, maxLevel=config.level_limit(), injectFault=inject_fault),
    )
    for suite in results:
        report.rows.append(
            {
                "suite": suite["name"],
                "passed": int(suite["passed"]),
                "checked": suite["checked"],
                "failures": suite["failureCount"],
                "sample": "; ".join(suite["failures"]),
            }
        )
        report.checks.append(check_row(f"suite:{suite['name']}", suite["passed"]))
    return report


# ---------------------------------------------------------------------------
# closed-form sweep


def run_weak_type_sweep(p: float, n_max: int = 10**6) -> ExperimentReport:
    """Tabulate both diagonal closed forms against their growth envelopes.

    Row-wise assertions: the tau column stays below n^(1/p-1/2) and the tau_p
    column above the logarithmic floor (1/2)(1+ln n)^(1/p').
    """
    if not 1.0 < p < 2.0:
        raise DomainError(f"exponent p must lie in (1, 2), got {p}", "p")
    # the default length already peaks near 570 MB; bound it before any array
    if not 1 <= n_max <= 10**6:
        raise DomainError(f"sweep length must lie in 1..1000000, got {n_max}", "n-max")
    q = conjugate_exponent(p)

    n = np.arange(1, n_max + 1, dtype=np.float64)
    tau = diagonal_formula_tau_values(n_max, p)
    tau_p = diagonal_formula_tau_p_values(n_max, p)
    envelope = n ** (1.0 / p - 0.5)
    ratio = tau / envelope
    floor = 0.5 * (1.0 + np.log(n)) ** (1.0 / q)

    weak_ok = bool(np.all(ratio <= 1.0))
    weak_worst = int(np.argmax(ratio))
    floor_ok = bool(np.all(tau_p >= floor))
    floor_worst = int(np.argmin(tau_p - floor))

    report = ExperimentReport(
        name="weak-type-sweep",
        parameters={"p": p, "nMax": n_max},
    )
    columns = zip(
        range(1, n_max + 1),
        tau.tolist(),
        envelope.tolist(),
        ratio.tolist(),
        tau_p.tolist(),
        floor.tolist(),
    )
    report.rows = [
        {
            "n": row[0],
            "tau": row[1],
            "weakTypeEnvelope": row[2],
            "ratio": row[3],
            "tauP": row[4],
            "logFloor": row[5],
        }
        for row in columns
    ]
    report.checks.append(
        check_row(
            "tau-below-weak-type-envelope",
            weak_ok,
            worstN=weak_worst + 1,
            worstRatio=float(ratio[weak_worst]),
        )
    )
    report.checks.append(
        check_row(
            "tau-p-above-log-floor",
            floor_ok,
            worstN=floor_worst + 1,
            worstGap=float(tau_p[floor_worst] - floor[floor_worst]),
        )
    )
    return report


# ---------------------------------------------------------------------------
# certificate chain for the logarithmic bound


def _tree_tau_table(
    op: OperatorSpec, m: int, config: ExperimentConfig
) -> list[float]:
    """Estimated tau over the full trees of depth 2^l for l = 1..m+1.

    The depth-2^l tree is the heap ids 1 .. 2^(2^l) - 1, passed as an array
    to the estimator's unchecked entry; the caller has checked the level cap
    on the deepest tree.
    """
    table = []
    for l in range(1, m + 2):
        est = _tau_estimate(
            op, np.arange(1, 1 << (1 << l)), config.restarts, config.iterations, config.seed
        )
        table.append(est.lower_bound)
    return table


def log_variant_certificate(
    op: OperatorSpec,
    f: HaarCombination,
    n: int,
    p: float,
    tau_table: Sequence[float],
    config: ExperimentConfig,
) -> dict:
    """One certificate-chain evaluation for a single coefficient family.

    Splits the tree with the padded cover and walks the chain: the direct
    image norm is below the triangle sum over the pieces, which in turn is
    below the assembled right-hand side (tree estimate per height budget
    times the band weight bound).  A family supported on a single piece
    collapses the triangle sum to one term that equals the direct norm.
    """
    # the cover on heap ids, which go straight to the partition and height
    # checks and to the restrictions
    piece_ids, m, base, _padded = _greedy_cover(f, n, p, op.domain)

    image = apply_operator(op, f)
    direct = lp_norm_of_combination(image, op.codomain, 2.0)

    cover_ok = is_partition(piece_ids, frozenset(range(1, 1 << n))) and all(
        _local_height(list(ids)) <= ((1 << l) if l <= m else n)
        for l, ids in enumerate(piece_ids, start=1)
    )
    piece_norm_sum = 0.0
    for ids in piece_ids:
        piece_norm_sum += lp_norm_of_combination(image._restricted_to_ids(ids), op.codomain, 2.0)

    certificate = 0.0
    for l in range(1, m + 2):
        # piece l carries squared weight at most the band bound, and its
        # height budget 2^l hands the norm over to the full-tree estimate
        certificate += tau_table[l - 1] * math.sqrt(band_weight_bound(l, p, base))
    slack = 1.0 + config.optimizer_tolerance
    pad = QUADRATURE_TOLERANCE
    bounded = (
        direct <= piece_norm_sum * (1.0 + pad) + pad
        and piece_norm_sum <= certificate * slack + pad
    )

    return {
        "supportSize": int(np.count_nonzero(f.rows.any(axis=1))),
        "thresholdBase": base,
        "directNorm": direct,
        "pieceNormSum": piece_norm_sum,
        "certificate": certificate,
        "ratio": direct / certificate if certificate > 0 else 0.0,
        "coverOk": cover_ok,
        "bounded": bounded,
    }


def run_log_variant_experiment(
    p: float,
    n: int = 8,
    trials: int = 50,
    config: ExperimentConfig | None = None,
    families: Iterable[HaarCombination] | None = None,
) -> ExperimentReport:
    """Certificate-chain experiment over random (or given) families.

    The right-hand side sums tree estimates over the height budgets 2^l
    weighted by the band bounds, which realizes the logarithmic growth in n;
    every trial asserts the direct norm stays below it.
    """
    config = config or ExperimentConfig()
    # the diagonal example sigma_k = k^(-1/p') needs p > 1
    if not 1.0 < p < 2.0:
        raise DomainError(f"exponent p must lie in (1, 2), got {p}", "p")
    if n < 1:
        raise DomainError(f"tree depth must be >= 1, got {n}", "depth")
    # a family and a report row per trial: bound them before any estimate
    if families is None and not 1 <= trials <= 100_000:
        raise DomainError(f"trial count must lie in 1..100000, got {trials}", "trials")

    m = n.bit_length() - 1
    # the deepest tree estimate, 2^(m+1) > n, bounds every level the chain uses
    check_level(1 << (m + 1), "tree height", "depth")
    dim = 1 << (m + 1)
    op = _diagonal_example(p, dim)
    tau_table = _tree_tau_table(op, m, config)
    if families is None:
        seeds = (np.random.SeedSequence([config.seed, t]) for t in range(trials))
        families = [_random_family(np.random.default_rng(s), n, 40, dim) for s in seeds]
    family_list = list(families)

    report = ExperimentReport(
        name="log-variant",
        parameters={
            **config.as_dict(),
            "p": p,
            "n": n,
            "trials": len(family_list),
            "treeEstimates": tau_table,
        },
    )
    all_cover = True
    all_bounded = True
    for trial, f in enumerate(family_list):
        row = log_variant_certificate(op, f, n, p, tau_table, config)
        all_cover = all_cover and row["coverOk"]
        all_bounded = all_bounded and row["bounded"]
        report.rows.append(
            {
                "trial": trial,
                **row,
                "coverOk": int(row["coverOk"]),
                "bounded": int(row["bounded"]),
            }
        )
    report.checks.append(check_row("cover-contracts", all_cover))
    report.checks.append(check_row("certificate-chain", all_bounded))
    return report
