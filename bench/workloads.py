"""The three benchmark workloads: inputs, one round of operations, checks.

A workload is built from the imported ``haarlab`` package and the seed
(its constructor makes the inputs), computes its reference values with the benchmark's own oracles
(``references``), and then runs whole rounds of identical operations
(``run_round``).  Every operation's output is checked against those
references; a check failure is reported as a string, never raised.

    verify       the invariant battery through ``haarlab.cli.main``
    tau-search   certified tau / tau_p estimates on diagonal, dense and
                 Euclidean operators
    log-variant  the certificate-chain experiment on generated families
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import traceback

import numpy as np

import oracles

P = 4.0 / 3.0  # the paper's exponent for the diagonal example


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Timing:
    """Durations of the operations and rounds of one run, in seconds."""

    def __init__(self):
        self.ops: list[float] = []
        self.rounds: list[float] = []


def attempt(call, timing: Timing):
    """Run and time one operation; None if it raised (the traceback goes to stderr)."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        return None
    timing.ops.append(time.perf_counter() - start)
    return result


# ---------------------------------------------------------------------------
# verify


VERIFY_MAX_LEVEL = 4

# default scale of each suite in haarlab.verify; the expected check counts
# are derived from these, so a suite that quietly skips work is caught
SUITE_SCALES = {
    "haar-identities": {"k_max": 8, "grid_level": 10},
    "orthonormality": {"k_max": 6},
    "branch-structure": {"n": 6},
    "swap-involution": {"h_max": 6},
    "fork-relations": {"h_max": 6},
    "composition-contract": {"h_max": 6, "k_max": 8},
    "fork-split-compression": {"n": 4},
    "rewrite-invariance": {"trials": 500},
    "fill-combinatorics": {"n_max": 4},
    "partition-bounds": {"trials": 1000, "exponents": (1.0, 1.5, 2.0)},
    "greedy-cover": {"trials": 200},
    "norm-identities": {"trials": 500},
    "estimator-oracles": {},
    "comparison-residuals": {"trials": 3},
}


def expected_verify_counts(cap: int, overrides: dict | None = None) -> dict[str, int | None]:
    """Number of checks each suite must make at level cap `cap`.

    None marks the one suite whose count depends on its random draws
    (rewrite-invariance counts compression steps); it must only be positive.
    """
    s = {name: {**scale, **(overrides or {}).get(name, {})} for name, scale in SUITE_SCALES.items()}
    out: dict[str, int | None] = {}

    sc = s["haar-identities"]
    k_top, grid = min(sc["k_max"], cap), min(sc["grid_level"], cap)
    # translation: (k, j) with a right neighbour, grid points t >= 2^(1-k)
    translation = sum(
        ((1 << (k - 1)) - 1) * ((1 << grid) - (1 << (grid - k + 1)))
        for k in range(1, k_top + 1)
        if k - 1 <= grid
    )
    k_top, grid = min(sc["k_max"] - 1, cap - 1), min(sc["grid_level"], cap - 1)
    # scaling: every (k, j) at every grid point t < 1/2
    scaling = sum((1 << (k - 1)) * (1 << (grid - 1)) for k in range(1, k_top + 1))
    out["haar-identities"] = translation + scaling

    members = (1 << min(s["orthonormality"]["k_max"], cap)) - 1
    out["orthonormality"] = members * (members + 1) // 2  # pairs a <= b

    out["branch-structure"] = 1 << min(s["branch-structure"]["n"], cap)

    h_top = min(s["swap-involution"]["h_max"], cap - 1)
    out["swap-involution"] = sum((1 << (h - 1)) << min(h + 2, cap) for h in range(1, h_top + 1))

    out["fork-relations"] = (1 << min(s["fork-relations"]["h_max"], cap - 1)) - 1

    sc = s["composition-contract"]
    forks = (1 << min(sc["h_max"], cap - 1)) - 1
    out["composition-contract"] = forks * ((1 << min(sc["k_max"], cap)) - 1 - 3)

    depth = max(1, min(s["fork-split-compression"]["n"], cap - 1))
    n = (1 << depth) - 1
    # one compression per nonempty subset, plus one split per admissible
    # member: a member with both successors in the tree is admissible in
    # 2^(n-3) of the subsets holding it, a bottom-level member in all 2^(n-1)
    inner, bottom = (1 << (depth - 1)) - 1, 1 << (depth - 1)
    out["fork-split-compression"] = (1 << n) - 1 + inner * (1 << max(n - 3, 0)) + bottom * (1 << (n - 1))

    out["rewrite-invariance"] = None

    fills = 0
    for depth in range(1, min(s["fill-combinatorics"]["n_max"], cap) + 1):
        sizes, heights = oracles.subset_local_heights(depth)
        for l in range(1, depth + 1):
            fills += int(np.sum((np.maximum(heights, 1) <= l) & (sizes < (1 << l) - 1)))
    out["fill-combinatorics"] = fills

    sc = s["partition-bounds"]
    out["partition-bounds"] = sc["trials"] * len(sc["exponents"])
    out["greedy-cover"] = s["greedy-cover"]["trials"]
    out["norm-identities"] = s["norm-identities"]["trials"]
    # identity and SVD oracles, four checks per closed-form depth, monotonicity
    out["estimator-oracles"] = 2 + 4 * sum(1 for n in (2, 3) if n <= cap) + 1
    out["comparison-residuals"] = s["comparison-residuals"]["trials"]
    return out


def check_verify_report(report: dict, exit_code: int, expected: dict) -> list[str]:
    """Errors in a verify report: exit code, suite verdicts, check counts."""
    errors = []
    if exit_code != 0:
        errors.append(f"verify exited {exit_code}")
    if report.get("passed") is not True:
        errors.append("verify report did not pass")
    rows = {row["suite"]: row for row in report.get("rows", [])}
    if list(rows) != list(expected):
        errors.append(f"suites {list(rows)} != {list(expected)}")
    for name, want in expected.items():
        row = rows.get(name)
        if row is None:
            continue
        if row["passed"] != 1 or row["failures"] != 0:
            errors.append(f"suite {name} failed: {row['sample']}")
        if want is None:
            if row["checked"] < 1:
                errors.append(f"suite {name} checked nothing")
        elif row["checked"] != want:
            errors.append(f"suite {name} checked {row['checked']}, scale requires {want}")
    return errors


class VerifyWorkload:
    """The full 14-suite battery as a user runs it, at --max-level 4."""

    name = "verify"
    min_rounds = 3

    def __init__(self, haarlab, seed: int, out_dir: str):
        self.cli = haarlab.cli
        self.out_dir = out_dir
        self.argv = ["verify", "--max-level", str(VERIFY_MAX_LEVEL), "--seed", str(seed)]

    def references(self) -> None:
        self.expected = expected_verify_counts(VERIFY_MAX_LEVEL)

    def run_round(self, timing: Timing, paused) -> tuple[int, int, list[str]]:
        fd, path = tempfile.mkstemp(prefix="verify-", suffix=".json", dir=self.out_dir)
        os.close(fd)
        try:
            code = attempt(lambda: self.cli.main([*self.argv, "--output", path]), timing)
            if code is None or code == 2:
                return 1, 1, []
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        finally:
            os.remove(path)
        timing.rounds.append(timing.ops[-1])
        counted = {row["suite"]: row["checked"] for row in report.get("rows", [])}
        exhaustive = [name for name, want in self.expected.items() if want is not None]
        self.coverage = sum(counted.get(name, 0) for name in exhaustive) / sum(
            self.expected[name] for name in exhaustive
        )
        return 1, 0, check_verify_report(report, code, self.expected)

    def bound_ratio(self) -> float:
        """Checks made over checks the scale requires: 1 unless work was skipped."""
        return self.coverage


# ---------------------------------------------------------------------------
# tau-search


class TauInstance:
    """One certified estimate: operator, index set (or tree depth), reference."""

    def __init__(self, label, op, matrix, domain, codomain, indices=None, depth=None,
                 p=None, est_seed=0, floor=None, exact=False):
        self.label = label
        self.op = op
        self.matrix = matrix
        self.domain = domain
        self.codomain = codomain
        self.indices = indices
        self.depth = depth
        self.p = p
        self.est_seed = est_seed
        self.floor = floor  # least share of the reference the bound must reach
        self.exact = exact  # the bound must equal the reference (l2 -> l2)
        self.reference = None


def check_estimate(inst: TauInstance, lower_bound: float, witness: dict) -> list[str]:
    """Errors of one estimate against its witness and its references."""
    errors = []
    where = inst.label
    if not math.isfinite(lower_bound):
        return [f"{where}: bound {lower_bound} is not finite"]
    if inst.p is None:
        num, den = oracles.tau_parts(witness, inst.matrix, inst.domain, inst.codomain)
    else:
        num, den = oracles.tau_p_parts(witness, inst.matrix, inst.domain, inst.codomain, inst.p)
    # the estimator returns its witness normalised to denominator 1
    if _rel(den, 1.0) > 1e-9 or _rel(num, lower_bound) > 1e-9:
        errors.append(f"{where}: witness gives {num}/{den}, bound says {lower_bound}")
    if lower_bound > inst.reference * (1.0 + 1e-9):
        errors.append(f"{where}: bound {lower_bound} above reference {inst.reference}")
    if inst.exact and _rel(lower_bound, inst.reference) > 1e-8:
        errors.append(f"{where}: bound {lower_bound} != top singular value {inst.reference}")
    if inst.floor is not None and lower_bound < inst.floor * inst.reference:
        errors.append(f"{where}: bound {lower_bound} below {inst.floor} x {inst.reference}")
    return errors


class TauSearchWorkload:
    """Certified lower estimates through tau_estimate and tau_p_estimate."""

    name = "tau-search"
    min_rounds = 3  # at least 100 estimates per run for the 90th percentile

    DIM = 16  # diagonal example dimension, above every local height used

    def __init__(self, haarlab, seed: int, out_dir: str):
        self.normlab = haarlab.normlab
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        Norm, OperatorSpec, NormedSpaceSpec = haarlab.Norm, haarlab.OperatorSpec, haarlab.NormedSpaceSpec

        def est_seed() -> int:
            return int(rng.integers(0, 2**31))

        def tree(n):
            return [(k, j) for k in range(1, n + 1) for j in range(1, (1 << (k - 1)) + 1)]

        def band(m, n):
            return [(k, j) for k in range(m, n + 1) for j in range(1, (1 << (k - 1)) + 1)]

        def subset(depth, size):
            pool = tree(depth)
            picks = rng.choice(len(pool), size=size, replace=False)
            return [pool[int(b)] for b in sorted(picks)]

        sigma = oracles.diagonal_entries(self.DIM, P)
        diag = OperatorSpec.diagonal(sigma, Norm.L1)
        diag_matrix = np.diag(sigma)
        out = []
        for n in (3, 4, 5, 6):
            out.append(TauInstance(f"diag-l1 tree {n}", diag, diag_matrix, "l1", "l1",
                                   indices=tree(n), est_seed=est_seed(), floor=0.98))
        for m, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
            out.append(TauInstance(f"diag-l1 band {m}..{n}", diag, diag_matrix, "l1", "l1",
                                   indices=band(m, n), est_seed=est_seed(), floor=0.98))
        for n in (3, 4, 5):
            out.append(TauInstance(f"diag-l1 tau_p {n}", diag, diag_matrix, "l1", "l1",
                                   depth=n, p=P, est_seed=est_seed(), floor=0.95))
        # set sizes and dimensions are fixed, so the seed moves the shape of
        # the work (which indices, which matrices) but hardly its amount
        for depth in (6, 7, 8):
            for size in (6, 12, 18, 24):
                out.append(TauInstance(f"diag-l1 subset of tree {depth} ({size})", diag, diag_matrix,
                                       "l1", "l1", indices=subset(depth, size), est_seed=est_seed()))
        for domain in ("linf", "l2"):
            for dim in (4, 5, 6, 8):
                matrix = rng.standard_normal((dim, dim))
                op = OperatorSpec.dense(matrix, NormedSpaceSpec(dim, domain), NormedSpaceSpec(dim, "l1"))
                for indices in (tree(3), subset(6, 10)):
                    out.append(TauInstance(f"dense {domain}->l1 d={dim} set of {len(indices)}",
                                           op, matrix, domain, "l1", indices=indices,
                                           est_seed=est_seed()))
        # one fixed l2 -> l2 operator: power iteration stops on a small change
        # of the Rayleigh quotient, which on rare random matrices leaves it
        # 1e-7 short of the top singular value (see CHANGES.md), so this
        # instance does not depend on the seed
        matrix = np.random.default_rng(0).standard_normal((6, 6))
        space = NormedSpaceSpec(6, "l2")
        out.append(TauInstance("dense l2->l2 d=6", OperatorSpec.dense(matrix, space, space),
                               matrix, "l2", "l2", indices=tree(3), est_seed=0, exact=True))
        self.instances = out
        self.first_bounds: list[float] | None = None

    def references(self) -> None:
        for inst in self.instances:
            if inst.p is not None:
                inst.reference = oracles.diagonal_tau_p(inst.depth, inst.p)
            elif inst.domain == "l1":
                # diagonal example: closed form at the set's local height
                inst.reference = oracles.diagonal_tau(oracles.brute_local_height(inst.indices), P)
            elif inst.exact:
                inst.reference = oracles.operator_norm(inst.matrix, "l2", "l2")
            else:
                # Cauchy-Schwarz along each branch: ||T|| sqrt(lh F)
                inst.reference = oracles.operator_norm(inst.matrix, inst.domain, inst.codomain) * math.sqrt(
                    oracles.brute_local_height(inst.indices)
                )

    def run_round(self, timing: Timing, paused) -> tuple[int, int, list[str]]:
        errors = []
        bounds = []
        first_op = len(timing.ops)
        for inst in self.instances:
            if inst.p is None:
                call = lambda: self.normlab.tau_estimate(inst.op, inst.indices, seed=inst.est_seed)
            else:
                call = lambda: self.normlab.tau_p_estimate(inst.op, inst.depth, inst.p, seed=inst.est_seed)
            est = attempt(call, timing)
            if est is None:
                bounds.append(None)
                continue
            with paused():
                witness = {tuple(a): x for a, x in est.best_witness.items()}
            errors.extend(check_estimate(inst, est.lower_bound, witness))
            bounds.append(est.lower_bound)
        timing.rounds.append(sum(timing.ops[first_op:]))
        if self.first_bounds is None:
            self.first_bounds = bounds
        elif bounds != self.first_bounds:
            errors.append("estimates differ between rounds on identical inputs")
        return len(self.instances), bounds.count(None), errors

    def bound_ratio(self) -> float:
        ratios = [b / inst.reference for b, inst in zip(self.first_bounds, self.instances) if b is not None]
        return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# log-variant


def check_log_variant(report: dict, trials: int, direct_norms: list[float], p: float) -> list[str]:
    """Errors in a log-variant report against the benchmark's recomputation."""
    errors = []
    if report.get("passed") is not True:
        errors.append("log-variant report did not pass")
    rows = report.get("rows", [])
    if len(rows) != trials:
        errors.append(f"{len(rows)} rows for {trials} trials")
    for row, want in zip(rows, direct_norms):
        if _rel(row["directNorm"], want) > 1e-9:
            errors.append(f"trial {row['trial']}: directNorm {row['directNorm']} != {want}")
    for l, est in enumerate(report["parameters"]["treeEstimates"], start=1):
        closed = oracles.diagonal_tau(1 << l, p)
        if not 0.98 * closed <= est <= closed * (1.0 + 1e-9):
            errors.append(f"tree estimate {est} at height {1 << l} outside [0.98, 1] x {closed}")
    return errors


class LogVariantWorkload:
    """The certificate chain for the logarithmic bound on generated families."""

    name = "log-variant"
    min_rounds = 3

    DEPTH = 8  # tree table up to full_tree(16): 65,535 indices
    TRIALS = 120
    MAX_SUPPORT = 40

    def __init__(self, haarlab, seed: int, out_dir: str):
        self.experiments = haarlab.experiments
        self.config = haarlab.ExperimentConfig(seed=seed)
        m = self.DEPTH.bit_length() - 1
        self.dim = 1 << (m + 1)  # the experiment's operator dimension
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        pool = [(k, j) for k in range(1, self.DEPTH + 1) for j in range(1, (1 << (k - 1)) + 1)]
        self.plain = []
        for trial in range(self.TRIALS):
            size = 1 + trial % self.MAX_SUPPORT  # every support size equally often
            picks = rng.choice(len(pool), size=size, replace=False)
            coeffs = {}
            for b in sorted(picks):
                k, j = pool[int(b)]
                coeffs[(k, j)] = rng.standard_normal(self.dim) * 2.0 ** (-(k - 1) / 2.0)
            self.plain.append(coeffs)
        self.families = [haarlab.HaarCombination(self.dim, c) for c in self.plain]
        self.tree_ratio = None

    def references(self) -> None:
        sigma = oracles.diagonal_entries(self.dim, P)
        self.direct = [
            oracles.lp_norm({a: sigma * x for a, x in c.items()}, "l1", 2.0) for c in self.plain
        ]

    def run_round(self, timing: Timing, paused) -> tuple[int, int, list[str]]:
        report = attempt(
            lambda: self.experiments.run_log_variant_experiment(
                P, n=self.DEPTH, trials=self.TRIALS, config=self.config, families=self.families
            ),
            timing,
        )
        if report is None:
            return 1, 1, []
        timing.rounds.append(timing.ops[-1])
        with paused():
            doc = report.to_json_dict()
        errors = check_log_variant(doc, self.TRIALS, self.direct, P)
        table = doc["parameters"]["treeEstimates"]
        self.tree_ratio = float(
            np.mean([est / oracles.diagonal_tau(1 << l, P) for l, est in enumerate(table, start=1)])
        )
        return 1, 0, errors

    def bound_ratio(self) -> float:
        return self.tree_ratio


WORKLOADS = {w.name: w for w in (VerifyWorkload, TauSearchWorkload, LogVariantWorkload)}
