"""Command line interface.

Every subcommand assembles an ExperimentReport and emits it as JSON (default)
or CSV; --output redirects to a file.  Each subcommand registers only the
shared knobs it reads.  Exit codes: 0 when all asserted checks pass, 1 when
an asserted check fails, 2 for usage, input or schema errors, which are
reported as a machine-readable JSON record on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .combinatorics import (
    exact_local_height,
    fill_to_height,
    level_set_partition,
    local_height,
)
from .dyadic import max_level_of
from .errors import HaarLabError, UsageError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_comparison_experiment,
    run_log_variant_experiment,
    run_verify,
    run_weak_type_sweep,
)
from .normlab import (
    monotonicity_check,
    tau_estimate,
    tau_p_estimate,
    triangle_chain_check,
)
from .serialize import (
    check_row,
    dump_combination,
    dump_index_set,
    dump_json,
    dump_trace,
    load_json,
    parse_combination,
    parse_index_set_document,
    parse_operator_document,
    write_text,
)
from .transforms import compress

# the shared knobs, each registered only by the subcommands that read it;
# a knob's dest is the ExperimentConfig field it sets
_KNOBS = {
    "--seed": dict(type=int, default=0, help="randomness seed"),
    "--max-level": dict(type=int, default=None, help="restrict suites to this level"),
    "--restarts": dict(type=int, default=8, help="optimizer restarts"),
    "--iters": dict(
        dest="iterations", metavar="ITERS", type=int, default=60, help="iterations per restart"
    ),
    "--tol-opt": dict(
        dest="optimizer_tolerance",
        metavar="TOL_OPT",
        type=float,
        default=2e-2,
        help="relative optimizer tolerance",
    ),
    "--output": dict(default=None, help="write the report here"),
    "--format": dict(choices=("json", "csv"), default="json", help="report format"),
}


def _add_knobs(parser: argparse.ArgumentParser, *flags: str):
    """Register the given shared knobs plus --output and --format."""
    for flag in (*flags, "--output", "--format"):
        parser.add_argument(flag, **_KNOBS[flag])


def _config(args) -> ExperimentConfig:
    """Config from the knobs the subcommand registered; the rest keep their
    defaults."""
    names = [f.name for f in fields(ExperimentConfig) if hasattr(args, f.name)]
    return ExperimentConfig(**{name: getattr(args, name) for name in names})


def _emit(report: ExperimentReport, args) -> int:
    if args.format == "csv":
        text = report.to_csv()
    else:
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.output:
        write_text(text, args.output, "output")
    else:
        sys.stdout.write(text)
    return report.exit_code()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    report = run_verify(_config(args), inject_fault=args.inject_fault)
    return _emit(report, args)


def _cmd_compress(args) -> int:
    indices = parse_index_set_document(load_json(args.set))
    trace = compress(indices)
    trace.validate()
    lo, hi = trace.band()
    report = ExperimentReport(
        name="compress",
        parameters={
            "setFile": args.set,
            "initial": dump_index_set(trace.initial_set),
            "final": dump_index_set(trace.final_set),
            "m": trace.m,
            "band": [lo, hi],
            "localHeight": trace.height(),
            "trace": dump_trace(trace),
        },
    )
    for position, (h, i) in enumerate(trace.steps):
        report.rows.append({"step": position, "h": h, "i": i})
    report.checks.append(check_row("trace-valid", True))
    return _emit(report, args)


def _cmd_lh(args) -> int:
    indices = parse_index_set_document(load_json(args.set))
    height = local_height(indices)
    report = ExperimentReport(name="lh", parameters={"setFile": args.set})
    report.rows.append(
        {
            "size": len(indices),
            "localHeight": height,
            "maxLevel": max_level_of(frozenset(indices)),
            "exactHeight": int(exact_local_height(indices, height)),
        }
    )
    return _emit(report, args)


def _cmd_fill(args) -> int:
    indices = parse_index_set_document(load_json(args.set))
    added = fill_to_height(indices, args.height, args.depth)
    merged = frozenset(indices) | added
    report = ExperimentReport(
        name="fill",
        parameters={
            "setFile": args.set,
            "height": args.height,
            "depth": args.depth,
            "initialSize": len(indices),
            "added": dump_index_set(added),
        },
    )
    for k, j in sorted(added):
        report.rows.append({"k": k, "j": j})
    report.checks.append(check_row("cardinality", len(merged) == (1 << args.height) - 1))
    report.checks.append(check_row("height-budget", local_height(merged) <= args.height))
    return _emit(report, args)


def _cmd_partition(args) -> int:
    f = parse_combination(load_json(args.combination))
    family = level_set_partition(f, args.depth, args.exponent)
    report = ExperimentReport(
        name="partition",
        parameters={
            "combinationFile": args.combination,
            "depth": args.depth,
            "exponent": args.exponent,
            "thresholdBase": family.threshold_base,
        },
    )
    union: set = set()
    disjoint = True
    heights_ok = True
    for l, piece in enumerate(family.pieces, start=1):
        height = local_height(piece)
        heights_ok = heights_ok and height < (1 << l)
        disjoint = disjoint and not (union & piece)
        union |= piece
        report.rows.append(
            {
                "piece": l,
                "size": len(piece),
                "localHeight": height,
                "heightBound": (1 << l) - 1,
                "indices": " ".join(f"({k},{j})" for k, j in sorted(piece)),
            }
        )
    report.checks.append(check_row("partition-exact", disjoint and union == f.support()))
    report.checks.append(check_row("piece-heights", heights_ok))
    return _emit(report, args)


def _cmd_tau(args) -> int:
    operator = parse_operator_document(load_json(args.operator))
    indices = parse_index_set_document(load_json(args.set))
    est = tau_estimate(
        operator, indices, restarts=args.restarts, iterations=args.iterations, seed=args.seed
    )
    report = ExperimentReport(
        name="tau",
        parameters={"operatorFile": args.operator, "setFile": args.set},
    )
    report.rows.append({"setSize": len(indices), **est.as_dict()})
    if args.witness:
        dump_json(dump_combination(est.best_witness), args.witness, "witness")
    return _emit(report, args)


def _cmd_tau_p(args) -> int:
    operator = parse_operator_document(load_json(args.operator))
    est = tau_p_estimate(
        operator,
        args.depth,
        args.p,
        restarts=args.restarts,
        iterations=args.iterations,
        seed=args.seed,
    )
    report = ExperimentReport(
        name="tau-p",
        parameters={"operatorFile": args.operator, "depth": args.depth, "p": args.p},
    )
    report.rows.append({"depth": args.depth, "p": args.p, **est.as_dict()})
    if args.witness:
        dump_json(dump_combination(est.best_witness), args.witness, "witness")
    return _emit(report, args)


def _cmd_check(args) -> int:
    needed = {"comparison": "set", "triangle": "combination"}.get(args.kind)
    if needed and getattr(args, needed) is None:
        raise UsageError(f"check --kind {args.kind} requires --{needed}")
    config = _config(args)
    if args.kind == "comparison":
        report = run_comparison_experiment(args.operator, args.set, config)
        return _emit(report, args)

    operator = parse_operator_document(load_json(args.operator))
    if args.kind == "monotonicity":
        result = monotonicity_check(
            operator,
            args.m,
            args.depth,
            restarts=config.restarts,
            iterations=config.iterations,
            seed=config.seed,
            tolerance=config.optimizer_tolerance,
        )
        report = ExperimentReport(
            name="check-monotonicity",
            parameters={"operatorFile": args.operator, "m": args.m, "n": args.depth},
        )
        for label, estimate in result["estimates"].items():
            report.rows.append({"band": label, "lowerBound": estimate["lowerBound"]})
    else:  # triangle
        f = parse_combination(load_json(args.combination))
        result = triangle_chain_check(
            operator, f, args.exponent, quadrature_tolerance=config.quadrature_tolerance
        )
        report = ExperimentReport(
            name="check-triangle",
            parameters={
                "operatorFile": args.operator,
                "combinationFile": args.combination,
                "exponent": args.exponent,
            },
        )
        report.rows.append(
            {
                "thresholdBase": result["thresholdBase"],
                "pieceCount": result["pieceCount"],
                "directNorm": result["directNorm"],
                "pieceNormSum": result["pieceNormSum"],
            }
        )
    report.checks.extend(result["checks"])
    return _emit(report, args)


def _cmd_sweep(args) -> int:
    report = run_weak_type_sweep(args.p, args.n_max)
    return _emit(report, args)


def _cmd_log_variant(args) -> int:
    report = run_log_variant_experiment(
        args.p, n=args.depth, trials=args.trials, config=_config(args)
    )
    return _emit(report, args)


# ---------------------------------------------------------------------------
# parser wiring


class _Parser(argparse.ArgumentParser):
    """Raises a UsageError instead of exiting, so that a usage error gets
    the JSON error record and exit code 2 like any other unusable input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haarlab",
        description="Dyadic Haar toolkit: verification suites, compression, "
        "index combinatorics, and type-constant estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suite battery")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the fork relation table; the battery must fail",
    )
    _add_knobs(p, "--seed", "--max-level")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("compress", help="compress an index set into its band")
    p.add_argument("--set", required=True, help="JSON file with the index set")
    _add_knobs(p)
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("lh", help="local height of an index set")
    p.add_argument("--set", required=True, help="JSON file with the index set")
    _add_knobs(p)
    p.set_defaults(handler=_cmd_lh)

    p = sub.add_parser("fill", help="pad a set to cardinality 2^l - 1 under height l")
    p.add_argument("--set", required=True, help="JSON file with the index set")
    p.add_argument("--height", type=int, required=True, help="height budget l")
    p.add_argument("--depth", type=int, required=True, help="tree depth n")
    _add_knobs(p)
    p.set_defaults(handler=_cmd_fill)

    p = sub.add_parser("partition", help="weight level sets of a combination")
    p.add_argument("--combination", required=True, help="JSON coefficient file")
    p.add_argument("--depth", type=int, required=True, help="tree depth n")
    p.add_argument("--exponent", type=float, default=2.0, help="weight exponent r")
    _add_knobs(p)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("tau", help="lower estimate of the type constant on a set")
    p.add_argument("--operator", required=True, help="JSON operator file")
    p.add_argument("--set", required=True, help="JSON file with the index set")
    p.add_argument("--witness", default=None, help="write the best witness here")
    _add_knobs(p, "--seed", "--restarts", "--iters")
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("tau-p", help="lower estimate of the p-variant constant")
    p.add_argument("--operator", required=True, help="JSON operator file")
    p.add_argument("--depth", type=int, required=True, help="tree depth n")
    p.add_argument("--p", type=float, required=True, help="exponent in [1, 2]")
    p.add_argument("--witness", default=None, help="write the best witness here")
    _add_knobs(p, "--seed", "--restarts", "--iters")
    p.set_defaults(handler=_cmd_tau_p)

    p = sub.add_parser("check", help="comparison, band, or chain checks")
    p.add_argument(
        "--kind", choices=("comparison", "monotonicity", "triangle"), required=True
    )
    p.add_argument("--operator", required=True, help="JSON operator file")
    p.add_argument("--set", default=None, help="index set file (comparison)")
    p.add_argument("--combination", default=None, help="coefficient file (triangle)")
    p.add_argument("--m", type=int, default=1, help="band shift (monotonicity)")
    p.add_argument("--depth", type=int, default=3, help="band top level")
    p.add_argument("--exponent", type=float, default=2.0, help="weight exponent r")
    _add_knobs(p, "--seed", "--restarts", "--iters", "--tol-opt")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("sweep-weak-type", help="closed-form growth sweep")
    p.add_argument("--p", type=float, required=True, help="exponent in (1, 2)")
    p.add_argument("--n-max", type=int, default=10**6, help="sweep length")
    _add_knobs(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("experiment-log-variant", help="certificate chain trials")
    p.add_argument("--p", type=float, required=True, help="exponent in [1, 2)")
    p.add_argument("--depth", type=int, default=8, help="tree depth n")
    p.add_argument("--trials", type=int, default=50, help="random families")
    _add_knobs(p, "--seed", "--restarts", "--iters", "--tol-opt")
    p.set_defaults(handler=_cmd_log_variant)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except HaarLabError as exc:
        record = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "field": getattr(exc, "field", None),
            }
        }
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
