"""Command line interface.

Every subcommand returns an ExperimentReport; main stamps the handler's wall
time on it and emits it as JSON (default) or CSV, and --output redirects to
a file.  Each subcommand registers only the shared knobs it reads, and each
check kind accepts only the options it reads.  Exit codes: 0 when all
asserted checks pass, 1 when an asserted check fails, 2 for usage, input or
schema errors, and 3 for an unexpected exception (a fault of the program,
not of the input).  Exit codes 2 and 3 print one machine-readable JSON
record on stdout, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

from .combinatorics import (
    exact_local_height,
    fill_to_height,
    is_partition,
    level_set_partition,
    local_height,
)
from .dyadic import max_level_of
from .errors import HaarLabError, UsageError
from .experiments import (
    ExperimentConfig,
    run_log_variant_experiment,
    run_verify,
    run_weak_type_sweep,
)
from .normlab import (
    TauEstimate,
    comparison_check,
    monotonicity_check,
    tau_estimate,
    tau_p_estimate,
    triangle_chain_check,
)
from .serialize import (
    ExperimentReport,
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
# a knob's dest is the ExperimentConfig field it sets, and a knob left out
# is absent from the namespace, so that field keeps ExperimentConfig's default
_KNOBS = {
    "--seed": dict(type=int, help="randomness seed"),
    "--max-level": dict(type=int, help="restrict suites to this level"),
    "--restarts": dict(type=int, help="optimizer restarts"),
    "--iters": dict(dest="iterations", metavar="ITERS", type=int, help="iterations per restart"),
    "--tol-opt": dict(
        dest="optimizer_tolerance",
        metavar="TOL_OPT",
        type=float,
        help="relative optimizer tolerance",
    ),
    "--output": dict(default=None, help="write the report here"),
    "--format": dict(choices=("json", "csv"), default="json", help="report format"),
}


def _add_knobs(parser: argparse.ArgumentParser, *flags: str):
    """Register the given shared knobs plus --output and --format."""
    for flag in (*flags, "--output", "--format"):
        parser.add_argument(flag, **{"default": argparse.SUPPRESS, **_KNOBS[flag]})


_OPTIMIZER_KNOBS = ("--seed", "--restarts", "--iters", "--tol-opt")

# what each check kind reads besides --kind and --operator: its required
# input file, if any, and the options it takes (--m, --depth and --exponent
# default to 1, 3 and 2.0, the optimizer knobs to ExperimentConfig's values)
_CHECK_KINDS = {
    "comparison": ("--set", _OPTIMIZER_KNOBS),
    "monotonicity": (None, ("--m", "--depth", *_OPTIMIZER_KNOBS)),
    "triangle": ("--combination", ("--exponent",)),
}
_CHECK_OPTIONS = dict.fromkeys(
    flag for required, optional in _CHECK_KINDS.values() for flag in (required, *optional) if flag
)


def _dest(flag: str) -> str:
    return _KNOBS.get(flag, {}).get("dest", flag[2:].replace("-", "_"))


def _config(args) -> ExperimentConfig:
    """Config from the knobs given on the command line; the rest keep their
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


def _cmd_verify(args) -> ExperimentReport:
    return run_verify(_config(args), inject_fault=args.inject_fault)


def _cmd_compress(args) -> ExperimentReport:
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
    return report


def _cmd_lh(args) -> ExperimentReport:
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
    return report


def _cmd_fill(args) -> ExperimentReport:
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
    return report


def _cmd_partition(args) -> ExperimentReport:
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
    heights_ok = True
    for l, piece in enumerate(family.pieces, start=1):
        height = local_height(piece)
        heights_ok = heights_ok and height < (1 << l)
        report.rows.append(
            {
                "piece": l,
                "size": len(piece),
                "localHeight": height,
                "heightBound": (1 << l) - 1,
                "indices": " ".join(f"({k},{j})" for k, j in sorted(piece)),
            }
        )
    report.checks.append(check_row("partition-exact", is_partition(family.pieces, f.support())))
    report.checks.append(check_row("piece-heights", heights_ok))
    return report


def _estimate_report(
    args, name: str, parameters: dict, row: dict, est: TauEstimate
) -> ExperimentReport:
    """The one-row report of an estimate of the operator in args.operator:
    `row`, then the estimate's fields; --witness receives the witness."""
    report = ExperimentReport(name=name, parameters={"operatorFile": args.operator, **parameters})
    report.rows.append({**row, **est.as_dict()})
    if args.witness:
        dump_json(dump_combination(est.best_witness), args.witness, "witness")
    return report


def _cmd_tau(args) -> ExperimentReport:
    config = _config(args)  # the budgets are checked before any input is read
    operator = parse_operator_document(load_json(args.operator))
    indices = parse_index_set_document(load_json(args.set))
    est = tau_estimate(operator, indices, config.restarts, config.iterations, config.seed)
    return _estimate_report(args, "tau", {"setFile": args.set}, {"setSize": len(indices)}, est)


def _cmd_tau_p(args) -> ExperimentReport:
    config = _config(args)  # the budgets are checked before any input is read
    operator = parse_operator_document(load_json(args.operator))
    est = tau_p_estimate(
        operator, args.depth, args.p, config.restarts, config.iterations, config.seed
    )
    tree = {"depth": args.depth, "p": args.p}
    return _estimate_report(args, "tau-p", tree, tree, est)


def _cmd_check(args) -> ExperimentReport:
    required, optional = _CHECK_KINDS[args.kind]
    for flag in _CHECK_OPTIONS:
        if flag != required and flag not in optional and hasattr(args, _dest(flag)):
            raise UsageError(f"check --kind {args.kind} does not read {flag}", flag[2:])
    if required and not hasattr(args, _dest(required)):
        raise UsageError(f"check --kind {args.kind} requires {required}", required[2:])

    if args.kind == "triangle":
        operator = parse_operator_document(load_json(args.operator))
        f = parse_combination(load_json(args.combination))
        report = triangle_chain_check(operator, f, getattr(args, "exponent", 2.0))
        report.parameters["combinationFile"] = args.combination
    else:
        config = _config(args)
        operator = parse_operator_document(load_json(args.operator))
        budgets = dict(
            restarts=config.restarts,
            iterations=config.iterations,
            seed=config.seed,
            tolerance=config.optimizer_tolerance,
        )
        if args.kind == "comparison":
            indices = parse_index_set_document(load_json(args.set))
            report = comparison_check(operator, indices, **budgets)
            report.parameters.update(config.as_dict(), setFile=args.set)
        else:
            m, depth = getattr(args, "m", 1), getattr(args, "depth", 3)
            report = monotonicity_check(operator, m, depth, **budgets)
    report.parameters["operatorFile"] = args.operator
    return report


def _cmd_sweep(args) -> ExperimentReport:
    return run_weak_type_sweep(args.p, args.n_max)


def _cmd_log_variant(args) -> ExperimentReport:
    return run_log_variant_experiment(
        args.p, n=args.depth, trials=args.trials, config=_config(args)
    )


# ---------------------------------------------------------------------------
# parser wiring


class _Parser(argparse.ArgumentParser):
    """Raises a UsageError instead of exiting, so that a usage error gets
    the JSON error record and exit code 2 like any other unusable input.
    A value argparse rejects (not an integer, not a choice) names its
    option, without the dashes, as the field; a missing required option
    or subcommand names the first one missing (`command` for the
    subcommand)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, exit_on_error=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except argparse.ArgumentError as exc:
            self.error(exc.message, exc.argument_name)

    def error(self, message: str, option: str | None = None):
        required = "the following arguments are required: "  # argparse names them only here
        if option is None and message.startswith(required):
            option = message[len(required) :].split(", ")[0]
        self.print_usage(sys.stderr)
        raise UsageError(message, (option or "").lstrip("-") or None) from None


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

    # an option left out is absent from the namespace, so that _cmd_check
    # can reject the options a kind does not read
    p = sub.add_parser(
        "check", help="comparison, band, or chain checks", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--kind", choices=tuple(_CHECK_KINDS), required=True)
    p.add_argument("--operator", required=True, help="JSON operator file")
    p.add_argument("--set", help="index set file (comparison)")
    p.add_argument("--combination", help="coefficient file (triangle)")
    p.add_argument("--m", type=int, help="band shift (monotonicity)")
    p.add_argument("--depth", type=int, help="band top level (monotonicity)")
    p.add_argument("--exponent", type=float, help="weight exponent r (triangle)")
    _add_knobs(p, *_OPTIMIZER_KNOBS)
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
        started = time.perf_counter()
        report = args.handler(args)
        report.wall_time = time.perf_counter() - started
        return _emit(report, args)
    except HaarLabError as exc:
        return _error(exc, exc.field, 2)
    except Exception as exc:  # a fault of the program: a record, not a traceback
        return _error(exc, None, 3)


def _error(exc: Exception, field: str | None, code: int) -> int:
    """Print the JSON error record of exc and return the exit code."""
    record = {"error": {"type": type(exc).__name__, "message": str(exc), "field": field}}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
