"""Benchmark runner for haarlab.

    python3 bench/run.py --workload {verify,tau-search,log-variant}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout this file lives in, never from an installed copy.
The run sets up its inputs from the seed, then runs whole rounds of the
workload's operations for about S seconds, checks every output, and prints
one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
haarlab modules are wrapped from here (see tracer.py) and the metrics are
the per-layer ones, per round.  Run outputs go to .bench_out/ in the
checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 16 x 16, and a second thread
# would only add scheduling noise.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

SETUP_REPEATS = 5
TAIL_PERCENTILE = 90


def use_checkout_sources() -> None:
    """Put the checkout's src/ first on the import path."""
    if str(SOURCES) not in sys.path:
        sys.path.insert(0, str(SOURCES))


def fresh_import():
    """Import haarlab and its CLI from a clean module table."""
    for name in [m for m in sys.modules if m == "haarlab" or m.startswith("haarlab.")]:
        del sys.modules[name]
    haarlab = importlib.import_module("haarlab")
    importlib.import_module("haarlab.cli")
    origin = Path(haarlab.__file__).resolve()
    if SOURCES.resolve() not in origin.parents:
        raise ImportError(f"haarlab imported from {origin}, not from {SOURCES}")
    return haarlab


def end_to_end_metrics(workload, timing, setup_s: float) -> dict:
    ops_ms = [1e3 * t for t in timing.ops]
    if len(ops_ms) >= 100:
        tail = statistics.quantiles(ops_ms, n=100)[TAIL_PERCENTILE - 1]
    else:
        tail = statistics.median(ops_ms)  # too few operations to show a tail
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(timing.rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p50_ms": (statistics.median(ops_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "bound_ratio": (workload.bound_ratio(), "1"),
    }


# per-layer metric -> (traced function, quantity, unit)
LAYER_METRICS = {
    "config.check_level.calls": ("config.check_level", "calls", "count"),
    "config.self_s": ("config", "self", "s"),
    "dyadic.check_haar_index.calls": ("dyadic.check_haar_index", "calls", "count"),
    "dyadic.haar_eval.calls": ("dyadic.haar_eval", "calls", "count"),
    "dyadic.self_s": ("dyadic", "self", "s"),
    "transforms.fork_split.calls": ("transforms.fork_split", "calls", "count"),
    "transforms.is_admissible.calls": ("transforms.is_admissible", "calls", "count"),
    "transforms.index_image.calls": ("transforms.index_image", "calls", "count"),
    "transforms.compress.calls": ("transforms.compress", "calls", "count"),
    "transforms.compress.steps": ("transforms.compress", "steps", "count"),
    "transforms.rewrite_combination.calls": ("transforms.rewrite_combination", "calls", "count"),
    "transforms.fork_relations_hold.calls": ("transforms.fork_relations_hold", "calls", "count"),
    "transforms.self_s": ("transforms", "self", "s"),
    "combinatorics.local_height.calls": ("combinatorics.local_height", "calls", "count"),
    "combinatorics.fill_to_height.calls": ("combinatorics.fill_to_height", "calls", "count"),
    "combinatorics.greedy_family.calls": ("combinatorics.greedy_family", "calls", "count"),
    "combinatorics.level_set_partition.calls": ("combinatorics.level_set_partition", "calls", "count"),
    "combinatorics.self_s": ("combinatorics", "self", "s"),
    "combination.HaarCombination.calls": ("combination.HaarCombination.__init__", "calls", "count"),
    "combination.HaarCombination.entries": ("combination.HaarCombination.__init__", "entries", "count"),
    "combination.cell_values.calls": ("combination.HaarCombination.cell_values", "calls", "count"),
    "combination.cell_values.bytes": ("combination.HaarCombination.cell_values", "bytes", "B"),
    "combination.self_s": ("combination", "self", "s"),
    "spaces.norms_of.calls": ("spaces.NormedSpaceSpec.norms_of", "calls", "count"),
    "spaces.apply_rows.calls": ("spaces.OperatorSpec.apply_rows", "calls", "count"),
    "spaces.self_s": ("spaces", "self", "s"),
    "normlab.tau_estimate.calls": ("normlab.tau_estimate", "calls", "count"),
    "normlab.tau_p_estimate.calls": ("normlab.tau_p_estimate", "calls", "count"),
    "normlab.tau_ratio.calls": ("normlab.tau_ratio", "calls", "count"),
    "normlab.lp_norm_of_combination.calls": ("normlab.lp_norm_of_combination", "calls", "count"),
    "normlab.tau_estimate.self_s": ("normlab.tau_estimate", "self", "s"),
    "normlab.self_s": ("normlab", "self", "s"),
    "experiments.log_variant_certificate.calls": ("experiments.log_variant_certificate", "calls", "count"),
    "experiments.log_variant_certificate.p50_ms": ("experiments.log_variant_certificate", "p50", "ms"),
    "experiments.self_s": ("experiments", "self", "s"),
    "cli.self_s": ("cli", "self", "s"),
}


MODULES = {"config", "dyadic", "transforms", "combinatorics", "combination", "spaces",
           "normlab", "experiments", "cli"}


def suite_metrics(haarlab) -> dict:
    """verify.<suite>.s: inclusive seconds of each suite of the battery."""
    return {
        f"verify.{label}.s": (f"verify.{fn.__name__}", "total", "s")
        for label, fn in haarlab.verify.SUITES
    }


def per_layer_metrics(tracer, table: dict, rounds: int) -> dict:
    """Each layer metric per round (the p50 of single calls as it is)."""
    out = {}
    for metric, (key, quantity, unit) in table.items():
        if quantity == "p50":
            out[metric] = (tracer.p50_ms(key), unit)
            continue
        if quantity == "self" and key in MODULES:
            value = tracer.module_self_time(key)
        else:
            stats = tracer.get(key)
            value = {"calls": stats.calls, "self": stats.self_time, "total": stats.total}.get(
                quantity, stats.extra.get(quantity, 0)
            )
        out[metric] = (value / rounds, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import numpy  # noqa: F401  imported once, outside the timed set-ups
    import workloads

    factory = workloads.WORKLOADS.get(args.workload)
    if factory is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            haarlab = fresh_import()
            workload = factory(haarlab, args.seed, str(out_dir))
            setups.append(time.perf_counter() - start)
    except ImportError as exc:
        print(f"cannot import haarlab from {SOURCES}: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setups)
    out_dir.mkdir(exist_ok=True)
    workload.references()

    tracer = None
    paused = contextlib.nullcontext
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(haarlab)
        paused = tracer.paused
        tracer.active = True

    timing = workloads.Timing()
    attempted = failed = 0
    errors: list[str] = []
    rounds = 0
    started = time.perf_counter()
    while True:
        n_ops, n_failed, round_errors = workload.run_round(timing, paused)
        attempted += n_ops
        failed += n_failed
        errors.extend(round_errors)
        rounds += 1
        elapsed = time.perf_counter() - started
        # start another round only if it is expected to end within the run
        if rounds >= workload.min_rounds and elapsed + elapsed / rounds > args.seconds:
            break
    if tracer is not None:
        tracer.active = False

    if not timing.rounds:
        print(f"no round of {args.workload} completed; {failed} operations failed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end_metrics(workload, timing, setup_s)
    else:
        table = {**LAYER_METRICS, **suite_metrics(haarlab)}
        metrics = per_layer_metrics(tracer, table, rounds)
        tracer.write(str(out_dir / f"trace-{args.workload}-{args.seed}.json"), rounds)

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print(f"non-finite metric in {result['metrics']}", file=sys.stderr)
        return 1
    with open(out_dir / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({**result, "rounds": rounds, "setups_s": setups, "ops_s": timing.ops}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
