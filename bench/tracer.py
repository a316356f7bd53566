"""Per-layer tracing of haarlab from outside the package.

The tracer wraps the public functions of every ``haarlab`` module and the
public methods of its classes, and rebinds each wrapped function under every
name that refers to it: in its own module, in each module that imported it
by name (``check_level`` lives in ``config`` but is called through
``normlab``, ``transforms`` and ``combination``), and in the verify suite
table.  The package itself is not changed on disk.

For every wrapped function it keeps, in memory, the call count, the
inclusive time and the self time (inclusive time minus the time of wrapped
calls made inside it).  Calls at the coarse layer boundaries are also kept
as spans (name, start, end, parent span); the hot leaves, which run millions
of times per operation, are kept as aggregates only.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import inspect
import json
import statistics
import sys
import time
import types

# Functions at the bottom of the call tree that run up to millions of times
# per verify round: they are kept as aggregates only, never as spans.
HOT_LEAVES = frozenset(
    {
        "config.check_level",
        "config.max_level",
        "dyadic.check_haar_index",
        "dyadic.haar_eval",
        "dyadic.half_power",
        "dyadic.DyadicRational.as_float",
        "dyadic.DyadicRational.reduced_pair",
        "dyadic.DyadicRational.as_fraction",
        "dyadic.DyadicInterval.contains",
        "dyadic.DyadicInterval.contains_interval",
        "dyadic.HaarValue.as_float",
        "dyadic.HaarValue.squared",
        "spaces.NormedSpaceSpec.norm_of",
        "spaces.NormedSpaceSpec.dual_vector",
        "spaces.OperatorSpec.apply",
        "spaces.OperatorSpec.diagonal_magnitudes",
        "combination.HaarCombination.coefficient",
    }
)

# Spans are kept for calls at most this many wrapped frames deep (the
# operation entry points and the layer calls below them), for at most
# SPAN_CAP calls of each function, and only under a kept parent span.
SPAN_DEPTH = 3
SPAN_CAP = 1000

# Constructors traced as calls of the class itself.
CONSTRUCTORS = frozenset({"combination.HaarCombination"})

# Functions whose single-call durations are kept, for percentiles.
DURATIONS = frozenset({"experiments.log_variant_certificate"})


# Extra counters derived from arguments or results, keyed by function.
def _combination_entries(args, kwargs, result):
    coefficients = args[2] if len(args) > 2 else kwargs["coefficients"]
    return "entries", len(coefficients)


def _cell_bytes(args, kwargs, result):
    return "bytes", int(result.size) * result.itemsize


def _compress_steps(args, kwargs, result):
    return "steps", len(result.steps)


COUNTERS = {
    "combination.HaarCombination.__init__": _combination_entries,
    "combination.HaarCombination.cell_values": _cell_bytes,
    "transforms.compress": _compress_steps,
}


class FunctionStats:
    __slots__ = ("calls", "total", "self_time", "extra", "durations", "spans")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.spans = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, int] = {}
        self.durations: list[float] | None = [] if keep_durations else None


class Tracer:
    """In-memory call aggregates and spans for the wrapped haarlab functions."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.active = False
        # one accumulator per open wrapped frame: time spent in wrapped children
        self._children: list[list[float]] = [[0.0]]
        self._span_ids: list[int] = [0]
        self._next_span = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Wrap every public function and method of the package's modules."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]
        wrappers: dict[object, object] = {}
        for module in modules:
            short = module.__name__[len(prefix):]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and value not in wrappers
                ):
                    wrappers[value] = self._wrap(value, f"{short}.{name}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_methods(value, f"{short}.{name}")
        for module in [package, *modules]:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._rebind(module, name, wrappers[value])
            suites = vars(module).get("SUITES")
            if isinstance(suites, tuple):
                self._rebind(
                    module,
                    "SUITES",
                    tuple((label, wrappers.get(fn, fn)) for label, fn in suites),
                )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_methods(self, cls: type, qualified: str) -> None:
        if issubclass(cls, (tuple, BaseException, enum.Enum)):
            return  # named tuples, errors and enums carry no layer work
        for name, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if name.startswith("_") and not (name == "__init__" and qualified in CONSTRUCTORS):
                continue
            self._rebind(cls, name, self._wrap(value, f"{qualified}.{name}"))

    def _wrap(self, fn, key: str):
        stats = self.stats.setdefault(key, FunctionStats(key in DURATIONS))
        counter = COUNTERS.get(key)
        spans_ok = key not in HOT_LEAVES
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def frame(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = tracer._children
            children.append([0.0])
            parent = tracer._span_ids[-1]
            span_id = 0
            if (
                spans_ok
                and len(children) - 1 <= SPAN_DEPTH
                and (parent or len(children) == 2)
                and stats.spans < SPAN_CAP
            ):
                span_id = tracer._next_span
                tracer._next_span += 1
            tracer._span_ids.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = children.pop()[0]
                children[-1][0] += elapsed
                tracer._span_ids.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - inner
                if stats.durations is not None:
                    stats.durations.append(elapsed)
                if span_id:
                    stats.spans += 1
                    tracer.spans.append((span_id, parent, key, start, end))
            if counter is not None:
                name, amount = counter(args, kwargs, result)
                stats.extra[name] = stats.extra.get(name, 0) + amount
            return result

        return frame

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made inside the block (such as output checks) out of the trace."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- reporting --------------------------------------------------------

    def module_self_time(self, module: str) -> float:
        head = module + "."
        return sum(s.self_time for k, s in self.stats.items() if k.startswith(head))

    def get(self, key: str) -> FunctionStats:
        return self.stats.get(key) or FunctionStats(False)

    def p50_ms(self, key: str) -> float:
        durations = self.get(key).durations or []
        return 1e3 * statistics.median(durations) if durations else 0.0

    def write(self, path: str, rounds: int) -> None:
        """Aggregates and spans as one JSON document."""
        doc = {
            "rounds": rounds,
            "functions": {
                key: {
                    "calls": s.calls,
                    "spans": s.spans,
                    "totalS": s.total,
                    "selfS": s.self_time,
                    **s.extra,
                }
                for key, s in sorted(self.stats.items())
                if s.calls
            },
            "spans": [
                {"id": i, "parent": parent, "name": name, "start": start, "end": end}
                for i, parent, name, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.write("\n")
