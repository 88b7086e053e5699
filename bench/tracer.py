"""In-memory span tracer that wraps scanstat's public functions from outside.

Nothing under src/ is edited.  `Tracer.install` replaces every public
function of the layer modules with a wrapper that records a span, wherever
the function is looked up: as a module attribute of any scanstat module
(scanprob binds a_closed, binom_ext and pow_int by name) and as a value in a
module-level dict (dispatch tables such as scanprob._EVALUATORS).  Three
kinds of wrapper keep the cost of tracing in proportion to the call:

  * span     -- one recorded span per call (name, start, end, parent);
  * count    -- a call counter only, for exactnum's tiny helpers;
  * busy     -- calls counted and the outermost call timed, for the ExpPoly
                arithmetic methods, which run hundreds of thousands of times.

A layer's self time is the time inside its spans not covered by child spans
or by busy time of another layer.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

SPAN_LAYERS = ("scanprob", "measures", "montecarlo", "genseries")
COUNT_FUNCS = {"exactnum": ("binom_ext", "pow_int")}
BUSY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                "inverse", "diff_s", "integrate_0_to_s")
# the benchmark opens the evaluate span itself, around building the ScanQuery too
NOT_WRAPPED = {("scanprob", "evaluate")}
# the series builders whose repeated calls per order a memo would save
SERIES_BUILDERS = ("catalan_params", "q_series", "r_series", "a_tilde_series", "b_c_tilde_series")


class NullTracer:
    """Stands in for Tracer on untraced passes."""

    def span(self, layer, name):
        return nullcontext()


class _Frame:
    __slots__ = ("key", "start", "parent", "child_ns", "index")

    def __init__(self, key, start, parent, index):
        self.key, self.start, self.parent, self.index = key, start, parent, index
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.orders: defaultdict = defaultdict(set)
        self.samples = 0
        self._stack: list[_Frame] = []
        self._active: Counter = Counter()
        self._busy_depth = 0

    # -- spans -------------------------------------------------------------

    def _open(self, key) -> _Frame:
        parent = self._stack[-1].index if self._stack else -1
        frame = _Frame(key, time.perf_counter_ns(), parent, len(self.spans))
        self.spans.append(None)
        self._stack.append(frame)
        self._active[key] += 1
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame.start
        key = frame.key
        self.self_ns[key[0]] += dur - frame.child_ns
        self.calls[key] += 1
        self._active[key] -= 1
        if not self._active[key]:
            self.total_ns[key] += dur  # outermost call only, so recursion is not double counted
        if self._stack:
            self._stack[-1].child_ns += dur
        self.spans[frame.index] = (key[0], key[1], frame.start, end, frame.parent)

    @contextmanager
    def span(self, layer: str, name: str):
        frame = self._open((layer, name))
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer, name, fn, hook=None):
        key = (layer, name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments)

        return wrapper

    def _count_wrapper(self, layer, name, fn):
        key = (layer, name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _busy_wrapper(self, layer, name, fn):
        key = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self._busy_depth:
                return fn(*args, **kwargs)
            self._busy_depth = 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._busy_depth = 0
                self.self_ns[layer] += dt
                if self._stack:
                    self._stack[-1].child_ns += dt

        return wrapper

    def _hooks(self) -> dict:
        def record_order(name):
            return lambda a: self.orders[name].add(a["order"])

        def add_samples(a):
            self.samples += a["config"].samples if "config" in a else a["samples"]

        hooks = {("genseries", name): record_order(name) for name in SERIES_BUILDERS}
        hooks[("montecarlo", "empirical_cdf")] = add_samples
        hooks[("montecarlo", "coverage_dual")] = add_samples
        return hooks

    def install(self) -> None:
        """Wrap the public functions of every layer module wherever they are bound."""
        import scanstat.exppoly

        # names a later version of the package drops are skipped, so their metrics read 0
        hooks = self._hooks()
        wrappers = {}
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"scanstat.{layer}"]
            for name, obj in vars(mod).items():
                public = inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
                if public and (layer, name) not in NOT_WRAPPED:
                    wrappers[obj] = self._span_wrapper(layer, name, obj, hooks.get((layer, name)))
        for layer, names in COUNT_FUNCS.items():
            mod = sys.modules[f"scanstat.{layer}"]
            for name in names:
                if hasattr(mod, name):
                    wrappers[getattr(mod, name)] = self._count_wrapper(layer, name, getattr(mod, name))
        cls = scanstat.exppoly.ExpPoly
        for name in BUSY_METHODS:
            if name in vars(cls):
                setattr(cls, name, self._busy_wrapper("exppoly", name, vars(cls)[name]))

        for modname, mod in list(sys.modules.items()):
            if modname != "scanstat" and not modname.startswith("scanstat."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for k, v in obj.items():
                        if inspect.isfunction(v) and v in wrappers:
                            obj[k] = wrappers[v]

    # -- results -----------------------------------------------------------

    def seconds(self, layer: str, *names: str) -> float:
        return sum(self.total_ns[(layer, n)] for n in names) / 1e9

    def count(self, layer: str, *names: str) -> int:
        return sum(self.calls[(layer, n)] for n in names)

    def layer_metrics(self) -> dict:
        """Per-layer numbers keyed by metric name; BENCHMARK.json gives their units."""
        builds = sum(self.count("genseries", n) for n in SERIES_BUILDERS)
        distinct = sum(len(orders) for orders in self.orders.values())  # what a memo per builder would build
        return {
            "scanprob.evaluate_calls": self.count("scanprob", "evaluate"),
            "scanprob.evaluate_s": self.seconds("scanprob", "evaluate"),
            "scanprob.measure_to_probability_s": self.seconds("scanprob", "measure_to_probability"),
            "scanprob.self_s": self.self_ns["scanprob"] / 1e9,
            "exactnum.binom_ext_calls": self.count("exactnum", "binom_ext"),
            "exactnum.pow_int_calls": self.count("exactnum", "pow_int"),
            "measures.closed_calls": self.count("measures", "a_closed", "b_closed", "c_closed"),
            "measures.closed_s": self.seconds("measures", "a_closed", "b_closed", "c_closed"),
            "measures.density_oracle_s": self.seconds("measures", "density_oracle"),
            "measures.transform_crosscheck_s": self.seconds("measures", "transform_crosscheck_report"),
            "measures.self_s": self.self_ns["measures"] / 1e9,
            "montecarlo.empirical_cdf_s": self.seconds("montecarlo", "empirical_cdf"),
            "montecarlo.coverage_dual_s": self.seconds("montecarlo", "coverage_dual"),
            "montecarlo.samples": self.samples,
            "montecarlo.self_s": self.self_ns["montecarlo"] / 1e9,
            "genseries.verify_series_suite_s": self.seconds("genseries", "verify_series_suite"),
            "genseries.builds": builds,
            "genseries.build_reuse": builds / distinct if distinct else 0.0,
            "genseries.self_s": self.self_ns["genseries"] / 1e9,
            "exppoly.mul_calls": self.count("exppoly", "__mul__", "__rmul__"),
            "exppoly.add_calls": self.count("exppoly", "__add__", "__radd__"),
            "exppoly.busy_s": self.self_ns["exppoly"] / 1e9,
            "cli.verify_series_s": self.seconds("cli", "verify-series"),
            "cli.cross_check_s": self.seconds("cli", "cross-check"),
            "cli.verify_measures_s": self.seconds("cli", "verify-measures"),
            "cli.simulate_s": self.seconds("cli", "simulate"),
            "cli.overhead_s": self.self_ns["cli"] / 1e9,
            "bench.self_s": self.self_ns["bench"] / 1e9,
            "trace.spans": len(self.spans),
        }

    def write(self, path) -> None:
        """Spans as JSON lines: layer, name, start and end in ns, parent index (-1 at the root)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
