"""Layer tracer that measures the algebroids package from outside.

The tracer changes no file of the package. ``install`` replaces each
public function of each layer module with a timing wrapper, by
rebinding every module attribute that holds that function object, and
wraps the public methods of the classes each layer defines.

Bindings inside ``algebroids.expr`` are left alone: ``evaluate``,
``fold`` and ``differentiate`` recurse through their own module
globals, so only entry calls from the other layers are counted, not the
millions of recursive calls under each one.

Calls into module-level functions of the checker layers get a span
record with a parent id. Hot leaves (every ``expr`` function, class
methods, ``imforms.fd_partial`` and ``groupoid.expm``) get no record
of their own; their count and time are added up per parent span. All
of it stays in memory until ``dump`` writes it out.

Every wrapped call, leaf or not, sits on the call stack while it runs,
so self time (duration minus the time of wrapped calls made inside it)
is exact for every name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "cli",
    "modelio",
    "expr",
    "sampling",
    "bundles",
    "algebroid",
    "imforms",
    "rankone",
    "factory",
    "groupoid",
)

# Third-party callables a layer binds at module level, timed as leaves
# of that layer.
FOREIGN = {"groupoid": ("expm",)}

# Module-level functions called so often that a span record per call
# would cost more than the call.
HOT_FUNCTIONS = {"imforms.fd_partial"}

# Counters derived from a wrapped call's result.
RESULT_COUNTERS = {
    "sampling.SamplePlan.points": ("sampling.points", len),
    "sampling.SamplePlan.point": ("sampling.points", lambda _result: 1),
}


class Tracer:
    """In-memory span and call statistics.

    ``stats[name]`` is ``[calls, inclusive_s, self_s, eval_errors]``.
    ``spans`` holds ``[id, parent_id, name, start, end]`` for non-leaf
    calls; ``leaves[(span_id, name)]`` is ``[calls, inclusive_s]`` for
    leaf calls made under that span (0 is the root).
    """

    def __init__(self, clock=time.perf_counter, error_type=None):
        self.clock = clock
        self.error_type = error_type
        self.stats: dict[str, list] = {}
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, int] = {}
        self._stack: list[list] = []  # [child_s, span_id]
        self._next_id = 0

    def wrap(self, name: str, fn, leaf: bool = False):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = self.clock
        spans = self.spans
        leaves = self.leaves
        error_type = self.error_type or ()
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if leaf:
                span = parent
            else:
                self._next_id += 1
                span = self._next_id
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                stats[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if leaf:
                    agg = leaves.get((parent, name))
                    if agg is None:
                        leaves[(parent, name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                else:
                    spans.append([span, parent, name, start, end])
            if counter is not None:
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(result)
            return result

        return traced

    def as_dict(self) -> dict:
        return {
            "stats": self.stats,
            "spans": self.spans,
            "leaves": [[s, n, c, t] for (s, n), (c, t) in self.leaves.items()],
            "counters": self.counters,
            "gauges": self.gauges,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh)


def _rebind(namespaces, original, replacement) -> None:
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Import the package and wrap every layer's public callables.

    Returns the layer modules by name."""
    package = importlib.import_module("algebroids")
    mods = {name: importlib.import_module(f"algebroids.{name}") for name in LAYERS}
    tracer.error_type = mods["expr"].EvalError
    # expr's own globals stay untouched so its recursion is not counted.
    namespaces = [package] + [m for name, m in mods.items() if name != "expr"]
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                leaf = layer == "expr" or name in HOT_FUNCTIONS
                _rebind(namespaces, obj, tracer.wrap(name, obj, leaf=leaf))
            elif inspect.isclass(obj) and layer != "expr":
                for mname, meth in list(vars(obj).items()):
                    if inspect.isfunction(meth) and not mname.startswith("_"):
                        setattr(obj, mname, tracer.wrap(f"{layer}.{attr}.{mname}", meth, leaf=True))
        for attr in FOREIGN.get(layer, ()):
            obj = getattr(mod, attr)
            _rebind(namespaces, obj, tracer.wrap(f"{layer}.{attr}", obj, leaf=True))
    return mods


def record_cache_sizes(tracer: Tracer, expr_module) -> None:
    """Store the sizes of the expression caches as gauges."""
    tracer.gauges["expr.fold_cache.entries"] = len(expr_module._fold_cache)
    tracer.gauges["expr.diff_cache.entries"] = len(expr_module._diff_cache)
