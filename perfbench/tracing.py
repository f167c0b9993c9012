"""Span tracing around the public functions of each entropy_bounds layer.

The tracer wraps every function and method of the package's public API
(the names in ``entropy_bounds.__all__`` and the public functions of
``entropy_bounds.cli``), and the arithmetic and evaluation operators of the
public classes.  It puts each wrapper wherever a module looks the name up (the
defining module, every sibling that imported the name, and the package),
so a call from ``bounds`` into ``coefficients`` opens a child span instead
of being folded into its caller.  Spans stay in flat in-memory arrays and
are written out once, when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans, accumulated as each span closes.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

LAYERS = ("symbolic", "moments", "coefficients", "bounds", "oracle", "cli")

# operators that carry the exact-kernel work of the polynomial types
_TRACED_DUNDERS = frozenset(
    {"__call__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}
)

# terms summed by each oracle; the Poisson series report theirs in a receipt
_ORACLE_TERMS = {
    "oracle.poisson_expectation": lambda args, result: result[1].terms_used,
    "oracle.binomial_entropy_oracle": lambda args, result: args[0] + 1,
    "oracle.relative_entropy_oracle": lambda args, result: args[0] + 1,
    "oracle.expected_log_binomial": lambda args, result: args[0],
}


def _modules():
    return {layer: importlib.import_module(f"entropy_bounds.{layer}") for layer in LAYERS}


def coefficient_caches():
    """The memoized public functions of the coefficients layer."""
    mod = importlib.import_module("entropy_bounds.coefficients")
    return [
        obj for name, obj in vars(mod).items()
        if not name.startswith("_") and hasattr(obj, "cache_info")
        and getattr(obj, "__module__", None) == mod.__name__
    ]


def cache_counts(caches) -> tuple[int, int]:
    hits = misses = 0
    for fn in caches:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op = -1
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.oracle_terms = 0
        self.oracle_calls = 0  # oracle spans not nested in another oracle span
        self._stack: list[list] = []  # [span index, child time, layer]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("entropy_bounds")
        modules = _modules()
        namespaces = list(modules.values()) + [package]
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or (layer != "cli" and name not in package.__all__):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__ and not issubclass(obj, BaseException):
                        self._wrap_methods(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replacements[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(ns, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _patch(self, target, name, value) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _TRACED_DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, span, attr.__func__)))
            elif isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(layer, span, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(layer, span, attr))

    def _wrap(self, layer: str, span: str, fn):
        name_id = self.name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        terms = _ORACLE_TERMS.get(span)
        is_oracle = layer == "oracle"
        clock = time.perf_counter
        stack = self._stack
        starts, ends, parents, ops, span_names = (
            self.span_start, self.span_end, self.span_parent, self.span_op, self.span_name
        )
        calls, self_s, errors = self.calls, self.self_s, self.errors
        tracer = self

        def traced(*args, **kwargs):
            # the bookkeeping sits inside the span, so a caller's self time
            # does not grow with the number of spans it opens
            start = clock()
            index = len(starts)
            starts.append(start)
            ends.append(0.0)
            span_names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            if is_oracle and not (stack and stack[-1][2] == "oracle"):
                tracer.oracle_calls += 1
            frame = [index, 0.0, layer]
            stack.append(frame)
            calls[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                stack.pop()
                end = clock()
                ends[index] = end
                duration = end - start
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if terms is not None:
                tracer.oracle_terms += terms(args, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Raw per-layer sums, mergeable across processes with :meth:`merge`."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "oracle_terms": self.oracle_terms,
            "oracle_calls": self.oracle_calls,
        }

    def spans(self) -> list[list]:
        return [
            [self.names[n], s, e, p, o]
            for n, s, e, p, o in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            )
        ]

    def merge(self, totals: dict, spans: list[list]) -> None:
        """Add the totals and spans of another process (a traced CLI child)."""
        for layer in LAYERS:
            self.calls[layer] += totals["calls"][layer]
            self.self_s[layer] += totals["self_s"][layer]
            self.errors[layer] += totals["errors"][layer]
        self.oracle_terms += totals["oracle_terms"]
        self.oracle_calls += totals["oracle_calls"]
        offset = len(self.span_start)
        for name, start, end, parent, op in spans:
            name_id = self.name_ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)
            self.span_name.append(name_id)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent + offset if parent >= 0 else -1)
            self.span_op.append(op)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for n, s, e, p, o in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            ):
                fh.write(f"{self.names[n]},{s!r},{e!r},{p},{o}\n")
