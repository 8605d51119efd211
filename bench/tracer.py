"""Spans around calls into gridecon's modules, recorded from outside the package.

``Tracer.install`` replaces every public function and public method of the
traced gridecon modules with a wrapper that records a span, in each module
namespace that binds it, so calls between modules are caught too. Private
helpers stay inside their caller's span. ``gridecon.dispatch.linprog`` is
wrapped as its own span with solver counters. Spans of one operation stay in
memory until ``end_op`` folds them into per-function totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from stats import self_times

MODULES = (
    "cli",
    "datasets",
    "scenario_file",
    "profiles",
    "projects",
    "scenario",
    "transmission",
    "finance",
    "report",
    "dispatch",
)
HOOK_SPAN = "trace.hook"  # counter bookkeeping, kept out of its caller's self time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._op_b_eq: set[bytes] = set()

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, kwargs, result)`` updates counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, clock(), 0.0, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                hook = [HOOK_SPAN, clock(), 0.0, parent]
                after(args, kwargs, result)
                hook[2] = clock()
                spans.append(hook)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of every module in ``MODULES`` imported so far."""
        loaded = {short: sys.modules[f"gridecon.{short}"] for short in MODULES if f"gridecon.{short}" in sys.modules}
        namespaces = [sys.modules["gridecon"], *loaded.values()]
        hooks = {"dispatch.export_csv": self._count_export}
        for short, module in loaded.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{short}.{attr}"
                    wrapped = self.span(name, value, hooks.get(name))
                    for namespace in namespaces:
                        for key, bound in list(vars(namespace).items()):
                            if bound is value:
                                setattr(namespace, key, wrapped)
                elif inspect.isclass(value):
                    for method, member in list(vars(value).items()):
                        if not method.startswith("_") and inspect.isfunction(member):
                            setattr(value, method, self.span(f"{short}.{attr}.{method}", member))
        dispatch = loaded.get("dispatch")
        if callable(getattr(dispatch, "linprog", None)):
            dispatch.linprog = self.span("dispatch.linprog", dispatch.linprog, self._count_linprog)

    def _count_export(self, args, kwargs, text) -> None:
        self.counters["dispatch.export_rows"] += text.count("\n")

    def _count_linprog(self, args, kwargs, result) -> None:
        counters = self.counters
        counters["dispatch.linprog.iterations"] += getattr(result, "nit", 0)
        a_eq = kwargs["A_eq"] if "A_eq" in kwargs else (args[3] if len(args) > 3 else None)
        b_eq = kwargs["b_eq"] if "b_eq" in kwargs else (args[4] if len(args) > 4 else None)
        if a_eq is not None:
            nbytes, nnz = matrix_size(a_eq)
            counters["dispatch.linprog.a_eq_bytes"] += nbytes
            counters["dispatch.linprog.a_eq_nnz"] += nnz
        if b_eq is not None:
            self._op_b_eq.add(np.asarray(b_eq, dtype=float).tobytes())

    def end_op(self) -> None:
        """Fold the finished operation's spans into the totals and drop them."""
        for span, own in zip(self.spans, self_times(self.spans)):
            self.calls[span[0]] += 1
            self.self_s[span[0]] += own
        self.counters["dispatch.distinct_b_eq"] += len(self._op_b_eq)
        self._op_b_eq.clear()
        self.spans.clear()
        self.ops += 1

    def totals(self) -> dict:
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def matrix_size(matrix) -> tuple[int, int]:
    """Bytes held and nonzero count of a dense or scipy-sparse matrix."""
    if hasattr(matrix, "nnz"):
        parts = (getattr(matrix, name, None) for name in ("data", "indices", "indptr", "row", "col", "offsets"))
        return sum(part.nbytes for part in parts if part is not None), int(matrix.nnz)
    array = np.asarray(matrix, dtype=float)
    return array.nbytes, int(np.count_nonzero(array))
