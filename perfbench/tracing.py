"""Span tracing for the traced benchmark run.

The tracer wraps the package's public entry points from outside: each
wrapper records a span (name, start, end, parent, exception class) in
memory, and ``install`` rebinds the wrapper in every ``zetaroutes`` module
namespace that holds the original function, so calls through ``from .x
import f`` bindings are seen too. The exact layer's inner-loop helpers
(``binomial``, ``factorial``, ``LaurentSeries``/``Poly`` arithmetic,
``PiValue``) are deliberately not wrapped; their cost lands in the self
time of whichever wrapped caller is open.

Self time of a span is its duration minus the durations of its direct
children. Calls are single-threaded and properly nested, so children never
overlap and that difference is exactly the uncovered part of the span.
"""

from __future__ import annotations

import functools
import sys
import warnings
from time import perf_counter

# module -> public entry points wrapped in the traced run. A dotted entry
# names a method on a class of that module.
WRAPPED = {
    "abel": ("abel_sum_exact", "abel_closed_form", "abel_numeric_estimate"),
    "bernoulli": ("bernoulli_via_series", "bernoulli_via_recurrence"),
    "series": ("LaurentSeries.invert", "exp_series"),
    "zeta_exact": (
        "zeta_nonpositive",
        "zeta_neg_via_residue",
        "zeta_neg_via_G",
        "zeta_even_positive",
        "zeta_even_via_funceq",
        "funceq_exact_check",
    ),
    "numeric": ("zeta_hankel", "zeta_em", "funceq_residual", "inverted_contour_check"),
    "gammafn": ("gamma_complex",),
    "cli": ("run", "render"),
}

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attrs in WRAPPED.items() for attr in attrs)

# Spans whose individual durations are kept for percentiles.
TIMED_SPANS = ("numeric.zeta_hankel", "numeric.zeta_em")


class Tracer:
    """In-memory span recorder; one per process, installed once."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, exception class or None]
        self.spans: list[list] = []
        self.warnings: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every wrapped entry point in every loaded package module.

        Also routes RuntimeWarnings to a counter keyed by each open span, so
        they are counted on every occurrence and never printed.
        """
        pkg = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "zetaroutes"}
        for mod, attrs in WRAPPED.items():
            module = pkg.get(f"zetaroutes.{mod}")
            if module is None:  # never imported in this process, so never called
                continue
            for attr in attrs:
                name = f"{mod}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for other in pkg.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._count_warning

    def _count_warning(self, message, category, *args, **kwargs) -> None:
        if not issubclass(category, RuntimeWarning):
            return
        for name in {self.spans[i][0] for i in self._stack}:
            self.warnings[name] = self.warnings.get(name, 0) + 1

    def summary(self) -> dict:
        """Per-span-name calls, self time, raised exceptions and warnings."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, exc) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "exc": {}, "durs": []})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time[i]
            if exc is not None:
                agg["exc"][exc] = agg["exc"].get(exc, 0) + 1
            if name in TIMED_SPANS:
                agg["durs"].append(end - start)
        for name, n in self.warnings.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "exc": {}, "durs": []})
            out[name]["warnings"] = n
        return out


def merge_summaries(summaries) -> dict:
    """Sum per-process summaries (one per cold CLI process) into one."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, agg in summary.items():
            acc = out.setdefault(
                name, {"calls": 0, "self_s": 0.0, "exc": {}, "durs": [], "warnings": 0}
            )
            acc["calls"] += agg["calls"]
            acc["self_s"] += agg["self_s"]
            acc["durs"].extend(agg["durs"])
            acc["warnings"] += agg.get("warnings", 0)
            for exc, n in agg["exc"].items():
                acc["exc"][exc] = acc["exc"].get(exc, 0) + n
    return out
