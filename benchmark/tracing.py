"""Spans and counts at the module boundaries of ``latticesums``.

The traced run replaces the public functions of each module, from the
benchmark's own files, with wrappers that time every call.  Names that
other modules bound at import (``from .series import sum_rational_forms``)
are replaced in those modules too, so every call site is seen.

The exact-scalar and cyclotomic operations run 10^5 to 10^6 times per
pass, so they are only aggregated per name (count, inclusive time, self
time).  Every other call is also kept as a span (name, start, end, parent)
and written out when the pass ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

import latticesums
from latticesums import (cyclotomic, genfun, hierarchy, kernel, lattice,
                         oracle, polytope, scalar, series)

# span prefixes that are aggregated but not stored one by one
_AGGREGATE_ONLY = ("scalar.", "cyclotomic.")


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: List[list] = []   # [name, child seconds, span id]
        self._group_depth: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.group_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.evaluation_keys: set = set()
        self.spans: List[tuple] = []
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def parent(self) -> Optional[str]:
        """Name of the span enclosing the innermost open one."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def wrap(self, name: str, fn: Callable, group: str,
             observe: Optional[Callable] = None) -> Callable:
        """`observe(tracer, args, kwargs, out)` runs after the call, before
        the span closes; `out` is None when the call raised."""
        tracer = self
        stored = not name.startswith(_AGGREGATE_ONLY)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent_id = stack[-1][2] if stack else None
            span_id = len(tracer.spans) if stored else parent_id
            if stored:
                tracer.spans.append(None)  # reserve the id
            frame = [name, 0.0, span_id]
            stack.append(frame)
            depth = tracer._group_depth.get(group, 0)
            tracer._group_depth[group] = depth + 1
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                if observe is not None:
                    observe(tracer, args, kwargs, out)
                tracer._group_depth[group] = depth
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.inclusive_s[name] = tracer.inclusive_s.get(name, 0.0) \
                    + dur
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) \
                    + dur - frame[1]
                if depth == 0:
                    tracer.group_s[group] = tracer.group_s.get(group, 0.0) \
                        + dur
                if stored:
                    tracer.spans[span_id] = (span_id, name, t0, t1, parent_id)

        return wrapper

    def patch(self, name: str, owners, attr: str, group: str,
              observe: Optional[Callable] = None):
        """Replace `attr` on every owner (module or class) by one wrapper."""
        fn = getattr(owners[0], attr)
        wrapper = self.wrap(name, fn, group, observe)
        for owner in owners:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                   f"function bound in {owners[0].__name__}")
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write_spans(self, path: str):
        """Stored spans, and per name: calls, inclusive and self seconds."""
        with open(path, "w") as fh:
            json.dump({
                "aggregates": {name: [n, self.inclusive_s[name],
                                      self.self_s[name]]
                               for name, n in self.calls.items()},
                "span_fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": [s for s in self.spans if s is not None],
            }, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# observers: counts computed from arguments and results
# ---------------------------------------------------------------------------


def _series_mul(tracer, args, kwargs, out):
    a, b = args
    tracer.count("series.mul.term_pairs", len(a.terms) * len(b.terms))
    tracer.maximum("series.max_terms", max(
        len(a.terms), len(b.terms), len(out.terms) if out else 0))


def _field_order(tracer, args, kwargs, out):
    tracer.maximum("cyclotomic.N.max", args[1])


def _evaluation_key(tracer, args, kwargs, out):
    arr, y, k = args[:3]
    weights = getattr(k, "weights", k)
    key = json.dumps([latticesums.arrangement_to_json(arr),
                      [str(v) for v in y], [int(w) for w in weights],
                      kwargs.get("mode", args[3] if len(args) > 3
                                 else "exact")], sort_keys=True)
    tracer.evaluation_keys.add(key)


def _summands(tracer, args, kwargs, out):
    if out is not None:
        tracer.count("genfun.summands", len(out))


def _kernel_miss(tracer, args, kwargs, out):
    if tracer.parent() == "kernel.EvaluationContext.kernel":
        tracer.count("kernel.misses")


def _m_count(tracer, args, kwargs, out):
    if out is not None:
        tracer.count("polytope.m_count", out["m_count"])


def _points(tracer, args, kwargs, out):
    arr = args[0]
    window = args[3] if len(args) > 3 else kwargs["window"]
    tracer.count("oracle.points", (2 * window.N + 1) ** arr.rank)


def install(tracer: Tracer):
    """Wrap the public functions of every module; `tracer.uninstall()`
    restores them."""
    S, C, F = scalar.ExactScalar, cyclotomic.CycElt, \
        cyclotomic.CyclotomicField
    T, ctx = series.TruncatedSeries, genfun.EvaluationContext
    pkg = latticesums
    table = [
        # (span name, owners, attribute, time group or None for the name,
        #  observer)
        ("scalar.mul", [S], "__mul__", "scalar", None),
        ("scalar.mul", [S], "__rmul__", "scalar", None),
        ("scalar.add", [S], "__add__", "scalar", None),
        ("scalar.add", [S], "__radd__", "scalar", None),
        ("scalar.inv", [S], "inv", "scalar", None),
        ("cyclotomic.mul", [C], "__mul__", "cyclotomic", None),
        ("cyclotomic.mul", [C], "__rmul__", "cyclotomic", None),
        ("cyclotomic.add", [C], "__add__", "cyclotomic", None),
        ("cyclotomic.add", [C], "__radd__", "cyclotomic", None),
        ("cyclotomic.inv", [C], "inv", "cyclotomic", None),
        ("cyclotomic.one", [F], "one", "cyclotomic", None),
        ("cyclotomic.field", [F], "__init__", "cyclotomic", _field_order),
        ("series.mul", [T], "__mul__", None, _series_mul),
        ("series.invert_unit", [T], "invert_unit", None, None),
        ("series.sum_rational_forms", [series, genfun, hierarchy, polytope],
         "sum_rational_forms", None, None),
        ("series.divide_exact", [series], "divide_exact", None, None),
        ("kernel.kernel_series", [kernel, genfun, polytope],
         "kernel_series", "kernel", _kernel_miss),
        ("kernel.kernel_series_dy", [kernel, genfun], "kernel_series_dy",
         "kernel", _kernel_miss),
        ("kernel.EvaluationContext.kernel", [ctx], "kernel", None, None),
        ("genfun.lattice_sum_value", [genfun, pkg], "lattice_sum_value",
         None, _evaluation_key),
        ("genfun.build_summands", [genfun], "build_summands", None,
         _summands),
        ("genfun.coefficient", [genfun, pkg], "coefficient", None, None),
        ("genfun.generating_function", [genfun, hierarchy, pkg],
         "generating_function", None, None),
        ("lattice.enumerate_bases", [lattice, pkg], "enumerate_bases",
         "lattice", None),
        ("lattice.choose_phi", [lattice, genfun, pkg], "choose_phi",
         "lattice", None),
        ("lattice.frac_part", [lattice, genfun, pkg], "frac_part",
         "lattice", None),
        ("lattice.on_excluded_hyperplanes", [lattice, genfun, pkg],
         "on_excluded_hyperplanes", "lattice", None),
        ("lattice.cyclotomic_order", [genfun, pkg], "cyclotomic_order",
         "lattice", None),
        ("polytope.genfun_via_polytopes", [polytope, pkg],
         "genfun_via_polytopes", None, None),
        ("polytope.enumerate_m", [polytope], "enumerate_m", None, None),
        ("polytope.vertices", [polytope], "vertices", None, None),
        ("polytope.adjacency", [polytope], "adjacency", None, None),
        ("polytope.polytope_report", [polytope, pkg], "polytope_report",
         None, _m_count),
        ("hierarchy.check_hierarchy", [hierarchy, pkg], "check_hierarchy",
         None, None),
        ("hierarchy.apply_Dg_summand", [hierarchy, pkg], "apply_Dg_summand",
         None, None),
        ("oracle.truncated_sum", [oracle, pkg], "truncated_sum", None,
         _points),
        ("oracle.convergence_scan", [oracle, pkg], "convergence_scan", None,
         None),
    ]
    for name, owners, attr, group, observe in table:
        tracer.patch(name, owners, attr, group or name, observe)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    calls, self_s, group_s, n = (tracer.calls, tracer.self_s,
                                 tracer.group_s, tracer.counters)

    def c(name):
        return calls.get(name, 0)

    def group_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    lookups = c("kernel.EvaluationContext.kernel")
    return {
        "scalar.mul.calls": c("scalar.mul"),
        "scalar.add.calls": c("scalar.add"),
        "scalar.inv.calls": c("scalar.inv"),
        "scalar.self_s": group_self("scalar."),
        "cyclotomic.mul.calls": c("cyclotomic.mul"),
        "cyclotomic.add.calls": c("cyclotomic.add"),
        "cyclotomic.one.calls": c("cyclotomic.one"),
        "cyclotomic.inv.calls": c("cyclotomic.inv"),
        "cyclotomic.self_s": group_self("cyclotomic."),
        "cyclotomic.N.max": n.get("cyclotomic.N.max", 0),
        "series.mul.calls": c("series.mul"),
        "series.mul.term_pairs": n.get("series.mul.term_pairs", 0),
        "series.mul.self_s": self_s.get("series.mul", 0.0),
        "series.max_terms": n.get("series.max_terms", 0),
        "series.invert_unit.calls": c("series.invert_unit"),
        "series.invert_unit.time_s": group_s.get("series.invert_unit", 0.0),
        "series.sum_rational_forms.calls": c("series.sum_rational_forms"),
        "series.sum_rational_forms.time_s":
            group_s.get("series.sum_rational_forms", 0.0),
        "series.divide_exact.calls": c("series.divide_exact"),
        "series.divide_exact.time_s":
            group_s.get("series.divide_exact", 0.0),
        "kernel.kernel_series.calls": c("kernel.kernel_series"),
        "kernel.time_s": group_s.get("kernel", 0.0),
        "kernel.cache_hit_ratio":
            1 - n.get("kernel.misses", 0) / lookups if lookups else 0.0,
        "genfun.evals": c("genfun.lattice_sum_value"),
        "genfun.evals_unique": len(tracer.evaluation_keys),
        "genfun.summands": n.get("genfun.summands", 0),
        "genfun.coefficient.time_s": group_s.get("genfun.coefficient", 0.0),
        "genfun.generating_function.time_s":
            group_s.get("genfun.generating_function", 0.0),
        "lattice.enumerate_bases.calls": c("lattice.enumerate_bases"),
        "lattice.time_s": group_s.get("lattice", 0.0),
        "polytope.genfun_via_polytopes.time_s":
            group_s.get("polytope.genfun_via_polytopes", 0.0),
        "polytope.enumerate_m.calls": c("polytope.enumerate_m"),
        "polytope.vertices.calls": c("polytope.vertices"),
        "polytope.adjacency.calls": c("polytope.adjacency"),
        "polytope.m_count": n.get("polytope.m_count", 0),
        "hierarchy.check_hierarchy.time_s":
            group_s.get("hierarchy.check_hierarchy", 0.0),
        "hierarchy.apply_Dg_summand.calls": c("hierarchy.apply_Dg_summand"),
        "hierarchy.apply_Dg_summand.time_s":
            group_s.get("hierarchy.apply_Dg_summand", 0.0),
        "oracle.truncated_sum.calls": c("oracle.truncated_sum"),
        "oracle.truncated_sum.time_s":
            group_s.get("oracle.truncated_sum", 0.0),
        "oracle.points": n.get("oracle.points", 0),
    }
