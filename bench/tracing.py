"""Tracing from outside the program: wrap public functions, record spans.

`Tracer.install()` replaces each listed function by a wrapper in every
canal4 module that holds it (so `from .canal import sample_grid` in cli.py
is wrapped too) and `uninstall()` puts the originals back. A span wrapper
records (name, start, end, parent, info) in memory; a count wrapper only
counts calls, keyed by the innermost open span, for functions too small
and too frequent to time. Spans are written out by `dump()`.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, span name); the span name's prefix is the layer
SPANS = [
    ("canal4.expr", "parse", "expr.parse"),
    ("canal4.expr", "differentiate", "expr.differentiate"),
    ("canal4.expr", "compile_expr", "expr.compile_expr"),
    ("canal4.expr", "evaluate", "expr.evaluate"),
    ("canal4.curve", "CurveSpec.frame", "curve.frame"),
    ("canal4.curve", "CurveSpec.verify_unit_speed", "curve.verify_unit_speed"),
    ("canal4.canal", "validate_config", "canal.validate_config"),
    ("canal4.canal", "resolve_variant", "canal.resolve_variant"),
    ("canal4.canal", "sample_grid", "canal.sample_grid"),
    ("canal4.curvature", "curvature_report", "curvature.curvature_report"),
    ("canal4.analysis", "check_kh_relation", "analysis.check_kh_relation"),
    ("canal4.analysis", "weingarten_check", "analysis.weingarten_check"),
    ("canal4.analysis", "classify_flat", "analysis.classify_flat"),
    ("canal4.analysis", "classify_minimal", "analysis.classify_minimal"),
    ("canal4.analysis", "solve_minimal_radius", "analysis.solve_minimal_radius"),
    ("canal4.io", "patch_to_json", "io.patch_to_json"),
    ("canal4.io", "patch_from_json", "io.patch_from_json"),
    ("canal4.io", "export_obj", "io.export_obj"),
    ("canal4.io", "export_curvature_csv", "io.export_curvature_csv"),
    ("canal4.cli", "main", "cli.main"),
]
COUNTS = [
    ("canal4.canal", "canal_point", "canal.canal_point"),
    ("canal4.canal", "nullcone_point", "canal.nullcone_point"),
    ("canal4.curvature", "gauss_mean_principal", "curvature.gauss_mean_principal"),
    ("canal4.minkowski", "Vec4.__post_init__", "minkowski.Vec4"),
]


def _route_name(args, kwargs):
    route = args[5] if len(args) > 5 else kwargs.get("route")
    return "num" if route is not None and route.name == "NUMERIC" else "cf"


# extra figure recorded with a span: output size, rows, nodes checked
INFO = {
    "canal.sample_grid": lambda args, kw, res: len(res.points),
    "analysis.check_kh_relation": lambda args, kw, res: res.nodes_checked,
    "analysis.weingarten_check": lambda args, kw, res: res.nodes_checked,
    "io.patch_to_json": lambda args, kw, res: len(res),
    "io.patch_from_json": lambda args, kw, res: len(args[0]),
    "io.export_obj": lambda args, kw, res: len(res),
    "io.export_curvature_csv": lambda args, kw, res: res.count("\n") - 1,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, info, phase]
        self.counts = Counter()  # (name, innermost span name, phase) -> calls
        self.phase = "setup"
        self._stack = []
        self._saved = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)
        routed = name == "curvature.curvature_report"

        def wrapper(*args, **kwargs):
            label = f"{name}[{_route_name(args, kwargs)}]" if routed else name
            idx = len(spans)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, None, self.phase]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else None, self.phase)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, attr, name in table:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, make(original, name))
                    continue
                original = getattr(module, attr)
                wrapper = make(original, name)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "canal4" or mod_name.startswith("canal4.")) \
                            and getattr(mod, attr, None) is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info, phase in self.spans:
                fh.write(json.dumps([name, start, end, parent, info, phase]) + "\n")


class Profile:
    """Span totals of one phase: count, inclusive time, self time, info sum."""

    def __init__(self, tracer: Tracer, phase: str):
        child = [0.0] * len(tracer.spans)
        for name, start, end, parent, info, ph in tracer.spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls, self.total, self.self_time, self.info = Counter(), Counter(), Counter(), Counter()
        for idx, (name, start, end, parent, info, ph) in enumerate(tracer.spans):
            if ph != phase:
                continue
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child[idx]
            if info is not None:
                self.info[name] += info
        self.counts = Counter()
        for (name, parent, ph), n in tracer.counts.items():
            if ph == phase:
                self.counts[(name, parent)] += n
                self.counts[(name, "*")] += n

    def module_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)
