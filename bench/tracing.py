"""Per-layer tracing for the benchmark, installed from outside the package.

Each traced name is a public function or method of one curvehull module (or
sympy's factor_list, the external boundary that `rays` calls).  A wrapper
replaces the function on every curvehull module namespace that binds it:
`from .multipoly import poly_det` copies the binding, so wrapping
`multipoly.poly_det` alone would miss the calls made through
`diagonal.poly_det`.  Methods are wrapped on the class.  A name that no
longer resolves is reported as missing rather than skipped.

Spans (name, case id, parent span, start, end) stay in memory and are written
out when the run ends.  Self time is a span's duration minus the durations of
its traced children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED = (
    ("multipoly", ("poly_det", "MultiPoly.exact_divide")),
    ("schur", ("schur_via_tableaux",)),
    ("diagonal", ("vandermonde_cofactor", "factor_taylor_determinant",
                  "SchurMonomialIdeal.contains")),
    ("linalg", ("psd_check_exact", "det_frac", "nullspace_frac", "solve_frac")),
    ("unipoly", ("squarefree_decomposition", "count_roots_with_multiplicity",
                 "count_roots_interior", "is_nonnegative_on", "isolate_roots",
                 "refine_isolating_interval")),
    ("lmi", ("lmi_membership", "sosx_certificate")),
    ("hull", ("cross_validate", "finite_hull_membership", "support_min_exact",
              "lmi_support_enclosure")),
    ("rays", ("extreme_candidate", "zero_conditions_dim", "verify_extreme",
              "supporting_face_basis", "interval_supported_divisor",
              "validate_interval")),
    ("sympy", ("factor_list",)),
)


def _count(stats, key, hit):
    stats[key] += 1 if hit else 0


def _terms(stats, args, result):
    stats["out_terms"] += len(result.terms) if result is not None else 0


def _divide(stats, args, result):
    _terms(stats, args, result)
    _count(stats, "ok", result is not None)


def _seq_key(m):
    return tuple(getattr(m, "entries", m))


def _tableaux(stats, args, result):
    _terms(stats, args, result)
    key = _seq_key(args[0])
    seen = stats.setdefault("seen", set())
    _count(stats, "repeat", key in seen)
    seen.add(key)


# traced name -> (observer, {metric suffix: (counter, unit, better)}); a
# counter is divided by the call count.
OBSERVED = {
    "multipoly.poly_det": (_terms, {"out_terms": ("out_terms", "terms", "lower")}),
    "multipoly.MultiPoly.exact_divide": (_divide, {
        "out_terms": ("out_terms", "terms", "lower"),
        "ok_ratio": ("ok", "ratio", "higher")}),
    "schur.schur_via_tableaux": (_tableaux, {
        "out_terms": ("out_terms", "terms", "lower"),
        "repeat_ratio": ("repeat", "ratio", "higher")}),
    "hull.finite_hull_membership": (
        lambda s, a, r: _count(s, "member", r), {"member_ratio": ("member", "ratio", "higher")}),
    "lmi.lmi_membership": (
        lambda s, a, r: _count(s, "member", r), {"member_ratio": ("member", "ratio", "higher")}),
    "rays.extreme_candidate": (
        lambda s, a, r: _count(s, "nonzero", not r.is_zero),
        {"nonzero_ratio": ("nonzero", "ratio", "higher")}),
    "rays.verify_extreme": (
        lambda s, a, r: _count(s, "extreme", r.extreme),
        {"extreme_ratio": ("extreme", "ratio", "higher")}),
}

CLI_METRICS = (
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.sympy_import_s", "s", "lower"),
    ("cli.verb_s", "s", "lower"),
)


def metric_specs():
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    specs = []
    for layer, quals in TRACED:
        for qual in quals:
            name = f"{layer}.{qual}"
            specs.append((f"{name}.calls", "count", "lower"))
            specs.append((f"{name}.self_s", "s", "lower"))
            for suffix, (_, unit, better) in OBSERVED.get(name, (None, {}))[1].items():
                specs.append((f"{name}.{suffix}", unit, better))
        specs.append((f"{layer}.self_s", "s", "lower"))
        specs.append((f"{layer}.share", "ratio", "lower"))
    specs.extend(CLI_METRICS)
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


def _curvehull_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "curvehull" or key.startswith("curvehull."))]


def bindings(layer, qual):
    """The function behind a traced name and every (owner, attribute) that
    binds it, or (None, []) when the name no longer resolves."""
    modname = layer if layer == "sympy" else f"curvehull.{layer}"
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return None, []
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(module, cls_name, None)
        fn = vars(owner).get(attr) if isinstance(owner, type) else None
        return (fn, [(owner, attr)]) if callable(fn) else (None, [])
    fn = vars(module).get(qual)
    if not callable(fn):
        return None, []
    others = [m for m in _curvehull_modules() if m is not module]
    return fn, [(ns, attr) for ns in [module] + others
                for attr, value in list(vars(ns).items()) if value is fn]


class _Patcher:
    """Replaces bindings and puts the originals back on uninstall."""

    def __init__(self):
        self._restore = []

    def _patch(self, spots, wrapper):
        for owner, attr in spots:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


class RepeatCounter(_Patcher):
    """Counts the calls of schur_via_tableaux and the share that repeat a
    sequence already seen, without spans, so that it can stay installed in a
    timed run: the share is the input property a Schur cache would exploit."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.seen = set()
        self.missing = False

    def install(self):
        fn, spots = bindings("schur", "schur_via_tableaux")
        if fn is None:
            self.missing = True
            return

        @functools.wraps(fn)
        def counted(m, *args, **kwargs):
            self.calls += 1
            self.seen.add(_seq_key(m))
            return fn(m, *args, **kwargs)

        self._patch(spots, counted)

    def report(self):
        share = (self.calls - len(self.seen)) / self.calls if self.calls else None
        return {"calls": self.calls, "distinct": len(self.seen), "repeat_ratio": share,
                "missing": self.missing}


class Tracer(_Patcher):
    """Wraps the traced names while installed; records spans only while
    `active` is set, so the benchmark's own checks are not traced."""

    def __init__(self):
        super().__init__()
        self.active = False
        self.case = None
        self.spans = []
        self.missing = []
        self.calls = defaultdict(int)
        self.stats = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._next = 0

    def _wrap(self, name, fn):
        observe = OBSERVED.get(name, (None,))[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, tracer.case, parent, t0, t1))
                tracer.calls[name] += 1
            if observe is not None:
                observe(tracer.stats[name], args, result)
            return result

        return traced

    def install(self):
        self.missing = []
        for layer, quals in TRACED:
            for qual in quals:
                name = f"{layer}.{qual}"
                fn, spots = bindings(layer, qual)
                if fn is None:
                    self.missing.append(name)
                else:
                    self._patch(spots, self._wrap(name, fn))

    def self_times(self):
        child = defaultdict(float)
        for sid, name, case, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, name, case, parent, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return out

    def metrics(self, case_time):
        """Per-function and per-layer metrics; `case_time` is the summed
        duration of the traced cases."""
        own = self.self_times()
        out = {}
        for layer, quals in TRACED:
            layer_self = 0.0
            for qual in quals:
                name = f"{layer}.{qual}"
                calls = self.calls[name]
                out[f"{name}.calls"] = (calls, "count")
                out[f"{name}.self_s"] = (own[name], "s")
                layer_self += own[name]
                for suffix, (counter, unit, _) in OBSERVED.get(name, (None, {}))[1].items():
                    out[f"{name}.{suffix}"] = (self.stats[name][counter] / calls if calls else 0.0,
                                               unit)
            out[f"{layer}.self_s"] = (layer_self, "s")
            out[f"{layer}.share"] = (layer_self / case_time if case_time else 0.0, "ratio")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, case, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "case": case,
                                     "parent": parent, "start": t0, "end": t1}) + "\n")
