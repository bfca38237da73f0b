"""Span tracer for the traced benchmark run.

`install()` wraps the public functions of every ``bundlelab`` module (except
``measure``, whose helpers are too thin to time per call and count in their
callers' self time), the evaluation methods of each ``NormSpec`` subclass,
``AbstractModuleNorm.evaluate``, ``ReportBundle.write`` and the scipy
``linprog`` that ``norms`` imports.  A function imported by name
(``from .x import y``) is a separate binding in the importing module, so each
wrapper is installed at every module that holds the function.  Nothing under
``src/`` is edited: the wrapping happens in the child process after import.

Each call records a span ``[name, parent, start, end]`` in memory; self time
is a span's duration minus the durations of its child spans.  `Tracer.dump`
writes per-name totals and the counters once the command has finished.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import types
from collections import defaultdict

KINDS = ("inner_product", "weighted_lp", "polyhedral_max", "polytope_gauge")

#: spans whose calls, total and self time are reported, with metric prefixes
_SPAN_METRICS = {
    "convexity.pair_search": ("convexity.pair_search_calls", "convexity.pair_search_s",
                              "convexity.pair_search_self_s"),
    "convexity.modulus_curve_for_fn": ("convexity.modulus_curve_calls", None, None),
    "bundles.section_batch": ("bundles.section_batch_calls", "bundles.section_batch_s",
                              "bundles.section_batch_self_s"),
    "bundles.fiber_modulus_curve": ("bundles.fiber_curve_requests", None, None),
    "bundles.section_modulus_curve": (None, "bundles.section_modulus_curve_s", None),
    "bundles.pointwise_norm": ("bundles.pointwise_norm_calls", "bundles.pointwise_norm_s", None),
    "bundles.module_action": ("bundles.module_action_calls", "bundles.module_action_s", None),
    "criterion.restriction_additivity_check": (None, "criterion.additivity_s", None),
    "criterion.evaluate": ("criterion.evaluate_calls", "criterion.evaluate_s", None),
    "criterion.weak_star_continuity_check": (None, "criterion.continuity_s", None),
    "criterion.reconstruct_pointwise_norm": (None, "criterion.reconstruct_s", None),
    "duality.operator_norm": ("duality.operator_norm_calls", "duality.operator_norm_s", None),
    "duality.holder_maximizer": (None, "duality.holder_maximizer_s", None),
    "duality.dual_operator_norm": (None, "duality.dual_operator_norm_s", None),
    "duality.check_reflexivity_diagram": (None, "duality.diagram_s", None),
    "norms.linprog": ("norms.lp_solves", "norms.lp_s", None),
    "generators.random_bundle": (None, "generators.random_bundle_s", None),
    "serialize.bundle_from_config": (None, "serialize.bundle_from_config_s", None),
    "cli.main": (None, "cli.main_s", None),
    "reportio.write": (None, "reportio.write_s", None),
    "suites.suite_convexity_upper": (None, "suites.uc_upper_s", None),
}
for _kind in KINDS:
    _SPAN_METRICS[f"norms.batch.{_kind}"] = (
        f"norms.batch_calls.{_kind}", f"norms.batch_s.{_kind}", None)
    _SPAN_METRICS[f"norms.single.{_kind}"] = (
        f"norms.single_calls.{_kind}", f"norms.single_s.{_kind}", None)
    _SPAN_METRICS[f"norms.maximizer.{_kind}"] = (
        f"norms.maximizer_calls.{_kind}", f"norms.maximizer_s.{_kind}", None)

#: counters recorded by the after-call hooks below
_COUNTERS = ["convexity.lanes", "bundles.section_batch_rows", "criterion.subset_probes",
             "duality.diagram_pairs", "reportio.bytes_written"] + [
    f"norms.batch_rows.{k}" for k in KINDS]


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for calls, total, self_ in _SPAN_METRICS.values():
        if calls:
            out.append((calls, "count"))
        for name in (total, self_):
            if name:
                out.append((name, "s"))
    out += [(name, "bytes" if name.endswith("bytes_written") else "count")
            for name in _COUNTERS]
    out += [("bundles.fiber_curve_misses", "count"), ("bundles.fiber_curve_hit_ratio", "1")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(tracer, args, kwargs,
        result)`` may count work and returns the (possibly wrapped) result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            return result if after is None else after(self, args, kwargs, result)

        return traced

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict = {}
        misses = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            agg = per_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
            # a fiber-curve cache miss is a curve computed inside the cache lookup
            if (name == "convexity.modulus_curve" and parent >= 0
                    and self.spans[parent][0] == "bundles.fiber_modulus_curve"):
                misses += 1
        return {"spans": per_name, "counters": dict(self.counters),
                "fiber_curve_misses": misses}

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)


# -- after-call hooks: count work where it happens ----------------------------


def _rows(V) -> int:
    return math.prod(getattr(V, "shape", (1,))[:-1])


def _batch_rows(kind):
    key = f"norms.batch_rows.{kind}"

    def after(tracer, args, kwargs, result):
        tracer.counters[key] += _rows(args[1])
        return result
    return after


def _lanes(tracer, args, kwargs, result):
    names = ("norm_batch", "dim", "eps_values", "budget", "extra_pairs", "extras_by_eps")
    a = dict(zip(names, args), **kwargs)
    extras = a.get("extras_by_eps") or ()
    tracer.counters["convexity.lanes"] += (
        len(a["eps_values"]) * (a["budget"].restarts + len(a.get("extra_pairs", ())))
        + sum(len(e) for e in extras))
    return result


def _section_batch(tracer, args, kwargs, result):
    def after(tracer, args, kwargs, values):
        tracer.counters["bundles.section_batch_rows"] += _rows(args[0])
        return values
    return (tracer.wrap("bundles.section_batch", result[0], after),) + tuple(result[1:])


def _subset_probes(tracer, args, kwargs, report):
    tracer.counters["criterion.subset_probes"] += report.subsets_checked
    return report


def _diagram_pairs(tracer, args, kwargs, report):
    tracer.counters["duality.diagram_pairs"] += 0 if report.degenerate else report.samples
    return report


def _bytes_written(tracer, args, kwargs, paths):
    tracer.counters["reportio.bytes_written"] += sum(p.stat().st_size for p in paths)
    return paths


_AFTER = {
    "convexity.pair_search": _lanes,
    "bundles.section_norm_fn": _section_batch,
    "criterion.restriction_additivity_check": _subset_probes,
    "duality.check_reflexivity_diagram": _diagram_pairs,
}


def install() -> Tracer:
    """Wrap the imported ``bundlelab`` package in place; returns the tracer."""
    import bundlelab  # noqa: F401  (imports every module of the package)
    from bundlelab.criterion import AbstractModuleNorm
    from bundlelab.norms import NormSpec
    from bundlelab.reportio import ReportBundle

    tracer = Tracer()
    for c in _COUNTERS:
        tracer.counters[c] = 0.0
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "bundlelab" or n.startswith("bundlelab.")]

    wrappers: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        if short in ("bundlelab", "measure"):
            continue
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, _AFTER.get(name))
    linprog = sys.modules["bundlelab.norms"].linprog
    wrappers[id(linprog)] = tracer.wrap("norms.linprog", linprog)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and callable(obj):
                setattr(mod, attr, wrappers[id(obj)])

    for cls in _subclasses(NormSpec):
        for method, label in (("norm", "single"), ("norm_batch", "batch"),
                              ("linear_maximizer", "maximizer")):
            if method in vars(cls):
                after = _batch_rows(cls.kind) if label == "batch" else None
                setattr(cls, method, tracer.wrap(f"norms.{label}.{cls.kind}",
                                                 vars(cls)[method], after))
    AbstractModuleNorm.evaluate = tracer.wrap("criterion.evaluate", AbstractModuleNorm.evaluate)
    ReportBundle.write = tracer.wrap("reportio.write", ReportBundle.write, _bytes_written)
    return tracer


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def layer_values(summaries: list[dict]) -> dict:
    """Per-layer metrics as means per traced call (ratios from the totals)."""
    n = len(summaries)
    totals: dict = defaultdict(float)
    for s in summaries:
        for span, (calls, total_s, self_s) in s["spans"].items():
            names = _SPAN_METRICS.get(span)
            if names is None:
                continue
            for metric, value in zip(names, (calls, total_s, self_s)):
                if metric:
                    totals[metric] += value
        for name, value in s["counters"].items():
            totals[name] += value
        totals["bundles.fiber_curve_misses"] += s["fiber_curve_misses"]
    values = {name: totals[name] / n for name, _ in layer_metrics()}
    requests = totals["bundles.fiber_curve_requests"]
    values["bundles.fiber_curve_hit_ratio"] = (
        1.0 - totals["bundles.fiber_curve_misses"] / requests if requests else 0.0)
    return values
