"""Outside-in layer tracing for the capexbound benchmark.

The package is not edited.  ``install`` wraps, from outside, the public
functions that one capexbound module calls in another, so every call into a
layer opens a span named ``<module>.<operation>``.  Each wrapper replaces the
function in the defining module and in every module that imported it by
name, which also catches the package's lazy imports (``from .production
import ...`` inside a function and ``production_mod.<name>``).  ``uninstall``
puts the original functions back, so the untraced rounds of a run execute
unmodified code.

Spans are kept in memory as (name, parent, start, end) and summarised when a
round ends: a span's self time is its duration minus the time of its direct
children, and a layer's self time is the sum over its spans.  Counters are
recorded at the same boundaries.  ``artifacts.fmt`` is not wrapped because it
is called once per CSV value; its time stays in its caller.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import time

import numpy as np

LAYERS = ("cli", "config", "model", "boundary", "paths", "production", "policy",
          "verify", "artifacts")


class Tracer:
    """In-memory span and counter store for one traced round."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = collections.Counter()
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def current_layer(self) -> str:
        return self.spans[self._stack[-1]][0].split(".", 1)[0] if self._stack else ""

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; per layer: self."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        layer_self = collections.Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            own = (end - start) - child[i]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
        return {"calls": calls, "total": total, "self": self_s,
                "layer_self": layer_self, "counts": self.counts}


# ---------------------------------------------------------------------------
# counters taken at the wrapped boundaries


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_elems(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += int(np.size(_arg(args, kwargs, 1, "C")))
    return count


def _count_result_bytes(tracer, args, kwargs, result):
    tracer.counts["paths.bytes_computed"] += int(np.asarray(result).nbytes)


def _count_file_bytes(tracer, args, kwargs, result):
    tracer.counts["artifacts.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, function, span name, counter)
TARGETS = (
    ("config", "load_config", "config.load", None),
    ("model", "validate", "model.validate", None),
    ("model", "discount_step_masses", "model.step_masses", None),
    ("model", "cumulative_integral", "model.cumulative_integral", None),
    ("paths", "simulate", "paths.simulate", None),
    ("paths", "gaussian_matrix", "paths.normals", _count_result_bytes),
    ("paths", "values_from_normals", "paths.decay", _count_result_bytes),
    ("paths", "running_sup_matrix", "paths.running_sup", _count_result_bytes),
    ("paths", "log_increment_moments", "paths.moments", None),
    ("production", "reduced_marginal_array", "production.marginal",
     _count_elems("production.marginal_elems")),
    ("production", "reduced_value_array", "production.value",
     _count_elems("production.value_elems")),
    ("production", "power_marginal_form", "production.power_form", None),
    ("boundary", "solve_boundary", "boundary.solve", None),
    ("boundary", "deterministic_boundary", "boundary.solve", None),
    ("policy", "build_controls", "policy.build_controls", None),
    ("policy", "profit", "policy.profit", None),
    ("policy", "controlled_capacity", "policy.controlled_capacity", None),
    ("policy", "zero_plan", "policy.zero_plan", None),
    ("policy", "constant_rate_plan", "policy.constant_rate_plan", None),
    ("verify", "check_foc", "verify.foc", None),
    ("verify", "dp_stopping_value", "verify.stopping_dp", None),
    ("verify", "dp_value", "verify.value_dp", None),
    ("verify", "cross_validate", "verify.cross", None),
    ("verify", "shadow_value_gap", "verify.shadow_gap", None),
    ("artifacts", "ensure_dir", "artifacts.ensure_dir", None),
    ("artifacts", "read_boundary_csv", "artifacts.read", None),
    ("artifacts", "write_boundary_csv", "artifacts.write", _count_file_bytes),
    ("artifacts", "write_controls_csv", "artifacts.write", _count_file_bytes),
    ("artifacts", "write_paths_csv", "artifacts.write", _count_file_bytes),
    ("artifacts", "write_manifest", "artifacts.write", _count_file_bytes),
)

# scrap classes whose marginal is evaluated once per residual evaluation
SCRAP_CLASSES = ("SaturatingExponential", "ZeroScrap")


def _span_wrapper(tracer: Tracer, fn, span: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result
    return traced


def _scrap_marginal_wrapper(tracer: Tracer, fn):
    # counter only: one call per residual evaluation when the solver itself
    # is the innermost open span (validation calls inside the solve excluded)
    @functools.wraps(fn)
    def counted(self, C):
        if tracer.current_layer() == "boundary":
            tracer.counts["boundary.residual_evals"] += 1
        return fn(self, C)
    return counted


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what ``uninstall`` needs to restore."""
    package = importlib.import_module("capexbound")
    modules = {name: importlib.import_module(f"capexbound.{name}") for name in LAYERS}
    namespaces = [package, *modules.values()]
    saved = []
    for mod_name, attr, span, count in TARGETS:
        orig = getattr(modules[mod_name], attr)
        wrapper = _span_wrapper(tracer, orig, span, count)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    saved.append((ns, key, val))
                    setattr(ns, key, wrapper)
    for cls_name in SCRAP_CLASSES:
        cls = getattr(modules["model"], cls_name)
        saved.append((cls, "marginal", cls.__dict__["marginal"]))
        cls.marginal = _scrap_marginal_wrapper(tracer, cls.__dict__["marginal"])
    return saved


def uninstall(saved: list) -> None:
    for ns, key, val in reversed(saved):
        setattr(ns, key, val)
