"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces each hooked function with a wrapper that
records a span (name, start, end, parent span) and restores the originals on
exit.  A hooked name is patched in every ``epitaxy`` namespace that holds the
same object, so ``from .semigroup import duhamel_Iplus`` in another module is
traced too.  A hook whose target no longer exists is skipped and its metrics
are reported as absent; the untraced run never calls ``install``.

Spans stay in memory until ``metrics()`` folds them into per-layer totals.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute path).  A dotted path names a method on a class.
SPAN_HOOKS = (
    ("picard.solve_picard", "epitaxy.picard", "solve_picard"),
    ("nonlinear.taylor_sum", "epitaxy.nonlinear", "taylor_sum"),
    ("nonlinear.rhs_exponential", "epitaxy.nonlinear", "rhs_exponential"),
    ("semigroup.duhamel_Iplus", "epitaxy.semigroup", "duhamel_Iplus"),
    ("semigroup.exp_moment_weights", "epitaxy.semigroup", "exp_moment_weights"),
    ("semigroup.linear_trajectory", "epitaxy.semigroup", "linear_trajectory"),
    ("semigroup.operator_bound_probe", "epitaxy.semigroup", "operator_bound_probe"),
    ("norms.spacetime_norm", "epitaxy.norms", "spacetime_norm"),
    ("spectral.synthesize", "epitaxy.spectral", "synthesize"),
    ("spectral.analyze", "epitaxy.spectral", "analyze"),
    ("stepper.solve_timestep", "epitaxy.stepper", "solve_timestep"),
    ("stepper.step", "epitaxy.stepper", "step"),
    ("cli.write_json", "epitaxy.cli", "write_json"),
    ("cli.read_trajectory", "epitaxy.semigroup", "Trajectory.from_json_dict"),
)
CONSTRUCTION_HOOK = ("epitaxy.spectral", "FourierField.__post_init__")

# Reported metric -> (span name, statistic).  Statistics: calls, busy, self.
SPAN_METRICS = {
    "picard.solve_picard.busy_s": ("picard.solve_picard", "busy"),
    "nonlinear.taylor_sum.calls": ("nonlinear.taylor_sum", "calls"),
    "nonlinear.taylor_sum.self_s": ("nonlinear.taylor_sum", "self"),
    "nonlinear.rhs_exponential.calls": ("nonlinear.rhs_exponential", "calls"),
    "nonlinear.rhs_exponential.self_s": ("nonlinear.rhs_exponential", "self"),
    "semigroup.duhamel_Iplus.calls": ("semigroup.duhamel_Iplus", "calls"),
    "semigroup.duhamel_Iplus.self_s": ("semigroup.duhamel_Iplus", "self"),
    "semigroup.exp_moment_weights.calls": ("semigroup.exp_moment_weights", "calls"),
    "semigroup.exp_moment_weights.self_s": ("semigroup.exp_moment_weights", "self"),
    "semigroup.linear_trajectory.self_s": ("semigroup.linear_trajectory", "self"),
    "semigroup.operator_bound_probe.busy_s": ("semigroup.operator_bound_probe", "busy"),
    "norms.spacetime_norm.calls": ("norms.spacetime_norm", "calls"),
    "norms.spacetime_norm.self_s": ("norms.spacetime_norm", "self"),
    "spectral.synthesize.calls": ("spectral.synthesize", "calls"),
    "spectral.synthesize.self_s": ("spectral.synthesize", "self"),
    "spectral.analyze.calls": ("spectral.analyze", "calls"),
    "spectral.analyze.self_s": ("spectral.analyze", "self"),
    "stepper.solve_timestep.busy_s": ("stepper.solve_timestep", "busy"),
    "stepper.step.calls": ("stepper.step", "calls"),
    "stepper.step.self_s": ("stepper.step", "self"),
    "cli.write_json.self_s": ("cli.write_json", "self"),
    "cli.read_trajectory.self_s": ("cli.read_trajectory", "self"),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for a hook target, or None if it is gone."""
    owner = sys.modules.get(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(attr) if classes else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def _fft_points(name: str, args, result) -> int:
    """Grid points M**dim of one transform, computed from the grid it touched."""
    grid = result if name == "spectral.synthesize" else args[0] if args else None
    samples = getattr(grid, "samples", None)
    return int(samples.size) if samples is not None else 0


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = [-1]
        self.constructions = 0
        self.fft_points = 0
        self.hooked: set[str] = set()
        self.construction_hooked = False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count_points = name in ("spectral.synthesize", "spectral.analyze")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count_points:
                self.fft_points += _fft_points(name, args, result)
            return result

        return wrapper

    def _count_constructions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.constructions += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span around benchmark-side work, such as one CLI call."""
        record = [name, time.perf_counter(), 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self.stack.pop()
            record[2] = time.perf_counter()

    @contextmanager
    def install(self):
        restore = []
        try:
            for name, module_name, path in SPAN_HOOKS:
                target = _resolve(module_name, path)
                if target is None:
                    continue
                owner, attr, raw = target
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                    restore.append((owner, attr, raw))
                else:
                    wrapped = self._wrap(name, raw)
                    for module in _package_modules():
                        for key, value in list(vars(module).items()):
                            if value is raw:
                                setattr(module, key, wrapped)
                                restore.append((module, key, raw))
                self.hooked.add(name)
            target = _resolve(*CONSTRUCTION_HOOK)
            if target is not None:
                owner, attr, raw = target
                setattr(owner, attr, self._count_constructions(raw))
                restore.append((owner, attr, raw))
                self.construction_hooked = True
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def metrics(self) -> tuple[dict, list[str]]:
        """Totals over every recorded span, and the metric names left absent."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["busy"] += end - start
            entry["self"] += end - start - child_time[index]
        values, absent = {}, []
        for metric, (span_name, stat) in SPAN_METRICS.items():
            if span_name in self.hooked:
                values[metric] = stats.get(span_name, {"calls": 0, "busy": 0.0, "self": 0.0})[stat]
            else:
                absent.append(metric)
        if self.construction_hooked:
            values["spectral.field_constructions"] = self.constructions
        else:
            absent.append("spectral.field_constructions")
        if {"spectral.synthesize", "spectral.analyze"} <= self.hooked:
            values["spectral.fft_points"] = self.fft_points
        else:
            absent.append("spectral.fft_points")
        return values, absent


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "epitaxy" or name.startswith("epitaxy."))
    ]
