"""Out-of-band tracing of shockaudit's layers, installed from the benchmark.

Every public function is wrapped at every module that binds it: `from .x
import y` copies the binding, so cli.simulate and fv_solver.simulate are
both replaced, by one wrapper that reports under the defining module's name
("fv_solver.simulate").  Three per-point methods are wrapped on their
classes as well.  The source tree is not modified.

Each wrapped call records its duration; the duration is also charged to the
caller's frame, so a layer's self time is its duration minus its wrapped
children.  Spans (id, parent id, name, start, end, audit id) are kept in
memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "config", "eos", "rh", "shock1d", "lagrangian_maps", "fv_solver", "weakcheck")

# Called once per emitted float, quadrature node set or region lookup: they
# are counted and timed, but recording a span for each would add ~10^5 spans
# per audit.
LEAVES = {"config.format_float", "weakcheck.h_eval", "shock1d.region_index"}


class LayerStats:
    __slots__ = ("calls", "errors", "total", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total = 0.0  # outermost calls only, so recursion is not double counted
        self.self_time = 0.0
        self.work = 0  # cell updates (step) or evaluation points (h_eval)


def _step_cells(args, kwargs) -> int:
    grid = kwargs["grid"] if "grid" in kwargs else args[1]
    return grid.n_cells


def _h_points(args, kwargs) -> int:
    return np.broadcast(args[1], args[2]).size


WORK = {"fv_solver.step": _step_cells, "weakcheck.h_eval": _h_points}


class Tracer:
    """Counters, self times and spans for every wrapped shockaudit call."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.spans: list = []
        self.keep_spans = True
        self.audit_id = -1
        self._stack: list = []  # frames [child_time, span_id]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._wrappers: dict[int, object] = {}

    def install(self, package: str = "shockaudit") -> None:
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{m}") for m in MODULES]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                setattr(mod, attr, self._wrap(name, obj))
        weak = importlib.import_module(f"{package}.weakcheck")
        shock1d = importlib.import_module(f"{package}.shock1d")
        for cls, attr, name in (
            (weak.BumpTestFunction, "dt", "weakcheck.h_eval"),
            (weak.BumpTestFunction, "dx", "weakcheck.h_eval"),
            (shock1d.PiecewiseShockSolution, "region_index", "shock1d.region_index"),
        ):
            if attr in vars(cls):
                setattr(cls, attr, self._wrap(name, vars(cls)[attr]))

    def _wrap(self, name: str, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        stats = self.stats.setdefault(name, LayerStats())
        self._depth.setdefault(name, 0)
        work = WORK.get(name)
        leaf = name in LEAVES
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            span_id = parent_id
            if not leaf:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] = level
                duration = end - start
                stats.calls += 1
                stats.self_time += duration - frame[0]
                if level == 0:
                    stats.total += duration
                if not ok:
                    stats.errors += 1
                if work is not None:
                    stats.work += work(args, kwargs)
                if parent is not None:
                    parent[0] += duration
                if not leaf and self.keep_spans:
                    self.spans.append((span_id, parent_id, name, start, end, self.audit_id))

        self._wrappers[id(fn)] = traced
        return traced

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "audit")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _per(x: float, n: int) -> float:
    return x / n if n else 0.0


# name -> (unit, better, value from (stats, audits)).  Times are per audit
# unless the name says per call; a layer the workload never calls reads 0.
def _table():
    def calls(layer):
        return lambda st, n: _per(st[layer].calls, n)

    def total(layer, scale):
        return lambda st, n: _per(st[layer].total, n) * scale

    def self_time(layer, scale):
        return lambda st, n: _per(st[layer].self_time, n) * scale

    def per_call(layer, scale):
        return lambda st, n: _per(st[layer].total, st[layer].calls) * scale

    def ok_ratio(layer):
        return lambda st, n: _per(st[layer].calls - st[layer].errors, st[layer].calls)

    step = "fv_solver.step"
    return {
        "cli.main.self_ms": ("ms", "lower", self_time("cli.main", 1e3)),
        "config.format_float.calls": ("count", "lower", calls("config.format_float")),
        "config.format_float.ms": ("ms", "lower", total("config.format_float", 1e3)),
        "config.load_config.ms": ("ms", "lower", total("config.load_config", 1e3)),
        "config.validate_config.ms": ("ms", "lower", total("config.validate_config", 1e3)),
        "config.dumps_deterministic.ms": ("ms", "lower", total("config.dumps_deterministic", 1e3)),
        "eos.pressure.calls": ("count", "lower", calls("eos.pressure")),
        "eos.energy_density.calls": ("count", "lower", calls("eos.energy_density")),
        "rh.rh_residuals.calls": ("count", "lower", calls("rh.rh_residuals")),
        "rh.rh_residuals.us": ("us", "lower", total("rh.rh_residuals", 1e6)),
        "rh.hugoniot_solve_barotropic.us": ("us", "lower", total("rh.hugoniot_solve_barotropic", 1e6)),
        "rh.hugoniot_solve_full.us": ("us", "lower", total("rh.hugoniot_solve_full", 1e6)),
        "shock1d.stationary_shock_example.us": ("us", "lower", total("shock1d.stationary_shock_example", 1e6)),
        "shock1d.volume_potential_mismatch.us": ("us", "lower", total("shock1d.volume_potential_mismatch", 1e6)),
        "shock1d.region_index.calls": ("count", "lower", calls("shock1d.region_index")),
        "lagrangian_maps.calibrated_flow_map.us": ("us", "lower", total("lagrangian_maps.calibrated_flow_map", 1e6)),
        "lagrangian_maps.augmented_energy_rate.us": ("us", "lower", total("lagrangian_maps.augmented_energy_rate", 1e6)),
        "fv_solver.step.calls": ("count", "lower", calls(step)),
        "fv_solver.step.cell_updates": ("count", "lower", lambda st, n: _per(st[step].work, n)),
        "fv_solver.step.ns_per_cell_update": ("ns", "lower", lambda st, n: _per(st[step].total, st[step].work) * 1e9),
        "fv_solver.step.us_per_call": ("us", "lower", per_call(step, 1e6)),
        "fv_solver.flux.calls": ("count", "lower", calls("fv_solver.flux")),
        "fv_solver.simulate.self_ms": ("ms", "lower", self_time("fv_solver.simulate", 1e3)),
        "fv_solver.field_from_solution.ms": ("ms", "lower", total("fv_solver.field_from_solution", 1e3)),
        "fv_solver.locate_shock.calls": ("count", "lower", calls("fv_solver.locate_shock")),
        "fv_solver.locate_shock.ms": ("ms", "lower", total("fv_solver.locate_shock", 1e3)),
        "fv_solver.measure_shock.ok_ratio": ("ratio", "higher", ok_ratio("fv_solver.measure_shock")),
        "weakcheck.standard_battery.ms": ("ms", "lower", total("weakcheck.standard_battery", 1e3)),
        "weakcheck.weak_residual.calls": ("count", "lower", calls("weakcheck.weak_residual")),
        "weakcheck.weak_residual.ms_per_call": ("ms", "lower", per_call("weakcheck.weak_residual", 1e3)),
        "weakcheck.h_eval.calls": ("count", "lower", calls("weakcheck.h_eval")),
        "weakcheck.h_eval.points": ("count", "higher", lambda st, n: _per(st["weakcheck.h_eval"].work, n)),
    }


LAYER_METRICS = _table()


def layer_metrics(tracer: Tracer, audits: int) -> dict:
    """Per-layer metrics over `audits` traced audits, as {name: {value, unit}}.

    A layer that no longer exists reads 0, like one the workload never calls.
    """
    stats = defaultdict(LayerStats, tracer.stats)
    return {
        name: {"value": fn(stats, audits), "unit": unit}
        for name, (unit, _better, fn) in LAYER_METRICS.items()
    }
