"""In-memory span tracing of splitma from outside the package.

``Tracer.install`` wraps the public functions of each splitma module (plus
a few private ones the per-layer metrics need) and rebinds every reference
to them in the package's module namespaces, so calls made through
``from .x import f`` imports are traced too.  Each span records its name,
start, end, parent span and run id; spans stay in memory until the run
ends.  ``layer_metrics`` turns the spans of one run into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
from time import perf_counter

# Modules traced, as layer names.  oracle2d is the independent reference
# and is deliberately left out.
LAYERS = ("_backend", "grid_field", "geometry", "flow", "monitors",
          "identities", "config", "experiments")

# Private functions whose spans the per-layer metrics read.
PRIVATE = {
    "flow": ("_lambda_eta_data",),
    "experiments": ("_prepare_problem", "_write_timeseries"),
}

TRANSFORMS = ("backend.fftn", "backend.ifftn", "backend.rfftn",
              "backend.irfftn")
REAL_TRANSFORMS = ("backend.rfftn", "backend.irfftn")

CHECKS = ("speed_consistency", "speed_range", "potential_bounds",
          "trace_lower_bound", "trace_floor", "mixed_growth", "trace_growth",
          "split_preserved", "legendre_subsolution", "det_w",
          "phi_subsolution")


def _transform_bytes(args, kwargs, out):
    return {"bytes": args[0].nbytes + out.nbytes}


def _step_attrs(args, kwargs, out):
    return {"dt": args[3], "dt_used": out[1]}


def _run_attrs(args, kwargs, out):
    snaps = out.snapshots
    nbytes = sum(s.u.data.nbytes + s.lam.data.nbytes + s.eta.data.nbytes
                 + s.du_dt.data.nbytes for s in snaps)
    return {"t": snaps[-1].t, "snapshots": len(snaps), "bytes": nbytes}


def _evaluate_attrs(args, kwargs, out):
    return {"snapshots": len(args[0].snapshots)}


def _write_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


ATTRS = {
    "backend.fftn": _transform_bytes,
    "backend.ifftn": _transform_bytes,
    "backend.rfftn": _transform_bytes,
    "backend.irfftn": _transform_bytes,
    "flow.step_with_rejection": _step_attrs,
    "flow.run": _run_attrs,
    "monitors.evaluate": _evaluate_attrs,
    "grid_field.write_field": _write_attrs,
}


class Tracer:
    """Collects spans as [name, start, end, parent, run_id, attrs]."""

    def __init__(self, run_id: str):
        self.spans: list[list] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "splitma") -> None:
        """Wrap the traced functions and rebind every package reference."""
        layers = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        wrapped = {}
        for mod_name, mod in layers.items():
            layer = mod_name.lstrip("_")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in PRIVATE.get(mod_name, ()))):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in (*layers.values(), importlib.import_module(f"{package}.cli"),
                    importlib.import_module(package)):
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    setattr(mod, attr, wrapped[fn])
                    self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the spans out, one JSON object a line."""
        keys = ("name", "start", "end", "parent", "run", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one run's spans; the first span is the root."""
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def under(i: int, names: tuple) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0.0) + dur
        calls[s[0]] = calls.get(s[0], 0) + 1
        layer = s[0].split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]

    def attr_sum(name: str, key: str) -> float:
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    transforms = [i for i, s in enumerate(spans) if s[0] in TRANSFORMS]
    n_tf = len(transforms)
    real_tf = sum(1 for i in transforms if spans[i][0] in REAL_TRANSFORMS)
    steps = [s for s in spans if s[0] == "flow.step_with_rejection" and s[5]]
    retries = sum(round(math.log2(s[5]["dt"] / s[5]["dt_used"]))
                  for s in steps)
    step_ms = sorted((s[2] - s[1]) * 1e3 for s in steps)
    run_idx = [i for i, s in enumerate(spans) if s[0] == "flow.run"]
    trace_evals = sum(1 for i, s in enumerate(spans)
                      if s[0] == "flow._lambda_eta_data"
                      and under(i, ("flow.run",)))
    flow_time = attr_sum("flow.run", "t")
    eval_snaps = attr_sum("monitors.evaluate", "snapshots")
    verify = ("identities.verify_A", "identities.verify_B",
              "identities.verify_C")
    slice_tf = sum(1 for i in transforms if under(i, verify))

    def pct(q: float) -> float:
        if not step_ms:
            return 0.0
        if len(step_ms) == 1:
            return step_ms[0]
        return statistics.quantiles(step_ms, n=100, method="inclusive")[q - 1]

    m = {
        "grid_field.transforms": n_tf,
        "grid_field.transform_s": sum(t(k) for k in TRANSFORMS),
        "grid_field.transform_bytes": sum(spans[i][5]["bytes"]
                                          for i in transforms if spans[i][5]),
        "grid_field.real_transform_share": real_tf / n_tf if n_tf else 0.0,
        "grid_field.factor_laplacians_s": t("grid_field.factor_laplacians"),
        "grid_field.factor_laplacians_calls":
            c("grid_field.factor_laplacians"),
        "grid_field.deriv_s": t("grid_field.deriv_data"),
        "grid_field.deriv_calls": c("grid_field.deriv_data"),
        "grid_field.poisson_s": t("grid_field.poisson_solve_factor"),
        "grid_field.write_field_s": t("grid_field.write_field"),
        "grid_field.write_field_bytes": attr_sum("grid_field.write_field",
                                                 "bytes"),
        "grid_field.read_field_s": t("grid_field.read_field"),
        "flow.integrate_s": t("flow.run"),
        "flow.integrate_self_s": sum(spans[i][2] - spans[i][1]
                                     - child_time[i] for i in run_idx),
        "flow.steps_accepted": len(steps),
        "flow.step_retries": retries,
        "flow.accept_ratio": (len(steps) / (len(steps) + retries)
                              if steps else 0.0),
        "flow.trace_evals": trace_evals,
        "flow.trace_evals_per_unit_time": (trace_evals / flow_time
                                           if flow_time else 0.0),
        "flow.step_ms_p50": pct(50),
        "flow.step_ms_p90": pct(90),
        "flow.step_ms_samples": len(step_ms),
        "flow.gauge_s": t("flow.gauge_out_f"),
        "flow.snapshots": attr_sum("flow.run", "snapshots"),
        "flow.snapshot_bytes": attr_sum("flow.run", "bytes"),
        "monitors.evaluate_s": t("monitors.evaluate"),
        "monitors.evaluate_transforms": sum(
            1 for i in transforms if under(i, ("monitors.evaluate",))),
        "monitors.ms_per_snapshot": (t("monitors.evaluate") * 1e3 / eval_snaps
                                     if eval_snaps else 0.0),
        "monitors.mixed_norm_calls": c("monitors.mixed_norm"),
    }
    for check in CHECKS:
        m[f"monitors.check.{check}_s"] = t(f"monitors.check_{check}")
    m.update({
        "identities.verify_A_s": t("identities.verify_A"),
        "identities.verify_B_s": t("identities.verify_B"),
        "identities.verify_C_s": t("identities.verify_C"),
        "identities.transforms_per_slice": (
            slice_tf / c("identities.verify_A")
            if c("identities.verify_A") else 0.0),
        "geometry.constants_s": t("geometry.constants"),
        "geometry.curvature_s": t("geometry.curvature"),
        "experiments.prepare_s": t("experiments._prepare_problem"),
        "experiments.timeseries_s": t("experiments._write_timeseries"),
        "config.parse_s": t("config.parse_config"),
    })
    for layer in ("cli", "config", "experiments", "flow", "monitors",
                  "identities", "geometry", "grid_field", "backend"):
        m[f"self_s.{layer}"] = self_s.get(layer, 0.0)
    m["trace.wall_s"] = spans[0][2] - spans[0][1]
    m["trace.spans"] = n
    return m
