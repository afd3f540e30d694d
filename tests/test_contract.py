"""The package's contract: its public names, its CLI sub-commands, and the
module-level functions that outside tooling (the perfbench span tracer)
looks up by name.  Internals may change freely as long as these hold."""

import argparse
import inspect

import pytest

import splitma
from splitma import _backend, cli, experiments, flow, monitors

PUBLIC_NAMES = [
    "AdmissibilityLost",
    "BETA_MIN",
    "Background",
    "BelowBetaThreshold",
    "ComplexField",
    "ConfigurationError",
    "ConstantsReport",
    "FieldFormatError",
    "FlowParams",
    "FlowState",
    "NumericalFailure",
    "PoissonDataError",
    "RealField",
    "SplitmaError",
    "TorusGrid",
    "Trajectory",
    "constants",
    "corrupt_trajectory",
    "curvature",
    "derivative",
    "evaluate",
    "flat_background",
    "gauge_out_f",
    "kahler_product_background",
    "lambda_eta",
    "legendre_w",
    "make_grid",
    "material_derivative",
    "mixed_norm",
    "normalize_exponents",
    "pluriclosed_background",
    "poisson_solve_factor",
    "random_test_field",
    "read_field",
    "run",
    "shift_min_zero",
    "stats",
    "step_rk4",
    "sup_norm",
    "torsion",
    "verify_A",
    "verify_B",
    "verify_C",
    "verify_pluriclosed",
    "write_field",
]

# public function -> its parameter names: a parameter is added or removed
# on purpose only, so a setting that no caller passes does not come back
# unnoticed
PARAMETERS = {
    "constants": ["bg", "beta", "c0", "safety", "require_upper"],
    "corrupt_trajectory": ["traj", "check"],
    "curvature": ["bg", "tol"],
    "derivative": ["f", "op"],
    "evaluate": ["traj", "bg", "enabled", "constants_report", "safety"],
    "flat_background": ["grid", "c_g", "c_h"],
    "gauge_out_f": ["bg", "f_plus", "f_minus", "beta"],
    "kahler_product_background": ["grid", "g_profile", "h_profile"],
    "lambda_eta": ["u", "bg", "floor", "t"],
    "legendre_w": ["state", "bg"],
    "make_grid": ["dims", "periods"],
    "material_derivative": ["expr", "u", "bg", "beta"],
    "mixed_norm": ["state", "bg", "beta"],
    "normalize_exponents": ["alpha", "beta", "f"],
    "pluriclosed_background": ["grid", "c_g", "c_h", "modes"],
    "poisson_solve_factor": ["rhs", "factor", "mean_tol"],
    "random_test_field": ["grid", "seed", "amplitude", "band", "bg"],
    "read_field": ["path", "grid"],
    "run": ["bg", "u0", "params", "forcing", "checkpoint_times", "keep"],
    "shift_min_zero": ["u"],
    "stats": ["f"],
    "step_rk4": ["u_data", "bg", "beta", "dt", "floor", "forcing", "t"],
    "sup_norm": ["f"],
    "torsion": ["bg"],
    "verify_A": ["u", "bg", "beta", "tol", "ws"],
    "verify_B": ["u", "bg", "beta", "tol", "constants_report", "ws"],
    "verify_C": ["phi", "a", "b", "beta", "tol"],
    "verify_pluriclosed": ["bg", "lam", "eta"],
    "write_field": ["f", "path"],
}

COMMANDS = ["run", "kahler-converge", "beta-sweep", "oracle-2d",
            "check-identities"]

# sub-command -> its flags (besides -h/--help); a flag is added or removed
# on purpose only.  --parallel is gone: the complex transforms take one
# worker per available CPU, and the result does not depend on the count.
FLAGS = {
    "run": ["--config", "--out", "--seed", "--negative-control"],
    "kahler-converge": ["--config", "--out", "--seed"],
    "beta-sweep": ["--config", "--out", "--seed", "--betas"],
    "oracle-2d": ["--config", "--out", "--seed"],
    "check-identities": ["--config", "--out", "--tamper"],
}

CHECK_NAMES = ["speed_consistency", "speed_range", "potential_bounds",
               "trace_lower_bound", "trace_floor", "mixed_growth",
               "trace_growth", "split_preserved", "legendre_subsolution",
               "det_w", "phi_subsolution"]

# module -> functions the span tracer reads by name
TRACED = [
    (flow, "_lambda_eta_data"),
    (flow, "step_with_rejection"),
    (flow, "run"),
    (monitors, "evaluate"),
    (monitors, "mixed_norm"),
    *[(monitors, f"check_{name}") for name in CHECK_NAMES],
    (experiments, "_prepare_problem"),
    (experiments, "_write_timeseries"),
    (_backend, "get_workers"),
    (cli, "main"),
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 45
    assert splitma.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(splitma, name), name


def test_public_parameters():
    functions = {name: getattr(splitma, name) for name in PUBLIC_NAMES
                 if inspect.isfunction(getattr(splitma, name))}
    assert {name: list(inspect.signature(fn).parameters)
            for name, fn in functions.items()} == PARAMETERS


def test_cli_commands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == COMMANDS


def test_cli_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: [opt for action in p._actions
                    for opt in action.option_strings
                    if opt not in ("-h", "--help")]
             for name, p in sub.choices.items()}
    assert flags == FLAGS


@pytest.mark.parametrize("module, name", TRACED,
                         ids=[f"{m.__name__}.{n}" for m, n in TRACED])
def test_traced_function_exists(module, name):
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"{module.__name__}.{name} is gone"
    assert fn.__module__ == module.__name__


@pytest.mark.parametrize("name", list(monitors.CHECKS))
def test_checks_take_the_stream_alone(name):
    """Every registered check reads a MonitorStream and nothing else."""
    fn = getattr(monitors, f"check_{name}", None)
    assert inspect.isfunction(fn), f"monitors.check_{name} is gone"
    assert list(inspect.signature(fn).parameters) == ["stream"]


def test_traced_signatures():
    """The tracer reads step_with_rejection's dt (argument 3) and its
    (state, dt_used) result, and evaluate's trajectory (argument 0)."""
    assert list(inspect.signature(flow.step_with_rejection).parameters)[3] == "dt"
    assert list(inspect.signature(monitors.evaluate).parameters)[0] == "traj"
    assert list(inspect.signature(cli.main).parameters) == ["argv"]


def _span_tracer_module():
    """perfbench/spans.py, loaded from the checkout without the benchmark
    directory on sys.path."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pool_threads_enter_no_traced_function():
    """The span tracer keeps one span stack for the process, so a traced
    function may only be entered from the calling thread: the slab pool
    threads of the factor Laplacians and the trace passes run numpy alone.
    A traced forced 32^4 run (two slab threads where two CPUs are free)
    with every monitor enters each traced function from the main thread,
    and still takes 1 + 4 trace passes a step."""
    import functools
    import threading

    import numpy as np

    from splitma import grid_field
    from splitma.geometry import kahler_product_background
    from splitma.identities import random_test_field

    spans = _span_tracer_module()
    callers = set()

    class ThreadTracer(spans.Tracer):
        def wrap(self, name, fn):
            traced = super().wrap(name, fn)

            @functools.wraps(fn)
            def checked(*args, **kwargs):
                callers.add(threading.get_ident())
                return traced(*args, **kwargs)
            return checked

    grid = grid_field.make_grid((32,) * 4, (1,) * 4)
    prof = (1.0 + 0.2 * np.cos(2 * np.pi * np.arange(32) / 32))[:, None]
    bg = kahler_product_background(grid, prof * np.ones(32),
                                   prof * np.ones(32))
    x1, _, x3, _ = grid.mesh()
    forcing = grid_field.RealField(grid, 0.1 * np.cos(2 * np.pi * x1)
                                   * np.cos(2 * np.pi * x3)
                                   * np.ones(grid.shape))
    tracer = ThreadTracer("pool")
    tracer.install()
    try:
        traj = flow.run(bg, random_test_field(grid, 5, 0.01, 1),
                        flow.FlowParams(beta=0.5, t_end=1e-4),
                        forcing=forcing)
        monitors.evaluate(traj, bg, enabled=list(monitors.CHECKS))
        grid_field.factor_laplacians(grid, traj.snapshots[-1].u.data)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    steps = names.count("flow.step_with_rejection")
    assert steps >= 2 and len(traj.snapshots) == steps + 1
    assert callers == {threading.main_thread().ident}
    assert names.count("flow._lambda_eta_data") == 1 + 4 * steps
    if (_backend.get_workers() >= 2
            and _backend.blas_thread_pin() is not None):
        assert grid_field._slab_threads(grid.shape) >= 2  # the pool did run


def test_identity_pool_threads_enter_no_traced_function():
    """The identity suite's blocks, multiplier products and L run on the
    slab threads too: a traced verify_A, verify_B, verify_C and constants
    on a 16 x 16 x 32 x 32 grid (two slab threads where two CPUs are free)
    enter each traced function from the main thread alone."""
    import functools
    import threading

    import numpy as np

    from splitma import geometry, grid_field, identities

    spans = _span_tracer_module()
    callers = set()

    class ThreadTracer(spans.Tracer):
        def wrap(self, name, fn):
            traced = super().wrap(name, fn)

            @functools.wraps(fn)
            def checked(*args, **kwargs):
                callers.add(threading.get_ident())
                return traced(*args, **kwargs)
            return checked

    grid = grid_field.make_grid((16, 16, 32, 32), (1,) * 4)
    bg = geometry.pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])
    tracer = ThreadTracer("identities")
    tracer.install()
    try:
        u = identities.random_test_field(grid, 3, 0.01, 1, bg=bg)
        cr = geometry.constants(bg, 0.7, c0=3.0)
        ws = identities.ManifoldSlice(u, bg, 0.7)
        identities.verify_A(u, bg, 0.7, ws=ws)
        identities.verify_B(u, bg, 0.7, constants_report=cr, ws=ws)
        x1, _, x3, _ = grid.mesh()
        phi = grid_field.RealField(grid, 0.01 * np.sin(2 * np.pi * x1)
                                   * np.sin(2 * np.pi * x3)
                                   * np.ones(grid.shape))
        identities.verify_C(phi, 1.0, 1.0, 0.7)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"identities.verify_A", "identities.verify_B",
            "identities.verify_C", "geometry.constants",
            "identities.heat_residual", "grid_field.on_blocks"} <= names
    assert callers == {threading.main_thread().ident}
    if (_backend.get_workers() >= 2
            and _backend.blas_thread_pin() is not None):
        assert grid_field._slab_threads(grid.shape) >= 2  # the pool did run
