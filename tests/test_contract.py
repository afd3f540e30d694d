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
