"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The expensive trajectories are session fixtures shared between
criteria.
"""

import math
import time

import numpy as np
import pytest

from splitma import make_grid
from splitma.cli import main as cli_main
from splitma.config import ExperimentConfig
from splitma.experiments import (
    cmd_beta_sweep,
    cmd_check_identities,
    cmd_kahler_converge,
    cmd_oracle_2d,
)
from splitma.flow import FlowParams, run, shift_min_zero
from splitma.geometry import (
    BETA_MIN,
    b_phi_coefficient,
    constants,
    flat_background,
    kahler_product_background,
)
from splitma.grid_field import RealField
from splitma.identities import random_test_field
from splitma.monitors import (
    CHECKS,
    c0_series,
    evaluate,
)

TWO_PI = 2.0 * np.pi


def _report(tag: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    line = f"[{state}] {tag}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="session")
def grid16():
    return make_grid((16, 16, 16, 16), (1, 1, 1, 1))


@pytest.fixture(scope="session")
def flat16(grid16):
    return flat_background(grid16)


@pytest.fixture(scope="session")
def monitored_split_run(grid16, flat16):
    """Flat product, beta = 0.5, 0.05-amplitude split data, t_end = 5."""
    u0 = shift_min_zero(
        RealField.from_function(
            grid16,
            lambda a, b, c, d: 0.05 * np.sin(TWO_PI * a)
            + 0.05 * np.sin(TWO_PI * c),
        )
    )
    params = FlowParams(beta=0.5, t_end=5.0, cfl=1.0, snapshot_stride=400)
    t0 = time.perf_counter()
    traj = run(flat16, u0, params)
    elapsed = time.perf_counter() - t0
    results = evaluate(traj, flat16)
    return traj, results, elapsed


@pytest.fixture(scope="session")
def nonsplit_run(grid16, flat16):
    """Non-split variant used by the growth-bound criterion."""
    u0 = shift_min_zero(
        random_test_field(grid16, seed=21, amplitude=0.02, band=1, bg=flat16)
    )
    params = FlowParams(beta=0.5, t_end=0.5, cfl=1.0, snapshot_stride=40)
    return run(flat16, u0, params)


@pytest.fixture(scope="session")
def dense_run(grid16, flat16):
    """Short, snapshot-per-step run for the heat subsolution checks."""
    u0 = shift_min_zero(
        random_test_field(grid16, seed=5, amplitude=0.01, band=1, bg=flat16)
    )
    params = FlowParams(
        beta=0.5, t_end=0.002, cfl=1.0, dt_max=5e-5, snapshot_stride=1,
        steady_tol=1e-30,
    )
    return run(flat16, u0, params)


# ---------------------------------------------------------------------------
# criteria


def test_identity_suite(tmp_path):
    cfg = ExperimentConfig(
        dims=(32, 32, 32, 32),
        id_betas=(0.3, 0.7, 1.0),
        id_tolerance=1e-8,
        id_amplitude=0.01,
        id_band=1,
        id_seed=42,
    )
    t0 = time.perf_counter()
    code, rep = cmd_check_identities(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    worst = max(
        (r for r in rep["results"] if r["kind"] == "equality"),
        key=lambda r: r["residual"],
    )
    ok = code == 0 and elapsed <= 120.0
    _report(
        "identity suite: equalities <= 1e-8 at 32^4 with 10x refinement gain",
        ok,
        f"worst {worst['identity']} = {worst['residual']:.2e}, {elapsed:.0f}s",
    )


def test_maximum_principle_monitors(monitored_split_run):
    traj, results, elapsed = monitored_split_run
    needed = ("speed_range", "potential_bounds", "trace_lower_bound",
              "trace_floor")
    ok = all(results[n].passed and results[n].skipped is None for n in needed)
    ok = ok and elapsed <= 300.0
    worst = min(results[n].worst_margin for n in needed)
    _report(
        "maximum-principle monitors on the split reference run",
        ok,
        f"worst margin {worst:.3e}, run {elapsed:.0f}s",
    )


def test_steady_convergence(tmp_path):
    cfg = ExperimentConfig(
        dims=(16, 16, 16, 16),
        beta=0.5,
        t_end=4.0,
        cfl=1.0,
        snapshot_stride=100,
        steady_tol=1e-12,
        initial_kind="zero",
        f_plus="log_cos",
        forcing_params={"f_plus_eps": 0.2, "f_plus_k": 1},
        normalize_compat6=True,
    )
    code, rep = cmd_kahler_converge(cfg, tmp_path)
    ok = (
        code == 0
        and rep["final_residual"] <= 1e-6
        and rep["fit_r2"] >= 0.99
        and rep["rate"] > 0
    )
    _report(
        "steady-metric convergence with measured exponential rate",
        ok,
        f"final {rep['final_residual']:.2e}, rate {rep['rate']:.2f}, "
        f"R2 {rep['fit_r2']:.4f}",
    )


def test_factor_oracle(tmp_path):
    cfg = ExperimentConfig(
        dims=(16, 16, 16, 16),
        beta=0.5,
        t_end=1.0,
        cfl=0.9,
        initial_kind="split_sine",
        initial_params={"a_amp": 0.05, "b_amp": 0.05, "a_k": 1, "b_m": 1},
    )
    code, rep = cmd_oracle_2d(cfg, tmp_path)
    ok = code == 0 and rep["max_error"] <= 1e-6
    _report(
        "4D flow matches the decoupled factor flows on split data",
        ok,
        f"max error {rep['max_error']:.2e} over {len(rep['errors'])} times",
    )


def test_legendre_subsolution(dense_run, flat16):
    results = evaluate(dense_run, flat16, ["legendre_subsolution", "det_w"])
    res, det = results["legendre_subsolution"], results["det_w"]
    ok = res.passed and res.skipped is None and det.passed
    worst_det = max((e.observed for e in det.entries), default=0.0)
    _report(
        "transform-matrix heat subsolution and determinant identity",
        ok,
        f"worst HW margin {res.worst_margin:.3e}, det residual {worst_det:.2e}",
    )


def test_growth_bounds(monitored_split_run, nonsplit_run, flat16):
    traj, results, _ = monitored_split_run
    cr_split = constants(flat16, 0.5, c0=max(c0_series(traj.snapshots)[1]))
    assert cr_split.a_psi == 0.0 and cr_split.c11 == 2.0
    assert cr_split.a_phi == 0.0 and cr_split.c14 == 2.0 * cr_split.b_phi
    checks = [
        results["mixed_growth"],
        results["trace_growth"],
        evaluate(traj, flat16, ["phi_subsolution"],
                 constants_report=cr_split)["phi_subsolution"],
    ]
    cr_ns = constants(flat16, 0.5, c0=max(c0_series(nonsplit_run.snapshots)[1]))
    checks += evaluate(nonsplit_run, flat16,
                       ["mixed_growth", "trace_growth", "phi_subsolution"],
                       constants_report=cr_ns).values()
    ok = all(c.passed and c.skipped is None for c in checks)
    worst = min(c.worst_margin for c in checks)
    _report(
        "mixed-norm, trace and composite growth bounds (product constants)",
        ok,
        f"worst margin {worst:.3e}",
    )


def test_beta_sweep(tmp_path):
    cfg = ExperimentConfig(
        dims=(8, 8, 8, 8),
        t_end=2.0,
        cfl=0.9,
        initial_kind="split_sine",
        initial_params={"a_amp": 0.05, "b_amp": 0.05, "a_k": 1, "b_m": 1},
    )
    code, rep = cmd_beta_sweep(cfg, [0.9, 0.95, 0.99], tmp_path)
    dists = [rep["per_beta"][str(b)]["final_distance"] for b in (0.9, 0.95, 0.99)]
    ok = code == 0 and rep["distance_monotone"] and rep["c0_bounded"]
    _report(
        "exponent sweep: distances to the unit-ratio run shrink, trace "
        "bound stays at its initial level",
        ok,
        "distances " + ", ".join(f"{d:.2e}" for d in dists),
    )


def test_constant_formulas(grid16):
    ok1 = abs(BETA_MIN - (2 * math.sqrt(3) - 3) / 3) <= 1e-12
    ok2 = abs(b_phi_coefficient(0.5) - 96.0 / 11.0) <= 1e-9
    x = np.arange(16) / 16
    gp = (1 + 0.3 * np.cos(TWO_PI * x))[:, None] * np.ones((1, 16))
    bgc = kahler_product_background(grid16, gp, 1.0)
    rep = constants(bgc, 0.5, c0=2.5)
    ok3 = rep.c6 == 2.0 and rep.c7 == 0.0 and rep.c8 == 0.0
    _report(
        "constant formulas: threshold, composite weight, product collapse",
        ok1 and ok2 and ok3,
        f"threshold {BETA_MIN:.12f}, weight {b_phi_coefficient(0.5):.9f}",
    )


SPLIT_CFG = """
[grid]
dims = 8 8 8 8
periods = 1 1 1 1

[flow]
beta = 0.5
t_end = 0.05
cfl = 0.9
snapshot_stride = 10

[initial]
kind = split_sine
a_amp = 0.05
b_amp = 0.05
"""

DENSE_CFG = """
[grid]
dims = 16 16 16 16
periods = 1 1 1 1

[flow]
beta = 0.5
t_end = 0.001
cfl = 1.0
dt_max = 5e-5
snapshot_stride = 1
steady_tol = 1e-30

[initial]
kind = random
amplitude = 0.01
seed = 5
band = 1

[monitors]
enabled = all
"""


def test_negative_controls(tmp_path):
    split_cfg = tmp_path / "split.cfg"
    split_cfg.write_text(SPLIT_CFG)
    dense_cfg = tmp_path / "dense.cfg"
    dense_cfg.write_text(DENSE_CFG)

    assert cli_main(["run", "--config", str(split_cfg),
                     "--out", str(tmp_path / "clean_s")]) == 0
    assert cli_main(["run", "--config", str(dense_cfg),
                     "--out", str(tmp_path / "clean_d")]) == 0

    # every registered check: default-on ones on the split fixture, the
    # optional ones (heat subsolutions, det W) on the dense fixture
    failures = []
    for name, check in CHECKS.items():
        cfg = split_cfg if check.default_on else dense_cfg
        code = cli_main([
            "run", "--config", str(cfg),
            "--out", str(tmp_path / f"nc_{name}"),
            "--negative-control", name,
        ])
        if code != 1:
            failures.append((name, code))
    _report(
        "negative controls: every monitor fails (exit 1) on its corrupted "
        "fixture",
        not failures,
        f"violations: {failures}" if failures
        else f"{len(CHECKS)} controls verified",
    )


def test_integrator_order():
    g = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
    b = flat_background(g)
    u0 = shift_min_zero(
        RealField.from_function(
            g,
            lambda a, bb, c, d: 0.05 * np.sin(TWO_PI * a)
            + 0.05 * np.sin(TWO_PI * c),
        )
    )

    def final(cfl):
        params = FlowParams(beta=0.5, t_end=0.02, cfl=cfl,
                            snapshot_stride=10**9, steady_tol=1e-30)
        return run(b, u0, params).snapshots[-1].u.data

    u1, u2, u3 = final(0.4), final(0.2), final(0.1)
    ratio = float(np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u3)))
    ok = 12.0 < ratio < 20.0
    _report(
        "integrator order: step-halving error ratio in [12, 20]",
        ok,
        f"ratio {ratio:.2f}",
    )
