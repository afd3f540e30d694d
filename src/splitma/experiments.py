"""Experiment recipes: monitored flow runs, steady-state convergence on
product backgrounds, the exponent sweep, the decoupled-factor oracle, and
the slice identity suite.  Each recipe returns (exit_code, report)."""

from __future__ import annotations

import copy
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import _backend
from .config import (
    ExperimentConfig,
    build_background,
    build_forcing,
    build_grid,
    build_initial,
    inadmissible_initial,
)
from .errors import AdmissibilityLost, ConfigurationError, NumericalFailure
from .flow import (
    FlowParams,
    Trajectory,
    gauge_out_f,
    integrate,
    is_split,
    normalize_compat,
    normalize_exponents,
    run,
    shift_min_zero,
)
from .geometry import (BETA_MIN, KAHLER_PRODUCT, constants, curvature,
                       make_background, pluriclosed_background)
from .grid_field import RealField, atomic_write, make_grid, write_field
from .identities import random_test_field, verify_A, verify_B, verify_C, ManifoldSlice
from .monitors import (
    CHECKS,
    DEFAULT_CHECKS,
    CheckResult,
    MonitorStream,
    c0_series,
    mixed_sups,
)
from .oracle2d import run_factor_flow

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MONITOR = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ORACLE_TOL = 1e-6  # sup distance of the 4D flow from the factor flows


def _flow_params(cfg: ExperimentConfig, beta: float, **overrides) -> FlowParams:
    """The one builder of FlowParams: the config's [flow] values with
    t_end scaled by alpha, then overrides; validated once, on the result."""
    fields = dict(
        beta=beta,
        t_end=cfg.t_end * cfg.alpha,
        cfl=cfg.cfl,
        dt_max=cfg.dt_max,
        steady_tol=cfg.steady_tol,
        admissibility_floor=cfg.admissibility_floor,
        snapshot_stride=cfg.snapshot_stride,
        steady_criterion=cfg.steady_criterion,
        spectral_filter=cfg.spectral_filter,
    )
    return FlowParams(**{**fields, **overrides})


def _write_json(path, report: dict) -> None:
    """Write report to path, making its directory: a recipe makes its
    output directory only once it has something to write, so a refused
    call leaves none."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(json.dumps(report, indent=2))


def _at_checkpoint(times, items, t):
    """The item at the time nearest t, which must lie within 1e-9 of it."""
    i = min(range(len(times)), key=lambda k: abs(times[k] - t))
    if abs(times[i] - t) > 1e-9:
        raise NumericalFailure(f"missed checkpoint {t}")
    return items[i]


def _checkpoint_states(cfg: ExperimentConfig, seed, bg, u0,
                       params: FlowParams, cps):
    """The initial state and the state at each checkpoint time of a run
    that never stops early; the last checkpoint is t_end.  A failure of
    the first evaluation, at t = 0, names the configured initial state
    (config.inadmissible_initial)."""
    flow = integrate(bg, u0, params, stops=cps)
    try:
        states = [next(flow)[0]]
    except AdmissibilityLost as exc:
        raise inadmissible_initial(cfg, seed, exc) from exc
    states += [s for s, _, at_stop in flow if at_stop]
    if len(states) == 1:  # t_end within 1e-12 of 0: no step was taken
        states *= len(cps) + 1
    return states


def _free_flow(cfg: ExperimentConfig, recipe: str) -> None:
    if cfg.f_plus != "zero" or cfg.f_minus != "zero":  # not dropped silently
        raise ConfigurationError(f"{recipe} runs the free flow only: "
                                 "[forcing] f_plus and f_minus must be zero")


def _enabled_checks(cfg: ExperimentConfig):
    sel = cfg.monitors_enabled.strip()
    if sel == "default":
        return list(DEFAULT_CHECKS)
    if sel == "all":
        return list(CHECKS)
    if sel == "none":
        return []
    names = sel.replace(",", " ").split()
    for n in names:
        if n not in CHECKS:
            raise ConfigurationError(f"unknown monitor {n!r}")
    return names


def _write_timeseries(path, stream: MonitorStream,
                      results: dict[str, CheckResult]) -> None:
    """One row per record of stream; a check's i-th entry is the i-th
    record's."""
    cols = [
        "t", "dt", "max_du_dt", "min_du_dt", "osc_u", "min_lambda",
        "max_lambda", "min_eta", "max_eta", "c0", "sup_mixed_norm",
        "steady_residual",
    ]
    for n in results:
        cols += [f"{n}_pass", f"{n}_margin"]
    lines = [",".join(cols)]
    for i, r in enumerate(stream.records):
        row = [f"{v:.17g}" for v in (
            r.t, r.dt, r.du_max, r.du_min, r.u_max - r.u_min, r.lam_min,
            r.lam_max, r.eta_min, r.eta_max, r.c0, r.sup, r.steady)]
        for res in results.values():
            if res.skipped is not None:
                row += ["skip", "nan"]
            else:
                e = res.entries[i]
                row += ["1" if e.passed else "0", f"{e.margin:.17g}"]
        lines.append(",".join(row))
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _summary(traj: Trajectory, stream: MonitorStream,
             results: dict[str, CheckResult]) -> dict:
    final = stream.records[-1]
    checks = {}
    for name, res in results.items():
        checks[name] = {
            "passed": bool(res.passed),
            "skipped": res.skipped,
            "worst_margin": None if not res.entries else float(res.worst_margin),
            "first_failure_t": res.first_failure_t,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "termination": traj.termination,
        "t_final": final.t,
        "steps_recorded": len(stream.records),
        "final_stats": {
            "min_lambda": final.lam_min,
            "max_lambda": final.lam_max,
            "min_eta": final.eta_min,
            "max_eta": final.eta_max,
            "min_u": final.u_min,
            "max_u": final.u_max,
        },
        "checks": checks,
    }


def _field_dump(out: Path, stride: int):
    """A consumer of kept states that writes the potential of every
    stride-th one (none when stride is 0), and the paths it has written."""
    count = itertools.count()
    written = []

    def dump(state) -> None:
        i = next(count)
        if stride > 0 and i % stride == 0:
            written.append(out / f"u_{i:06d}.field")
            write_field(state.u, written[-1])
    return dump, written


def _prepare_problem(cfg: ExperimentConfig, seed=None):
    """Grid, background, reduced initial data and forcing for a run.

    Exponent normalisation divides out alpha; split forcing on a product
    background is (optionally) gauged away into the background, leaving a
    zero-forcing reduced problem.  Returns (grid, bg, u0, forcing, info).
    """
    grid = build_grid(cfg)
    bg = build_background(cfg, grid)
    beta, _, _ = normalize_exponents(cfg.alpha, cfg.beta, None)
    fp, fm = build_forcing(cfg, grid, beta)
    info = {"beta": beta, "gauged": False, "b_plus": 0.0, "b_minus": 0.0}
    if fp is None:
        u0 = build_initial(cfg, grid, bg, seed_override=seed)
        return grid, bg, shift_min_zero(u0), None, info
    fp = RealField(grid, fp.data / cfg.alpha)
    fm = RealField(grid, fm.data / cfg.alpha)
    if bg.kind != KAHLER_PRODUCT:
        raise ConfigurationError(
            "forcing is supported on product backgrounds only"
        )
    if cfg.normalize_compat6:
        fp, fm = normalize_compat(bg, fp, fm, beta)
    if not cfg.gauge:
        forcing = RealField(grid, fp.data + fm.data)
        u0 = build_initial(cfg, grid, bg, seed_override=seed)
        return grid, bg, u0, forcing, info
    res = gauge_out_f(bg, fp, fm, beta)
    del fp, fm
    # u0 is built only now, so the gauge does not hold it
    u0 = build_initial(cfg, grid, bg, seed_override=seed)
    del bg
    u0_reduced = shift_min_zero(RealField(grid, u0.data - res.u_inf.data))
    info.update(gauged=True, b_plus=res.b_plus, b_minus=res.b_minus)
    g_new, h_new = res.g_new, res.h_new
    # only the reduced problem's three fields reach make_background
    del u0, res
    bg2 = make_background(grid, g_new, h_new, KAHLER_PRODUCT,
                          params={"recipe": "gauged"})
    return grid, bg2, u0_reduced, None, info


# ---------------------------------------------------------------------------
# recipes


def cmd_flow_run(cfg: ExperimentConfig, out_dir, seed=None,
                 negative_control: str | None = None):
    """Monitored run: the kept states stream through a MonitorStream and
    the field dump as they are produced.  A negative control hands them a
    corrupted deep copy of each kept state after the first instead."""
    if negative_control is not None and negative_control not in CHECKS:
        raise ConfigurationError(
            f"no corruption fixture for check {negative_control!r}")
    enabled = _enabled_checks(cfg)
    if negative_control is not None and negative_control not in enabled:
        enabled.append(negative_control)
    grid, bg, u0, forcing, info = _prepare_problem(cfg, seed=seed)
    # run takes u0 from this list, so nothing here holds it once a later
    # state is kept: the steps after that hold one field less
    initial = [u0]
    del u0
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    params = _flow_params(cfg, info["beta"])
    stream = MonitorStream(bg, enabled, cfg.monitors_safety)
    dump, dumped = _field_dump(out, cfg.field_dump_stride)

    def keep(tr: Trajectory) -> None:
        if not stream.records:  # the first kept state: the dump writes to out
            out.mkdir(parents=True, exist_ok=True)
        s = tr.snapshots[-1]
        if negative_control is not None and stream.records:
            s = copy.deepcopy(s, {id(s.u.grid): s.u.grid})
            CHECKS[negative_control].corrupt(s, stream.records[0])
        stream.add(tr, s, tr.dts[-1])
        dump(s)

    try:
        traj = run(bg, initial.pop(), params, forcing=forcing, keep=keep)
    except (NumericalFailure, AdmissibilityLost) as exc:
        partial = exc.trajectory
        if not partial.snapshots:  # the flow's first evaluation, at t = 0
            raise inadmissible_initial(cfg, seed, exc) from exc
        report = {"schema_version": SCHEMA_VERSION, "termination": "failed",
                  "error": str(exc), "failed_at": partial.meta["failed_at"]}
        out.mkdir(parents=True, exist_ok=True)
        write_field(partial.snapshots[-1].u, out / "failure_u.field")
        _write_json(out / "summary.json", report)
        return EXIT_NUMERICAL, report
    if negative_control is not None and len(stream.records) < 2:
        for path in dumped:  # a refused call leaves no output
            path.unlink()
        for d in made:  # deepest first
            d.rmdir()
        raise ConfigurationError("corruption fixtures need >= 2 snapshots")
    results = stream.results()
    _write_timeseries(out / "timeseries.csv", stream, results)
    report = _summary(traj, stream, results)
    report["reduction"] = info
    _write_json(out / "summary.json", report)
    write_field(traj.snapshots[-1].u, out / "u_final.field")
    ok = all(r.passed for r in results.values())
    return (EXIT_OK if ok else EXIT_MONITOR), report


def _fit_log_decay(times, residuals):
    """Least-squares slope of log(residual) vs t over the decaying tail,
    from the residuals above the rounding floor 1e-11."""
    ts, ys = [], []
    for t, r in zip(times, residuals):
        if r > 1e-11:
            ts.append(t)
            ys.append(math.log(r))
    # use the second half of the usable window (the asymptotic regime)
    k = len(ts) // 2
    ts, ys = ts[k:], ys[k:]
    if len(ts) < 3:
        return 0.0, 0.0
    t_arr = np.array(ts)
    y_arr = np.array(ys)
    A = np.vstack([t_arr, np.ones_like(t_arr)]).T
    coef, res_, _, _ = np.linalg.lstsq(A, y_arr, rcond=None)
    slope = coef[0]
    y_hat = A @ coef
    ss_res = float(np.sum((y_arr - y_hat) ** 2))
    ss_tot = float(np.sum((y_arr - y_arr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -float(slope), r2


def cmd_kahler_converge(cfg: ExperimentConfig, out_dir, seed=None):
    """Run the forced flow on a product background toward its steady form
    and measure the exponential approach rate.

    The target coefficients (g exp((f+ + b+)/beta), h exp(-(f- + b-)))
    are constructed by factor Poisson inversion, i.e. by the same discrete
    operators the flow uses, so the discrete steady state is exact."""
    out = Path(out_dir)
    grid = build_grid(cfg)
    bg = build_background(cfg, grid)
    if bg.kind != KAHLER_PRODUCT:
        raise ConfigurationError("steady-convergence run needs a product background")
    beta = cfg.beta / cfg.alpha
    fp, fm = build_forcing(cfg, grid, beta)
    if fp is None:
        fp = RealField.zeros(grid)
        fm = RealField.zeros(grid)
    else:
        fp = RealField(grid, fp.data / cfg.alpha)
        fm = RealField(grid, fm.data / cfg.alpha)
    if not cfg.normalize_compat6:
        raise ConfigurationError("steady-convergence run requires compatibility "
                                 "normalisation")
    fp, fm = normalize_compat(bg, fp, fm, beta)
    gauge = gauge_out_f(bg, fp, fm, beta)
    mu_plus = gauge.g_new
    mu_minus = gauge.h_new
    u0 = build_initial(cfg, grid, bg, seed_override=seed)
    forcing = RealField(grid, fp.data + fm.data)
    params = _flow_params(cfg, beta, steady_criterion="norm")
    times, residuals, split_res = [], [], []

    def keep(tr: Trajectory) -> None:
        s = tr.snapshots[-1]
        rz = float(np.max(np.abs(bg.g.data * s.lam.data - mu_plus)))
        rw = float(np.max(np.abs(bg.h.data * s.eta.data - mu_minus)))
        times.append(s.t)
        residuals.append(max(rz, rw))
        split_res.append(mixed_sups(s, bg, beta)[1])  # sup|u_zw|

    try:
        traj = run(bg, u0, params, forcing=forcing, keep=keep)
    except AdmissibilityLost as exc:
        if not exc.trajectory.snapshots:  # the first evaluation, at t = 0
            raise inadmissible_initial(cfg, seed, exc) from exc
        raise
    rate, r2 = _fit_log_decay(times, residuals)
    final = residuals[-1]
    ok = final <= 1e-6 and r2 >= 0.99
    report = {
        "schema_version": SCHEMA_VERSION,
        "termination": traj.termination,
        "final_residual": final,
        "rate": rate,
        "fit_r2": r2,
        "b_plus": gauge.b_plus,
        "b_minus": gauge.b_minus,
        "times": times,
        "residuals": residuals,
        "mixed_sup": split_res,
        "passed": bool(ok),
    }
    _write_json(out / "converge.json", report)
    return (EXIT_OK if ok else EXIT_MONITOR), report


def cmd_beta_sweep(cfg: ExperimentConfig, beta_list, out_dir, seed=None):
    """Integrate the same problem for several exponent ratios and compare
    against the unit-ratio reference at matched times."""
    _free_flow(cfg, "beta-sweep")
    out = Path(out_dir)
    try:
        betas = sorted(set(float(b) for b in beta_list))
    except ValueError as exc:
        raise ConfigurationError(f"invalid sweep ratio: {exc}") from exc
    for b in betas:
        if not (BETA_MIN < b <= 1.0):
            raise ConfigurationError(
                f"sweep ratio {b} outside the admissible range "
                f"({BETA_MIN:.6f}, 1]"
            )
    if not betas or betas[0] >= 1.0:  # 1 alone compares 1 with itself
        raise ConfigurationError("sweep needs a ratio below 1")
    if 1.0 not in betas:
        betas.append(1.0)
    grid = build_grid(cfg)
    bg = build_background(cfg, grid)
    u0 = shift_min_zero(build_initial(cfg, grid, bg, seed_override=seed))
    t_end = cfg.t_end
    cps = [t_end * (i + 1) / 8 for i in range(8)]
    runs = {b: _checkpoint_states(cfg, seed, bg, u0,
                                  _flow_params(cfg, b, t_end=t_end), cps)
            for b in betas}

    ref = runs[1.0]
    per_beta = {}
    curv_ok = curvature(bg).mixed_curvature_nonneg
    for b in betas:
        series, running = c0_series(runs[b])
        dists = [float(np.max(np.abs(s.u.data - r.u.data)))
                 for s, r in zip(runs[b][1:], ref[1:])]
        per_beta[b] = {
            "c0_initial": series[0],
            "c0_max": running[-1],
            "distances": dists,
            "final_distance": dists[-1],
        }
    sweep = [b for b in betas if b < 1.0]
    monotone_ok = True
    for lo, hi in zip(sweep, sweep[1:]):
        if per_beta[hi]["final_distance"] > 1.05 * per_beta[lo]["final_distance"]:
            monotone_ok = False
    c0_ok = all(
        per_beta[b]["c0_max"] <= per_beta[b]["c0_initial"] + 1e-6 for b in betas
    ) if curv_ok else True
    ok = monotone_ok and c0_ok
    report = {
        "schema_version": SCHEMA_VERSION,
        "betas": betas,
        "checkpoints": cps,
        "per_beta": {str(b): per_beta[b] for b in betas},
        "distance_monotone": monotone_ok,
        "c0_bounded": c0_ok,
        "curvature_sign_ok": bool(curv_ok),
        "passed": bool(ok),
        "horizon_note": "hypotheses checked on the computed horizon only",
    }
    _write_json(out / "beta_sweep.json", report)
    return (EXIT_OK if ok else EXIT_MONITOR), report


def cmd_oracle_2d(cfg: ExperimentConfig, out_dir, seed=None):
    """Cross-check the 4D integrator against the two decoupled factor
    flows on split data, at five checkpoints, to ORACLE_TOL."""
    _free_flow(cfg, "oracle-2d")
    out = Path(out_dir)
    grid = build_grid(cfg)
    bg = build_background(cfg, grid)
    if bg.kind != KAHLER_PRODUCT:
        raise ConfigurationError("factor-oracle run needs a product background")
    u0 = build_initial(cfg, grid, bg, seed_override=seed)
    if not is_split(u0):
        raise ConfigurationError("factor-oracle run needs split initial data")
    beta = cfg.beta / cfg.alpha
    t_end = cfg.t_end
    cps = [t_end * (i + 1) / 5 for i in range(5)]
    # oracle2d has no spectral filter
    params = _flow_params(cfg, beta, t_end=t_end, spectral_filter=False)
    states = _checkpoint_states(cfg, seed, bg, u0, params, cps)

    a0 = u0.data.mean(axis=(2, 3))
    b0 = u0.data.mean(axis=(0, 1)) - float(u0.data.mean())
    g2d = bg.g.data[:, :, 0, 0]
    h2d = bg.h.data[0, 0, :, :]
    pz = (grid.periods[0], grid.periods[1])
    pw = (grid.periods[2], grid.periods[3])
    fa = run_factor_flow(a0, g2d, pz, beta, "plus", t_end, cps, cfl=cfg.cfl)
    fb = run_factor_flow(b0, h2d, pw, 1.0, "minus", t_end, cps, cfl=cfg.cfl)

    errors = []
    for t, s in zip(cps, states[1:]):
        combo = (
            _at_checkpoint(fa.times, fa.states, t)[:, :, None, None]
            + _at_checkpoint(fb.times, fb.states, t)[None, None, :, :]
        )
        errors.append(float(np.max(np.abs(s.u.data - combo))))
    ok = max(errors) <= ORACLE_TOL
    report = {
        "schema_version": SCHEMA_VERSION,
        "checkpoints": cps,
        "errors": errors,
        "max_error": max(errors),
        "tolerance": ORACLE_TOL,
        "passed": bool(ok),
    }
    _write_json(out / "oracle_2d.json", report)
    return (EXIT_OK if ok else EXIT_MONITOR), report


def cmd_check_identities(cfg: ExperimentConfig, out_dir,
                         tamper: bool = False):
    """Run the slice identity suite at two resolutions and each requested
    exponent ratio; every equality must pass at the fine grid and shrink
    at least tenfold from the coarse one (down to the rounding floor)."""
    # the slices' complex spectra need scipy.fft: imported before the
    # first field, its memory lies below the fields, not above them
    _backend.scipy_fft()
    out = Path(out_dir)
    fine_dims = cfg.dims
    if min(fine_dims) < 16:
        raise ConfigurationError(
            "identity suite needs dims >= 16 so a half-resolution "
            "comparison grid exists"
        )
    coarse_dims = tuple(n // 2 for n in fine_dims)
    tol = cfg.id_tolerance
    floor = 1e-11
    rows = []
    all_ok = True
    for beta in cfg.id_betas:
        per_grid = {}
        for dims in (coarse_dims, fine_dims):
            grid = make_grid(dims, cfg.periods)
            bgp = _identity_background(cfg, grid)
            u = random_test_field(grid, cfg.id_seed, cfg.id_amplitude,
                                  cfg.id_band)
            ws = ManifoldSlice(u, bgp, beta)  # raises on inadmissible data
            c0 = float(np.max(1.0 / ws.lam + 1.0 / ws.eta))
            cr = constants(bgp, beta, c0=c0)
            res = verify_A(u, bgp, beta, tol=tol, ws=ws)
            res += verify_B(u, bgp, beta, tol=tol, constants_report=cr, ws=ws)
            del ws  # its cached spectra are not needed by verify_C
            x1, _, x3, _ = grid.mesh()
            phi = RealField(
                grid,
                cfg.id_amplitude
                * np.sin(2 * np.pi * x1 / grid.periods[0])
                * np.sin(2 * np.pi * x3 / grid.periods[2])
                * np.ones(grid.shape),
            )
            res += verify_C(phi, 1.0, 1.0, beta, tol=tol)
            per_grid[dims] = {r.name: r for r in res}
        for name, fine in per_grid[fine_dims].items():
            coarse = per_grid[coarse_dims][name]
            if tamper and name == "A4":
                fine.residual += 1.0
                fine.passed = False
            if fine.kind == "equality":
                ratio_ok = (
                    fine.residual <= coarse.residual / 10.0
                    or fine.residual <= floor
                )
                passed = fine.residual <= tol and ratio_ok
                status = "pass" if passed else (
                    "under_resolved"
                    if (fine.residual > tol and ratio_ok) else "fail"
                )
            else:
                passed = fine.passed
                ratio_ok = True
                status = "pass" if passed else "fail"
            all_ok = all_ok and passed
            rows.append({
                "identity": name,
                "kind": fine.kind,
                "beta": beta,
                "grid": list(fine_dims),
                "seed": cfg.id_seed,
                "residual": fine.residual,
                "residual_coarse": coarse.residual,
                "tolerance": fine.tolerance,
                "convergent": bool(ratio_ok),
                "pass": bool(passed),
                "status": status,
            })
    report = {
        "schema_version": SCHEMA_VERSION,
        "results": rows,
        "passed": bool(all_ok),
    }
    _write_json(out / "identities.json", report)
    return (EXIT_OK if all_ok else EXIT_MONITOR), report


def _identity_background(cfg: ExperimentConfig, grid):
    modes = cfg.bg_params.get("modes") or [(1, 1, 1.0)]
    return pluriclosed_background(
        grid, cfg.bg_params.get("c_g", 1.0), cfg.bg_params.get("c_h", 1.0), modes
    )
