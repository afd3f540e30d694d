"""Executable forms of the a-priori estimates, evaluated along
trajectories.

Each check is a pure function of trajectory data and a constants report:
re-running a check on the same trajectory gives identical results.  Every
check has a negative-control corruption (see corrupt_trajectory) that
makes it fail, so a passing suite is evidence the checks can actually
bite.

Bound tolerances absorb time discretisation: monotonicity comparisons use
a fixed relative slack, pointwise comparisons scale with the square of
the local step or snapshot spacing.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import (BETA_MIN, Background, ConstantsReport, CurvatureReport,
                       constants, curvature)
from .grid_field import RealField, deriv_data, factor_laplacians
from .flow import FlowState, Trajectory

MONO_SLACK = 1e-8           # relative slack for monotone scalar series
FD_FLOOR = 1e-6             # floor of the finite-difference tolerances


@dataclass
class MonitorEntry:
    t: float
    bound: float
    observed: float
    margin: float
    passed: bool


@dataclass
class CheckResult:
    name: str
    passed: bool
    entries: list[MonitorEntry] = field(default_factory=list)
    worst_margin: float = math.inf
    skipped: str | None = None
    first_failure_t: float | None = None

    @classmethod
    def skip(cls, name: str, reason: str) -> "CheckResult":
        return cls(name=name, passed=True, skipped=reason)


def _finish(name: str, entries: list[MonitorEntry]) -> CheckResult:
    passed = all(e.passed for e in entries)
    worst = min((e.margin for e in entries), default=math.inf)
    first_fail = next((e.t for e in entries if not e.passed), None)
    return CheckResult(name, passed, entries, worst, None, first_fail)


# ---------------------------------------------------------------------------
# pointwise helper quantities


def mixed_norm(state: FlowState, bg: Background, beta: float) -> RealField:
    """Squared norm of the mixed second derivative in the adjusted metric:
    beta |u_zw|^2 / (g lam h eta)."""
    u_zw = deriv_data(state.u.grid, state.u.data, "z w")
    val = beta * np.abs(u_zw) ** 2 / (
        bg.g.data * state.lam.data * bg.h.data * state.eta.data
    )
    return RealField(state.u.grid, val)


def mixed_norm_sups(traj: Trajectory, bg: Background) -> list[float]:
    """Per-snapshot sup of the adjusted-metric mixed norm."""
    return [float(np.max(mixed_norm(s, bg, traj.beta).data))
            for s in traj.snapshots]


@dataclass
class LegendreW:
    """Hermitian 2x2 transform matrix per grid point, in the local
    normalisation of a constant-coefficient background:

        W11 = g lam + |u_zwb|^2/(h eta),  W12 = u_zwb/(h eta),
        W22 = 1/(h eta),                  det W = (g lam)/(h eta).
    """

    w11: np.ndarray
    w12: np.ndarray
    w22: np.ndarray

    def quad(self, va: complex, vb: complex) -> np.ndarray:
        return (
            abs(va) ** 2 * self.w11
            + 2.0 * (va * np.conj(vb) * self.w12).real
            + abs(vb) ** 2 * self.w22
        )

    def det(self) -> np.ndarray:
        return self.w11 * self.w22 - np.abs(self.w12) ** 2


def legendre_w(state: FlowState, bg: Background) -> LegendreW:
    _require_constant_background(bg)
    g0 = float(bg.g.data.flat[0])
    h0 = float(bg.h.data.flat[0])
    lam_loc = g0 * state.lam.data
    eta_loc = h0 * state.eta.data
    u_zwb = deriv_data(state.u.grid, state.u.data, "z wb")
    return LegendreW(
        w11=lam_loc + np.abs(u_zwb) ** 2 / eta_loc,
        w12=u_zwb / eta_loc,
        w22=1.0 / eta_loc,
    )


def det_w_residual(state: FlowState, bg: Background) -> float:
    """det W against the trace ratio recomputed from the potential, so the
    check also validates the coherence of the cached traces."""
    w = legendre_w(state, bg)
    g0 = float(bg.g.data.flat[0])
    h0 = float(bg.h.data.flat[0])
    u_zzb, u_wwb = factor_laplacians(state.u.grid, state.u.data)
    target = (g0 + u_zzb) / (h0 - u_wwb)
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(w.det() - target))) / scale


def _require_constant_background(bg: Background) -> None:
    for name, arr in (("g", bg.g.data), ("h", bg.h.data)):
        if float(arr.max() - arr.min()) > 1e-12 * max(1.0, float(arr.max())):
            raise ConfigurationError(
                f"check requires a constant-coefficient background ({name} varies)"
            )


def c0_series(traj: Trajectory):
    """Per-snapshot sup(1/lambda + 1/eta) and its running max."""
    series = [
        float(np.max(1.0 / s.lam.data + 1.0 / s.eta.data)) for s in traj.snapshots
    ]
    running = list(np.maximum.accumulate(series))
    return series, running


def initial_speed_field(traj: Trajectory) -> np.ndarray:
    """Flow speed frozen at the initial slice; the reference for the
    speed-range check."""
    return traj.snapshots[0].du_dt.data


# ---------------------------------------------------------------------------
# checks


def check_speed_consistency(traj: Trajectory, bg: Background) -> CheckResult:
    """Cached speed equals beta log(lam) - log(eta) at every snapshot."""
    beta = traj.beta
    entries = []
    for s in traj.snapshots:
        expect = beta * np.log(s.lam.data) - np.log(s.eta.data)
        forcing = traj.meta.get("forcing")
        if forcing is not None:
            expect = expect - forcing
        err = float(np.max(np.abs(s.du_dt.data - expect)))
        tol = 1e-13 * (1.0 + float(np.max(np.abs(s.du_dt.data))))
        entries.append(MonitorEntry(s.t, tol, err, tol - err, err <= tol))
    return _finish("speed_consistency", entries)


def check_speed_range(traj: Trajectory, bg: Background) -> CheckResult:
    """Extrema of the speed contract, and the speed stays in the range of
    its initial slice (equivalently the trace comparability
    exp(min G) eta <= lam^beta <= exp(max G) eta holds pointwise)."""
    snaps = traj.snapshots
    if len(snaps) < 2:
        return CheckResult.skip("speed_range", "needs at least two snapshots")
    g0 = initial_speed_field(traj)
    g_min, g_max = float(g0.min()), float(g0.max())
    entries = []
    prev_max = prev_min = None
    for s, dt in zip(snaps, traj.dts):
        cur_max = float(s.du_dt.data.max())
        cur_min = float(s.du_dt.data.min())
        scale = 1.0 + max(abs(cur_max), abs(cur_min))
        mono_tol = MONO_SLACK * scale
        pw_tol = max(1e-10, dt * dt) * (1.0 + max(abs(g_min), abs(g_max)))
        if prev_max is None:
            mono_margin = math.inf
        else:
            mono_margin = min(
                prev_max + mono_tol - cur_max, cur_min - (prev_min - mono_tol)
            )
        pw_margin = min(g_max + pw_tol - cur_max, cur_min - (g_min - pw_tol))
        margin = min(mono_margin, pw_margin)
        entries.append(
            MonitorEntry(s.t, mono_tol, cur_max, margin, margin >= 0.0)
        )
        prev_max, prev_min = cur_max, cur_min
    return _finish("speed_range", entries)


def check_potential_bounds(traj: Trajectory, bg: Background) -> CheckResult:
    """0 <= u <= max u0 along the reduced flow."""
    if not traj.meta.get("reduced", True):
        return CheckResult.skip("potential_bounds", "flow is not in reduced form")
    snaps = traj.snapshots
    max_u0 = float(snaps[0].u.data.max())
    entries = []
    for s, dt in zip(snaps, traj.dts):
        tol = max(1e-10, dt * dt) * (1.0 + max_u0)
        lo = float(s.u.data.min())
        hi = float(s.u.data.max())
        margin = min(lo + tol, max_u0 + tol - hi)
        entries.append(MonitorEntry(s.t, max_u0, hi, margin, margin >= 0.0))
    return _finish("potential_bounds", entries)


def trace_lower_bound_value(
    beta: float,
    g_min: float,
    g_max: float,
    max_u0: float,
    c: float,
    delta_grid=None,
) -> tuple[float, float]:
    """A-priori lower bound for the first trace factor, maximised over the
    free parameter delta in (0, beta).

    For each delta, with A = (1 + (1+delta) c)/(beta - delta), the bound is

        min( (delta exp(-max G))^(1/(1-beta)),
             A / (|min G| - (1-beta)) ) * exp(-A max u0),

    the second branch counting as +inf when |min G| <= 1 - beta.
    """
    if not (0.0 < beta < 1.0):
        raise ConfigurationError("the lower-bound formula needs beta in (0, 1)")
    if delta_grid is None:
        delta_grid = [beta * k / 10.0 for k in range(1, 10)]
    if not delta_grid:
        raise ConfigurationError("empty delta grid")
    best = -math.inf
    best_delta = None
    for delta in delta_grid:
        if not (0.0 < delta < beta):
            raise ConfigurationError(f"delta {delta} outside (0, beta)")
        a_coef = (1.0 + (1.0 + delta) * c) / (beta - delta)
        branch1 = (delta * math.exp(-g_max)) ** (1.0 / (1.0 - beta))
        if abs(g_min) > (1.0 - beta):
            branch2 = a_coef / (abs(g_min) - (1.0 - beta))
        else:
            branch2 = math.inf
        val = min(branch1, branch2) * math.exp(-a_coef * max_u0)
        if val > best:
            best, best_delta = val, delta
    return best, best_delta


def check_trace_lower_bound(
    traj: Trajectory, bg: Background, cr: ConstantsReport, delta_grid=None
) -> CheckResult:
    beta = traj.beta
    if beta >= 1.0:
        return CheckResult.skip(
            "trace_lower_bound", "bound formula degenerates at beta = 1"
        )
    g0 = initial_speed_field(traj)
    max_u0 = float(traj.snapshots[0].u.data.max())
    bound, _ = trace_lower_bound_value(
        beta, float(g0.min()), float(g0.max()), max_u0, cr.c, delta_grid
    )
    entries = []
    for s in traj.snapshots:
        obs = float(s.lam.data.min())
        margin = obs - bound + 1e-12
        entries.append(MonitorEntry(s.t, bound, obs, margin, margin >= 0.0))
    return _finish("trace_lower_bound", entries)


def check_trace_floor(traj: Trajectory, bg: Background,
                      curv: CurvatureReport | None = None) -> CheckResult:
    """min lambda never drops below its initial value, valid when the
    cross-factor curvature components are nonnegative."""
    if curv is None:
        curv = curvature(bg)
    if not curv.mixed_curvature_nonneg:
        return CheckResult.skip(
            "trace_floor", "background curvature sign condition fails"
        )
    snaps = traj.snapshots
    floor0 = float(snaps[0].lam.data.min())
    entries = []
    for s, dt in zip(snaps, traj.dts):
        tol = max(1e-10, dt * dt) * (1.0 + floor0)
        obs = float(s.lam.data.min())
        margin = obs - (floor0 - tol)
        entries.append(MonitorEntry(s.t, floor0, obs, margin, margin >= 0.0))
    return _finish("trace_floor", entries)


def check_mixed_growth(
    traj: Trajectory, bg: Background, cr: ConstantsReport, sups=None
) -> CheckResult:
    """Sup of the adjusted-metric mixed norm grows at most like
    max(1 + c0 a_psi, (sup_0 + c0 a_psi) exp(c11 t)).  sups are the
    per-snapshot sups (mixed_norm_sups), computed here if omitted."""
    if sups is None:
        sups = mixed_norm_sups(traj, bg)
    shift = cr.c0 * cr.a_psi
    sup0 = sups[0]
    entries = []
    for s, obs in zip(traj.snapshots, sups):
        expo = min(cr.c11 * s.t, 700.0)
        bound = max(1.0 + shift, (sup0 + shift) * math.exp(expo))
        tol = 1e-8 * (1.0 + bound)
        margin = bound + tol - obs
        entries.append(MonitorEntry(s.t, bound, obs, margin, margin >= 0.0))
    return _finish("mixed_growth", entries)


def check_trace_growth(
    traj: Trajectory, bg: Background, cr: ConstantsReport, sups=None
) -> CheckResult:
    """max lambda grows at most doubly exponentially:
    log max lam(t) <= log max lam(0) + (b sup_0 + a c0) exp(c14 t).
    sup_0 is taken from sups (mixed_norm_sups) when given."""
    beta = traj.beta
    if beta <= BETA_MIN:
        return CheckResult.skip(
            "trace_growth", "beta at or below the universal threshold"
        )
    if cr.c14 is None:
        return CheckResult.skip("trace_growth", "upper-bound constants unavailable")
    snaps = traj.snapshots
    if sups is not None:
        sup0 = sups[0]
    else:
        sup0 = float(np.max(mixed_norm(snaps[0], bg, beta).data))
    log_lam0 = math.log(float(snaps[0].lam.data.max()))
    coef = cr.b_phi * sup0 + cr.a_phi * cr.c0
    entries = []
    for s in snaps:
        expo = min(cr.c14 * s.t, 700.0)
        log_bound = log_lam0 + coef * math.exp(expo)
        obs = math.log(float(s.lam.data.max()))
        tol = 1e-8 * (1.0 + abs(log_bound)) if math.isfinite(log_bound) else 0.0
        margin = log_bound + tol - obs
        entries.append(MonitorEntry(s.t, log_bound, obs, margin, margin >= 0.0))
    return _finish("trace_growth", entries)


def check_split_preserved(traj: Trajectory, bg: Background,
                          tol: float = 1e-10) -> CheckResult:
    """Split initial data keeps a vanishing mixed derivative."""
    if not traj.meta.get("split_initial", False):
        return CheckResult.skip("split_preserved", "initial data is not split")
    entries = []
    for s in traj.snapshots:
        u_zw = deriv_data(s.u.grid, s.u.data, "z w")
        obs = float(np.max(np.abs(u_zw)))
        entries.append(MonitorEntry(s.t, tol, obs, tol - obs, obs <= tol))
    return _finish("split_preserved", entries)


# ---------------------------------------------------------------------------
# finite-difference heat-operator checks on snapshot triples


def _centered_dt(fm, f0, fp, hm, hp):
    wm = -hp / (hm * (hm + hp))
    wp = hm / (hp * (hm + hp))
    w0 = (hp - hm) / (hm * hp)
    return wm * fm + w0 * f0 + wp * fp


def _apply_linearized(field_arr, state: FlowState, bg: Background, beta: float):
    d_z, d_w = factor_laplacians(state.u.grid, field_arr)
    return (beta / (bg.g.data * state.lam.data)) * d_z + (
        1.0 / (bg.h.data * state.eta.data)
    ) * d_w


def check_legendre_subsolution(
    traj: Trajectory, bg: Background, vectors=None, fd_coef: float = 1.0
) -> CheckResult:
    """Every direction pairing of the transform matrix is a heat
    subsolution: the finite-difference heat operator applied to W(v, vbar)
    is nonpositive up to discretisation tolerance.  Needs a
    constant-coefficient background and at least three snapshots."""
    try:
        _require_constant_background(bg)
    except ConfigurationError as exc:
        return CheckResult.skip("legendre_subsolution", str(exc))
    snaps = traj.snapshots
    if len(snaps) < 3:
        return CheckResult.skip("legendre_subsolution", "needs >= 3 snapshots")
    if vectors is None:
        vectors = [(1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2))]
    beta = traj.beta
    ws = [legendre_w(s, bg) for s in snaps]
    entries = []
    for i in range(1, len(snaps) - 1):
        hm = snaps[i].t - snaps[i - 1].t
        hp = snaps[i + 1].t - snaps[i].t
        dt_snap = max(hm, hp)
        worst = -math.inf
        tol = FD_FLOOR
        for va, vb in vectors:
            qm = ws[i - 1].quad(va, vb)
            q0 = ws[i].quad(va, vb)
            qp = ws[i + 1].quad(va, vb)
            dqdt = _centered_dt(qm, q0, qp, hm, hp)
            hw = dqdt - _apply_linearized(q0, snaps[i], bg, beta)
            scale = 1.0 + float(np.max(np.abs(q0)))
            tol = max(FD_FLOOR, fd_coef * dt_snap * dt_snap) * scale
            worst = max(worst, float(np.max(hw)))
        entries.append(
            MonitorEntry(snaps[i].t, tol, worst, tol - worst, worst <= tol)
        )
    return _finish("legendre_subsolution", entries)


def check_det_w(traj: Trajectory, bg: Background, tol: float = 1e-12) -> CheckResult:
    """det W = (g lam)/(h eta) at every snapshot (algebraic identity)."""
    try:
        _require_constant_background(bg)
    except ConfigurationError as exc:
        return CheckResult.skip("det_w", str(exc))
    entries = []
    for s in traj.snapshots:
        r = det_w_residual(s, bg)
        entries.append(MonitorEntry(s.t, tol, r, tol - r, r <= tol))
    return _finish("det_w", entries)


def _phi_field(state: FlowState, bg: Background, beta: float, cr: ConstantsReport):
    mixed = mixed_norm(state, bg, beta).data
    return (
        np.log(state.lam.data)
        + cr.a_phi * (1.0 / state.lam.data + 1.0 / state.eta.data)
        + cr.b_phi * mixed
    )


def check_phi_subsolution(
    traj: Trajectory, bg: Background, cr: ConstantsReport, fd_coef: float = 1.0
) -> CheckResult:
    """The composite test function Phi = log lam + a(1/lam + 1/eta) +
    b |mixed|^2 satisfies H Phi <= c14 max(Phi, 1) pointwise.

    The max(Phi, 1) guard reflects how the growth estimate is applied: the
    linear-growth inequality is used where the test function is large;
    below level one the absolute constant c14 itself bounds the source.
    The unguarded form H Phi <= c14 Phi is violated by exact solutions
    wherever Phi < 0 (e.g. split data with lam < 1 has H Phi = 0 > c14 Phi),
    so it is not a usable runtime check.
    """
    beta = traj.beta
    if beta <= BETA_MIN:
        return CheckResult.skip(
            "phi_subsolution", "beta at or below the universal threshold"
        )
    if cr.c14 is None:
        return CheckResult.skip("phi_subsolution", "upper-bound constants unavailable")
    snaps = traj.snapshots
    if len(snaps) < 3:
        return CheckResult.skip("phi_subsolution", "needs >= 3 snapshots")
    phis = [_phi_field(s, bg, beta, cr) for s in snaps]
    entries = []
    for i in range(1, len(snaps) - 1):
        hm = snaps[i].t - snaps[i - 1].t
        hp = snaps[i + 1].t - snaps[i].t
        dt_snap = max(hm, hp)
        dphi = _centered_dt(phis[i - 1], phis[i], phis[i + 1], hm, hp)
        h_phi = dphi - _apply_linearized(phis[i], snaps[i], bg, beta)
        rhs = cr.c14 * np.maximum(phis[i], 1.0)
        scale = 1.0 + float(np.max(np.abs(phis[i])))
        tol = max(FD_FLOOR, fd_coef * dt_snap * dt_snap) * scale
        worst = float(np.max(h_phi - rhs))
        entries.append(
            MonitorEntry(snaps[i].t, tol, worst, tol - worst, worst <= tol)
        )
    return _finish("phi_subsolution", entries)


# ---------------------------------------------------------------------------
# suite evaluation


DEFAULT_CHECKS = (
    "speed_consistency",
    "speed_range",
    "potential_bounds",
    "trace_lower_bound",
    "trace_floor",
    "mixed_growth",
    "trace_growth",
    "split_preserved",
)

OPTIONAL_CHECKS = ("legendre_subsolution", "det_w", "phi_subsolution")


def evaluate(
    traj: Trajectory,
    bg: Background,
    enabled=None,
    constants_report: ConstantsReport | None = None,
    safety: float = 1.0,
    sups: list[float] | None = None,
) -> dict[str, CheckResult]:
    """Run the requested checks over a trajectory.

    The constants report is assembled from the trajectory's own observed
    trace bound sup(1/lambda + 1/eta) unless one is supplied.  sups are
    the per-snapshot mixed-norm sups of this trajectory (mixed_norm_sups);
    they and the background curvature are computed at most once here.
    """
    enabled = list(enabled) if enabled is not None else list(DEFAULT_CHECKS)
    curv = None
    if constants_report is None or "trace_floor" in enabled:
        curv = curvature(bg)
    if sups is None and {"mixed_growth", "trace_growth"} & set(enabled):
        sups = mixed_norm_sups(traj, bg)
    elif sups is not None and len(sups) != len(traj.snapshots):
        raise ConfigurationError("sups needs one value per snapshot")
    if constants_report is None:
        _, running = c0_series(traj)
        c0 = running[-1]
        constants_report = constants(
            bg, traj.beta, c0=c0, safety=safety,
            require_upper=False, curv=curv,
        )
    cr = constants_report
    out: dict[str, CheckResult] = {}
    for name in enabled:
        if name == "speed_consistency":
            out[name] = check_speed_consistency(traj, bg)
        elif name == "speed_range":
            out[name] = check_speed_range(traj, bg)
        elif name == "potential_bounds":
            out[name] = check_potential_bounds(traj, bg)
        elif name == "trace_lower_bound":
            out[name] = check_trace_lower_bound(traj, bg, cr)
        elif name == "trace_floor":
            out[name] = check_trace_floor(traj, bg, curv)
        elif name == "mixed_growth":
            out[name] = check_mixed_growth(traj, bg, cr, sups)
        elif name == "trace_growth":
            out[name] = check_trace_growth(traj, bg, cr, sups)
        elif name == "split_preserved":
            out[name] = check_split_preserved(traj, bg)
        elif name == "legendre_subsolution":
            out[name] = check_legendre_subsolution(traj, bg)
        elif name == "det_w":
            out[name] = check_det_w(traj, bg)
        elif name == "phi_subsolution":
            out[name] = check_phi_subsolution(traj, bg, cr)
        else:
            raise ConfigurationError(f"unknown check {name!r}")
    return out


# ---------------------------------------------------------------------------
# negative controls


def corrupt_trajectory(traj: Trajectory, check: str) -> Trajectory:
    """Deep-copied trajectory with a deliberate violation of one check."""
    t = copy.deepcopy(traj)
    snaps = t.snapshots
    if len(snaps) < 3:
        raise ConfigurationError("corruption fixtures need >= 3 snapshots")
    grid = t.grid
    x1, _, x3, _ = grid.mesh()
    nonsplit = 0.2 * np.sin(2 * np.pi * x1 / grid.periods[0]) * np.sin(
        2 * np.pi * x3 / grid.periods[2]
    ) * np.ones(grid.shape)
    mid = len(snaps) // 2
    if check == "speed_consistency":
        snaps[mid].du_dt.data += 1.0
    elif check == "speed_range":
        snaps[mid].du_dt.data += 1.0 + float(np.max(np.abs(snaps[0].du_dt.data)))
    elif check == "potential_bounds":
        snaps[mid].u.data += float(snaps[0].u.data.max()) + 1.0
    elif check == "trace_lower_bound":
        snaps[mid].lam.data *= 1e-4
    elif check == "trace_floor":
        snaps[mid].lam.data *= 0.5
    elif check == "mixed_growth":
        # early injection: the growth envelope is still near its t = 0 level
        snaps[1].u.data += nonsplit
    elif check == "trace_growth":
        snaps[1].lam.data *= 10.0
    elif check == "split_preserved":
        snaps[mid].u.data += nonsplit
    elif check == "legendre_subsolution":
        snaps[-1].u.data *= 3.0
        snaps[-1].lam.data = 1.0 + 2.0 * (snaps[-1].lam.data - 1.0)
    elif check == "det_w":
        snaps[mid].lam.data *= 1.3
    elif check == "phi_subsolution":
        snaps[-1].lam.data *= 100.0
    else:
        raise ConfigurationError(f"no corruption fixture for check {check!r}")
    return t
