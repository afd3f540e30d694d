"""Executable forms of the a-priori estimates, evaluated along
trajectories.

Each check is a pure function of trajectory data and a constants report:
re-running a check on the same trajectory gives identical results.  The
registry CHECKS is the one list of checks: for each it holds how evaluate
runs it, whether it runs by default, and the negative-control corruption
(applied by corrupt_trajectory) that makes it fail, so a passing suite is
evidence the checks can actually bite.

The field work of the checks is one pass over the snapshots
(snapshot_pass).  At each snapshot it transforms u once: with a W check on
a constant-coefficient background, one fftn gives both u_zw and u_zwb
(two ifftn) and is freed at once; otherwise one deriv_data call gives
u_zw.  It takes sup|u_zw| (split_preserved) and builds the mixed-norm
field once (its sup serves mixed_growth, trace_growth and the run recipe's
sup_mixed_norm column; the field itself is the b term of Phi), W once
(its det residual, and one quad per direction vector) and Phi once.
The centred time differences of legendre_subsolution and phi_subsolution
need only the last three snapshots, so the pass keeps a 3-snapshot window
of quads and Phi and emits scalars; its memory does not grow with the
number of snapshots.
MonitorInputs runs the pass at most once per evaluate, for the enabled
checks only; a check called on its own runs the pass for itself.

Bound tolerances absorb time discretisation: monotonicity comparisons use
a fixed relative slack, pointwise comparisons scale with the square of
the local step or snapshot spacing.
"""

from __future__ import annotations

import copy
import math
from collections import deque, namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from operator import iadd, imul

import numpy as np

from . import _backend as fft
from .errors import ConfigurationError
from .geometry import (BETA_MIN, Background, ConstantsReport, CurvatureReport,
                       constants, curvature)
from .grid_field import RealField, deriv_data, factor_laplacians
from .flow import FlowState, Trajectory

MONO_SLACK = 1e-8           # relative slack for monotone scalar series
FD_FLOOR = 1e-6             # floor of the finite-difference tolerances
# direction vectors (v_z, v_w) whose W quads legendre_subsolution tests
W_VECTORS = ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)))


@dataclass
class MonitorEntry:
    t: float
    bound: float
    observed: float
    margin: float
    passed: bool
    index: int              # the snapshot the entry belongs to


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


def _mixed_field(u_zw: np.ndarray, state: FlowState, bg: Background,
                 beta: float) -> np.ndarray:
    return beta * np.abs(u_zw) ** 2 / (
        bg.g.data * state.lam.data * bg.h.data * state.eta.data
    )


def mixed_norm(state: FlowState, bg: Background, beta: float) -> RealField:
    """Squared norm of the mixed second derivative in the adjusted metric:
    beta |u_zw|^2 / (g lam h eta)."""
    u_zw = deriv_data(state.u.grid, state.u.data, "z w")
    return RealField(state.u.grid, _mixed_field(u_zw, state, bg, beta))


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


def legendre_w(state: FlowState, bg: Background,
               u_zwb: np.ndarray | None = None) -> LegendreW:
    """W of one snapshot; u_zwb is the potential's u_zwb when the caller
    already has it."""
    reason = _background_varies(bg)
    if reason is not None:
        raise ConfigurationError(reason)
    g0 = float(bg.g.data.flat[0])
    h0 = float(bg.h.data.flat[0])
    lam_loc = g0 * state.lam.data
    eta_loc = h0 * state.eta.data
    if u_zwb is None:
        u_zwb = deriv_data(state.u.grid, state.u.data, "z wb")
    return LegendreW(
        w11=lam_loc + np.abs(u_zwb) ** 2 / eta_loc,
        w12=u_zwb / eta_loc,
        w22=1.0 / eta_loc,
    )


def det_w_residual(state: FlowState, bg: Background,
                   w: LegendreW | None = None) -> float:
    """det W against the trace ratio recomputed from the potential, so the
    check also validates the coherence of the cached traces.  w is the
    snapshot's W when the caller already has it."""
    if w is None:
        w = legendre_w(state, bg)
    g0 = float(bg.g.data.flat[0])
    h0 = float(bg.h.data.flat[0])
    u_zzb, u_wwb = factor_laplacians(state.u.grid, state.u.data)
    target = (g0 + u_zzb) / (h0 - u_wwb)
    scale = max(1.0, float(np.max(np.abs(target))))
    return float(np.max(np.abs(w.det() - target))) / scale


def _background_varies(bg: Background) -> str | None:
    """Why bg is not constant-coefficient, or None when it is."""
    for name, arr in (("g", bg.g.data), ("h", bg.h.data)):
        if float(arr.max() - arr.min()) > 1e-12 * max(1.0, float(arr.max())):
            return (f"check requires a constant-coefficient background "
                    f"({name} varies)")
    return None


def _upper_bound_skip(beta: float, cr: ConstantsReport) -> str | None:
    """Why the upper-bound estimates (trace_growth, phi_subsolution) do
    not apply, or None when they do."""
    if beta <= BETA_MIN:
        return "beta at or below the universal threshold"
    if cr.c14 is None:
        return "upper-bound constants unavailable"
    return None


def c0_series(states: list[FlowState]):
    """Per-state sup(1/lambda + 1/eta) and its running max."""
    series = [float(np.max(1.0 / s.lam.data + 1.0 / s.eta.data)) for s in states]
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
    for i, s in enumerate(traj.snapshots):
        expect = beta * np.log(s.lam.data) - np.log(s.eta.data)
        forcing = traj.meta.get("forcing")
        if forcing is not None:
            expect = expect - forcing
        err = float(np.max(np.abs(s.du_dt.data - expect)))
        tol = 1e-13 * (1.0 + float(np.max(np.abs(s.du_dt.data))))
        entries.append(MonitorEntry(s.t, tol, err, tol - err, err <= tol, i))
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
    for i, (s, dt) in enumerate(zip(snaps, traj.dts)):
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
            MonitorEntry(s.t, mono_tol, cur_max, margin, margin >= 0.0, i)
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
    for i, (s, dt) in enumerate(zip(snaps, traj.dts)):
        tol = max(1e-10, dt * dt) * (1.0 + max_u0)
        lo = float(s.u.data.min())
        hi = float(s.u.data.max())
        margin = min(lo + tol, max_u0 + tol - hi)
        entries.append(MonitorEntry(s.t, max_u0, hi, margin, margin >= 0.0, i))
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
    for i, s in enumerate(traj.snapshots):
        obs = float(s.lam.data.min())
        margin = obs - bound + 1e-12
        entries.append(MonitorEntry(s.t, bound, obs, margin, margin >= 0.0, i))
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
    for i, (s, dt) in enumerate(zip(snaps, traj.dts)):
        tol = max(1e-10, dt * dt) * (1.0 + floor0)
        obs = float(s.lam.data.min())
        margin = obs - (floor0 - tol)
        entries.append(MonitorEntry(s.t, floor0, obs, margin, margin >= 0.0, i))
    return _finish("trace_floor", entries)


def check_mixed_growth(
    traj: Trajectory, bg: Background, cr: ConstantsReport, sups=None
) -> CheckResult:
    """Sup of the adjusted-metric mixed norm grows at most like
    max(1 + c0 a_psi, (sup_0 + c0 a_psi) exp(c11 t)).  sups are the
    per-snapshot sups (SnapshotPass.sups), computed here if omitted."""
    if sups is None:
        sups = snapshot_pass(traj, bg).sups
    shift = cr.c0 * cr.a_psi
    sup0 = sups[0]
    entries = []
    for i, (s, obs) in enumerate(zip(traj.snapshots, sups)):
        expo = min(cr.c11 * s.t, 700.0)
        bound = max(1.0 + shift, (sup0 + shift) * math.exp(expo))
        tol = 1e-8 * (1.0 + bound)
        margin = bound + tol - obs
        entries.append(MonitorEntry(s.t, bound, obs, margin, margin >= 0.0, i))
    return _finish("mixed_growth", entries)


def check_trace_growth(
    traj: Trajectory, bg: Background, cr: ConstantsReport, sups=None
) -> CheckResult:
    """max lambda grows at most doubly exponentially:
    log max lam(t) <= log max lam(0) + (b sup_0 + a c0) exp(c14 t).
    sup_0 is taken from sups (SnapshotPass.sups) when given."""
    beta = traj.beta
    reason = _upper_bound_skip(beta, cr)
    if reason is not None:
        return CheckResult.skip("trace_growth", reason)
    snaps = traj.snapshots
    if sups is not None:
        sup0 = sups[0]
    else:
        sup0 = float(np.max(mixed_norm(snaps[0], bg, beta).data))
    log_lam0 = math.log(float(snaps[0].lam.data.max()))
    coef = cr.b_phi * sup0 + cr.a_phi * cr.c0
    entries = []
    for i, s in enumerate(snaps):
        expo = min(cr.c14 * s.t, 700.0)
        log_bound = log_lam0 + coef * math.exp(expo)
        obs = math.log(float(s.lam.data.max()))
        tol = 1e-8 * (1.0 + abs(log_bound)) if math.isfinite(log_bound) else 0.0
        margin = log_bound + tol - obs
        entries.append(MonitorEntry(s.t, log_bound, obs, margin, margin >= 0.0,
                                    i))
    return _finish("trace_growth", entries)


def check_split_preserved(traj: Trajectory, bg: Background,
                          tol: float = 1e-10,
                          sweep: SnapshotPass | None = None) -> CheckResult:
    """Split initial data keeps a vanishing mixed derivative.  sweep is
    this trajectory's snapshot_pass with split_preserved among its checks;
    computed here if omitted."""
    if not traj.meta.get("split_initial", False):
        return CheckResult.skip("split_preserved", "initial data is not split")
    if sweep is None:
        sweep = snapshot_pass(traj, bg, ("split_preserved",), sups=False)
    entries = [MonitorEntry(s.t, tol, obs, tol - obs, obs <= tol, i)
               for i, (s, obs) in enumerate(zip(traj.snapshots, sweep.zw))]
    return _finish("split_preserved", entries)


# ---------------------------------------------------------------------------
# the snapshot pass and the finite-difference heat-operator checks


@dataclass
class SnapshotPass:
    """Scalars of one pass over a trajectory's snapshots (snapshot_pass);
    a part the pass was not asked for is None.

    sups: sup of the mixed norm, per snapshot.
    zw: sup|u_zw|, per snapshot (split_preserved, on split initial data).
    det_w: det W residual (det_w_residual), per snapshot.
    legendre: (i, dt_snap, [(scale, worst) per direction vector]) per
        interior snapshot i.
    phi: (i, dt_snap, scale, worst) per interior snapshot i.

    worst is the sup of the finite-difference heat residual (minus the
    c14 source for phi), scale is 1 + sup|field| of the tested field.
    """

    sups: list[float] | None = None
    zw: list[float] | None = None
    det_w: list[float] | None = None
    legendre: list | None = None
    phi: list | None = None


def _centered_dt(fm, f0, fp, hm, hp):
    wm = -hp / (hm * (hm + hp))
    wp = hm / (hp * (hm + hp))
    w0 = (hp - hm) / (hm * hp)
    return wm * fm + w0 * f0 + wp * fp


def snapshot_pass(traj: Trajectory, bg: Background, checks=(),
                  cr: ConstantsReport | None = None,
                  sups: bool = True) -> SnapshotPass:
    """One pass over the snapshots computing the field scalars of the
    named checks: split_preserved (on split initial data), det_w and
    legendre_subsolution (on a constant-coefficient background),
    phi_subsolution (needs cr), and with sups the per-snapshot mixed-norm
    sups."""
    beta = traj.beta
    constant = _background_varies(bg) is None
    do_zw = "split_preserved" in checks and traj.meta.get("split_initial")
    do_det = constant and "det_w" in checks
    do_leg = constant and "legendre_subsolution" in checks
    do_phi = ("phi_subsolution" in checks and cr is not None
              and _upper_bound_skip(beta, cr) is None)
    want_mixed = sups or do_phi
    out = SnapshotPass(
        sups=[] if sups else None, zw=[] if do_zw else None,
        det_w=[] if do_det else None, legendre=[] if do_leg else None,
        phi=[] if do_phi else None)
    window = deque(maxlen=3)        # (i, state, quads, phi)
    for i, s in enumerate(traj.snapshots):
        grid = s.u.grid
        mixed = u_zw = quads = phi = None
        hat = fft.fftn(s.u.data) if do_det or do_leg else None
        if hat is not None:
            if want_mixed or do_zw:
                u_zw = fft.ifftn(grid.apply_multiplier(hat, "z w"))
        elif do_zw:
            u_zw = deriv_data(grid, s.u.data, "z w")
        elif want_mixed:
            mixed = mixed_norm(s, bg, beta).data
        if u_zw is not None and want_mixed:
            mixed = _mixed_field(u_zw, s, bg, beta)
        if do_zw:
            out.zw.append(float(np.max(np.abs(u_zw))))
        del u_zw            # before u_zwb: one complex field less at peak
        if sups:
            out.sups.append(float(np.max(mixed)))
        if hat is not None:
            u_zwb = fft.ifftn(grid.apply_multiplier(hat, "z wb"))
            del hat
            w = legendre_w(s, bg, u_zwb)
            del u_zwb
            if do_det:
                out.det_w.append(det_w_residual(s, bg, w))
            if do_leg:
                quads = [w.quad(va, vb) for va, vb in W_VECTORS]
            del w
        if do_phi:
            phi = (
                np.log(s.lam.data)
                + cr.a_phi * (1.0 / s.lam.data + 1.0 / s.eta.data)
                + cr.b_phi * mixed
            )
        del mixed
        window.append((i, s, quads, phi))
        if len(window) == 3 and (do_leg or do_phi):
            _interior(window, bg, beta, cr, out)
    return out


def _interior(window, bg: Background, beta: float, cr, out: SnapshotPass):
    """The finite-difference scalars of the middle snapshot of window."""
    (_, sm, qm, pm), (i, s0, q0, p0), (_, sp, qp, pp) = window
    hm = s0.t - sm.t
    hp = sp.t - s0.t
    dt_snap = max(hm, hp)
    coef_z = beta / (bg.g.data * s0.lam.data)
    coef_w = 1.0 / (bg.h.data * s0.eta.data)

    def heat(fm, f0, fp):
        """Centred d/dt minus the linearised operator at the middle
        snapshot."""
        d_z, d_w = factor_laplacians(s0.u.grid, f0)
        return _centered_dt(fm, f0, fp, hm, hp) - (coef_z * d_z
                                                   + coef_w * d_w)

    if out.legendre is not None:
        out.legendre.append((i, dt_snap, [
            (1.0 + float(np.max(np.abs(b))), float(np.max(heat(a, b, c))))
            for a, b, c in zip(qm, q0, qp)]))
    if out.phi is not None:
        h_phi = heat(pm, p0, pp)
        rhs = cr.c14 * np.maximum(p0, 1.0)
        out.phi.append((i, dt_snap, 1.0 + float(np.max(np.abs(p0))),
                        float(np.max(h_phi - rhs))))


def check_legendre_subsolution(
    traj: Trajectory, bg: Background, fd_coef: float = 1.0,
    sweep: SnapshotPass | None = None,
) -> CheckResult:
    """Every direction pairing of the transform matrix is a heat
    subsolution: the finite-difference heat operator applied to W(v, vbar),
    for each v in W_VECTORS, is nonpositive up to discretisation
    tolerance, each vector against its own tolerance (which scales with
    that quad's size); an entry reports the vector with the least margin.
    Needs a constant-coefficient background and at least three snapshots.
    sweep is this trajectory's snapshot_pass with legendre_subsolution
    among its checks; computed here if omitted."""
    reason = _background_varies(bg)
    if reason is not None:
        return CheckResult.skip("legendre_subsolution", reason)
    snaps = traj.snapshots
    if len(snaps) < 3:
        return CheckResult.skip("legendre_subsolution", "needs >= 3 snapshots")
    if sweep is None:
        sweep = snapshot_pass(traj, bg, ("legendre_subsolution",), sups=False)
    entries = []
    for i, dt_snap, per_vector in sweep.legendre:
        fd_tol = max(FD_FLOOR, fd_coef * dt_snap * dt_snap)
        tols = [(fd_tol * scale, worst) for scale, worst in per_vector]
        tol, worst = min(tols, key=lambda p: p[0] - p[1])
        passed = all(w <= t for t, w in tols)
        entries.append(
            MonitorEntry(snaps[i].t, tol, worst, tol - worst, passed, i)
        )
    return _finish("legendre_subsolution", entries)


def check_det_w(traj: Trajectory, bg: Background, tol: float = 1e-12,
                sweep: SnapshotPass | None = None) -> CheckResult:
    """det W = (g lam)/(h eta) at every snapshot (algebraic identity).
    sweep is this trajectory's snapshot_pass with det_w among its checks;
    computed here if omitted."""
    reason = _background_varies(bg)
    if reason is not None:
        return CheckResult.skip("det_w", reason)
    if sweep is None:
        sweep = snapshot_pass(traj, bg, ("det_w",), sups=False)
    entries = [MonitorEntry(s.t, tol, r, tol - r, r <= tol, i)
               for i, (s, r) in enumerate(zip(traj.snapshots, sweep.det_w))]
    return _finish("det_w", entries)


def check_phi_subsolution(
    traj: Trajectory, bg: Background, cr: ConstantsReport,
    fd_coef: float = 1.0, sweep: SnapshotPass | None = None,
) -> CheckResult:
    """The composite test function Phi = log lam + a(1/lam + 1/eta) +
    b |mixed|^2 satisfies H Phi <= c14 max(Phi, 1) pointwise.

    The max(Phi, 1) guard reflects how the growth estimate is applied: the
    linear-growth inequality is used where the test function is large;
    below level one the absolute constant c14 itself bounds the source.
    The unguarded form H Phi <= c14 Phi is violated by exact solutions
    wherever Phi < 0 (e.g. split data with lam < 1 has H Phi = 0 > c14 Phi),
    so it is not a usable runtime check.  sweep is this trajectory's
    snapshot_pass with phi_subsolution among its checks and the same cr;
    computed here if omitted.
    """
    reason = _upper_bound_skip(traj.beta, cr)
    if reason is not None:
        return CheckResult.skip("phi_subsolution", reason)
    snaps = traj.snapshots
    if len(snaps) < 3:
        return CheckResult.skip("phi_subsolution", "needs >= 3 snapshots")
    if sweep is None:
        sweep = snapshot_pass(traj, bg, ("phi_subsolution",), cr, sups=False)
    entries = []
    for i, dt_snap, scale, worst in sweep.phi:
        tol = max(FD_FLOOR, fd_coef * dt_snap * dt_snap) * scale
        entries.append(
            MonitorEntry(snaps[i].t, tol, worst, tol - worst, worst <= tol, i)
        )
    return _finish("phi_subsolution", entries)


# ---------------------------------------------------------------------------
# per-call inputs, negative-control helpers and the check registry


class MonitorInputs:
    """What the checks of one evaluate call share, each computed on first
    use and at most once: the c0 series, the background curvature, the
    constants report, and the snapshot pass for the enabled checks, which
    also yields the mixed-norm sups unless they are supplied.  A recipe
    that reads the sups or the c0 series itself builds one and hands it to
    evaluate.  Never stored on the trajectory, which corrupt_trajectory
    deep-copies."""

    def __init__(self, traj: Trajectory, bg: Background, enabled=None,
                 safety: float = 1.0,
                 constants_report: ConstantsReport | None = None,
                 sups: list[float] | None = None):
        self.traj, self.bg, self.safety = traj, bg, safety
        self.enabled = list(DEFAULT_CHECKS if enabled is None else enabled)
        for name in self.enabled:
            if name not in CHECKS:
                raise ConfigurationError(f"unknown check {name!r}")
        self._sups_given = sups is not None
        if sups is not None:
            if len(sups) != len(traj.snapshots):
                raise ConfigurationError("sups needs one value per snapshot")
            self.sups = sups
        if constants_report is not None:
            self.cr = constants_report

    @cached_property
    def c0(self) -> tuple[list[float], list[float]]:
        """c0_series of the trajectory: per snapshot, and its running max."""
        return c0_series(self.traj.snapshots)

    @cached_property
    def curv(self) -> CurvatureReport:
        return curvature(self.bg)

    @cached_property
    def cr(self) -> ConstantsReport:
        return constants(self.bg, self.traj.beta, c0=self.c0[1][-1],
                         safety=self.safety, require_upper=False,
                         curv=self.curv)

    @cached_property
    def sweep(self) -> SnapshotPass:
        cr = self.cr if "phi_subsolution" in self.enabled else None
        return snapshot_pass(self.traj, self.bg, self.enabled, cr,
                             sups=not self._sups_given)

    @cached_property
    def sups(self) -> list[float]:
        return self.sweep.sups


def _nonsplit(grid) -> np.ndarray:
    x1, _, x3, _ = grid.mesh()
    return 0.2 * np.sin(2 * np.pi * x1 / grid.periods[0]) * np.sin(
        2 * np.pi * x3 / grid.periods[2]
    ) * np.ones(grid.shape)


def _stretch_last(snaps: list[FlowState], mid: int) -> None:
    snaps[-1].u.data *= 3.0
    snaps[-1].lam.data = 1.0 + 2.0 * (snaps[-1].lam.data - 1.0)


# The one list of checks, read by evaluate, corrupt_trajectory,
# DEFAULT_CHECKS, OPTIONAL_CHECKS and the recipes' monitor selection.
# run(traj, bg, inputs) looks check_<name> up at call time, so a rebound
# (e.g. traced) name is the one called; corrupt(snaps, mid) injects the
# negative control's violation in place.
Check = namedtuple("Check", "run default_on corrupt")
CHECKS: dict[str, Check] = {
    "speed_consistency": Check(
        lambda tr, bg, x: check_speed_consistency(tr, bg), True,
        lambda s, m: iadd(s[m].du_dt.data, 1.0)),
    "speed_range": Check(
        lambda tr, bg, x: check_speed_range(tr, bg), True,
        lambda s, m: iadd(s[m].du_dt.data,
                          1.0 + float(np.max(np.abs(s[0].du_dt.data))))),
    "potential_bounds": Check(
        lambda tr, bg, x: check_potential_bounds(tr, bg), True,
        lambda s, m: iadd(s[m].u.data, float(s[0].u.data.max()) + 1.0)),
    "trace_lower_bound": Check(
        lambda tr, bg, x: check_trace_lower_bound(tr, bg, x.cr), True,
        lambda s, m: imul(s[m].lam.data, 1e-4)),
    "trace_floor": Check(
        lambda tr, bg, x: check_trace_floor(tr, bg, x.curv), True,
        lambda s, m: imul(s[m].lam.data, 0.5)),
    # early injection: the growth envelope is still near its t = 0 level
    "mixed_growth": Check(
        lambda tr, bg, x: check_mixed_growth(tr, bg, x.cr, x.sups), True,
        lambda s, m: iadd(s[1].u.data, _nonsplit(s[1].u.grid))),
    "trace_growth": Check(
        lambda tr, bg, x: check_trace_growth(tr, bg, x.cr, x.sups), True,
        lambda s, m: imul(s[1].lam.data, 10.0)),
    "split_preserved": Check(
        lambda tr, bg, x: check_split_preserved(tr, bg, sweep=x.sweep), True,
        lambda s, m: iadd(s[m].u.data, _nonsplit(s[m].u.grid))),
    "legendre_subsolution": Check(
        lambda tr, bg, x: check_legendre_subsolution(tr, bg, sweep=x.sweep),
        False,
        _stretch_last),
    "det_w": Check(
        lambda tr, bg, x: check_det_w(tr, bg, sweep=x.sweep), False,
        lambda s, m: imul(s[m].lam.data, 1.3)),
    "phi_subsolution": Check(
        lambda tr, bg, x: check_phi_subsolution(tr, bg, x.cr,
                                                sweep=x.sweep), False,
        lambda s, m: imul(s[-1].lam.data, 100.0)),
}

DEFAULT_CHECKS = tuple(n for n, c in CHECKS.items() if c.default_on)
OPTIONAL_CHECKS = tuple(n for n, c in CHECKS.items() if not c.default_on)


# ---------------------------------------------------------------------------
# suite evaluation and negative controls


def evaluate(
    traj: Trajectory,
    bg: Background,
    enabled=None,
    constants_report: ConstantsReport | None = None,
    safety: float = 1.0,
    sups: list[float] | None = None,
    inputs: MonitorInputs | None = None,
) -> dict[str, CheckResult]:
    """Run the requested checks over a trajectory.

    The constants report is assembled from the trajectory's own observed
    trace bound sup(1/lambda + 1/eta) unless one is supplied.  sups are
    the per-snapshot mixed-norm sups of this trajectory (SnapshotPass.sups);
    they, the background curvature and the snapshot pass are computed at
    most once here.  inputs, a MonitorInputs of this trajectory and
    background, takes the place of enabled, constants_report, safety and
    sups.
    """
    if inputs is None:
        inputs = MonitorInputs(traj, bg, enabled, safety, constants_report,
                               sups)
    elif inputs.traj is not traj or inputs.bg is not bg:
        raise ConfigurationError("inputs belong to another trajectory")
    return {name: CHECKS[name].run(traj, bg, inputs)
            for name in inputs.enabled}


def corrupt_trajectory(traj: Trajectory, check: str) -> Trajectory:
    """Deep-copied trajectory with a deliberate violation of one check."""
    t = copy.deepcopy(traj)
    snaps = t.snapshots
    if len(snaps) < 3:
        raise ConfigurationError("corruption fixtures need >= 3 snapshots")
    if check not in CHECKS:
        raise ConfigurationError(f"no corruption fixture for check {check!r}")
    CHECKS[check].corrupt(snaps, len(snaps) // 2)
    return t
