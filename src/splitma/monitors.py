"""Executable forms of the a-priori estimates, evaluated along
trajectories.

A run's kept states stream through one consumer, MonitorStream, at the
moment flow.run keeps them (its keep callback).  The stream does each
state's field work at once and keeps one scalar record per state
(SnapshotRecord): the extrema, c0 = sup(1/lambda + 1/eta), the steady
residual, the sup of the mixed norm, and what the enabled checks need of
the state (the speed-consistency error, sup|u_zw|, the det W residual,
the heat residuals H f = f_t - L f of the W quads and of Phi).  It takes
no transform: u_zw and u_zwb come from grid_field.mixed_derivatives, and
f_t from the flow equation at the state itself, by the identity suite's
chain rule (identities.Dual) on an identities.StateSlice of the stored
lambda, eta and speed s.  Each scalar is reduced chunk by chunk, inside
the mixed_derivatives pass (the mixed norm) or on blocks of points, so a
record makes no field that is only reduced, unless a check needs u_zw
whole; the mixed norm is then reduced from it.  The memory of a monitored
run does not grow with its length.

Each check is a rule over the stream's records: check_<name>(stream)
either skips, or turns each record into one entry (bound, observed,
margin), passed when margin >= 0.  Its rule reads the trajectory's header
(beta, params, meta) from stream.traj, the background from stream.bg, the
constants from stream.cr, the curvature sign from stream.maxima, and the
records; it never reads a stored state, and entry i belongs to record
i.  So a check gives the same result on a live run, whose Trajectory
holds only its last state, and on a stored trajectory replayed through a
stream (MonitorStream.replay, which evaluate uses).  The checks whose
bounds need the final running c0 (trace_lower_bound, mixed_growth,
trace_growth) are evaluated from the records at the end.
phi_subsolution, whose Phi weight a_phi and source c14 depend on c0 off
Kahler products, takes each state's constants at the running c0 up to
that state unless a constants report is supplied.

The registry CHECKS is the one list of checks: for each it holds whether
it runs by default and the negative-control corruption that makes it
fail, so a passing suite is evidence the checks can actually bite.  A
negative control corrupts every kept state after the first,
corrupt(state, first), where first is the first state's SnapshotRecord:
corrupt_trajectory does so on a deep copy of a stored trajectory, and
`splitma run --negative-control` on a deep copy of each state as the run
keeps it, so the negative control streams like a clean run.  Re-running a
check on the same trajectory gives identical results.

Bound tolerances absorb time discretisation: monotonicity comparisons use
a fixed relative slack, pointwise comparisons scale with the square of
the local step; the heat subsolutions, exact in time, use the relative
HEAT_TOL.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from operator import iadd, imul

import numpy as np

from .errors import ConfigurationError
from .geometry import (BETA_MIN, Background, BoundMaxima, ConstantsReport,
                       bound_maxima, constants_from)
from .grid_field import (RealField, block_max, factor_laplacians,
                         mixed_derivatives, on_blocks)
from .flow import FlowState, Trajectory, flow_speed, steady_residual
from .identities import W_VECTORS, StateSlice, abs2, log, real, w_quads

MONO_SLACK = 1e-8           # relative slack for monotone scalar series
HEAT_TOL = 1e-6             # relative tolerance of the heat subsolutions


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


def _entries(name: str, stream: MonitorStream, rule) -> CheckResult:
    """Check name with one entry per record of stream: (bound, observed,
    margin) = rule(i, r) for its i-th record r, passed when margin >= 0."""
    entries = []
    for i, r in enumerate(stream.records):
        bound, observed, margin = rule(i, r)
        entries.append(MonitorEntry(r.t, bound, observed, margin,
                                    margin >= 0.0))
    passed = all(e.passed for e in entries)
    worst = min((e.margin for e in entries), default=math.inf)
    first_fail = next((e.t for e in entries if not e.passed), None)
    return CheckResult(name, passed, entries, worst, None, first_fail)


# ---------------------------------------------------------------------------
# pointwise helper quantities


def _mixed_field(abs_u_zw, g, lam, h, eta, beta: float) -> np.ndarray:
    """beta |u_zw|^2 / (g lam h eta) of arrays (whole fields or parts)."""
    return beta * abs_u_zw ** 2 / (g * lam * h * eta)


def mixed_norm(state: FlowState, bg: Background, beta: float) -> RealField:
    """Squared norm of the mixed second derivative in the adjusted metric:
    beta |u_zw|^2 / (g lam h eta)."""
    u_zw, = mixed_derivatives(state.u.grid, state.u.data, "z w")
    return RealField(state.u.grid, _mixed_field(
        np.abs(u_zw), bg.g.data, state.lam.data, bg.h.data, state.eta.data,
        beta))


def mixed_sups(state: FlowState, bg: Background,
               beta: float) -> tuple[float, float]:
    """(sup of mixed_norm, sup|u_zw|) of state, with no derivative field:
    u_zw is reduced inside mixed_derivatives' pass, each chunk of rows
    while it is in cache, one x1 row at a time."""
    coefs = (bg.g.data, state.lam.data, bg.h.data, state.eta.data)

    def sups(rows, u_zw):  # on the slab threads: _mixed_field is numpy only
        out = []
        for k, i in enumerate(range(rows.start, rows.stop)):
            a = np.abs(u_zw[k])
            out.append((_mixed_field(a, *(f[i] for f in coefs), beta).max(),
                        a.max()))
        return out
    per = [r for rs in mixed_derivatives(state.u.grid, state.u.data, "z w",
                                         reduce=sups) for r in rs]
    sup, zw = np.max(per, axis=0)  # a NaN of any row, as np.max gives
    return float(sup), float(zw)


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
        u_zwb, = mixed_derivatives(state.u.grid, state.u.data, "z wb")
    w22 = 1.0 / eta_loc  # u_zwb * w22 is numpy's u_zwb / eta_loc, bit for bit
    return LegendreW(lam_loc + np.abs(u_zwb) ** 2 / eta_loc, u_zwb * w22, w22)


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
    scale = max(1.0, float(target.max()), -float(target.min()))
    err = w.det() - target  # sup|err| without the array |err|
    return max(float(err.max()), -float(err.min())) / scale


def _background_varies(bg: Background) -> str | None:
    """Why bg is not constant-coefficient, or None when it is."""
    for name, arr in (("g", bg.g.data), ("h", bg.h.data)):
        if float(arr.max() - arr.min()) > 1e-12 * max(1.0, float(arr.max())):
            return (f"check requires a constant-coefficient background "
                    f"({name} varies)")
    return None


def _upper_bound_skip(beta: float,
                      fixed: ConstantsReport | None) -> str | None:
    """Why the upper-bound estimates (trace_growth, phi_subsolution) do
    not apply, or None when they do; fixed is the stream's supplied
    constants report.  Constants computed above the threshold have them."""
    if beta <= BETA_MIN:
        return "beta at or below the universal threshold"
    if fixed is not None and fixed.c14 is None:
        return "upper-bound constants unavailable"
    return None


def _c0(s: FlowState) -> float:
    """sup(1/lambda + 1/eta) of state s."""
    return block_max(lambda lam, eta: (1.0 / lam + 1.0 / eta).max(),
                     s.lam.data, s.eta.data)


def c0_series(states: list[FlowState]):
    """Per-state sup(1/lambda + 1/eta) and its running max."""
    series = [_c0(s) for s in states]
    running = list(np.maximum.accumulate(series))
    return series, running


# ---------------------------------------------------------------------------
# the monitor stream


@dataclass(slots=True)
class SnapshotRecord:
    """The scalars one kept state leaves in a MonitorStream; a part the
    stream's checks do not need is None."""

    t: float
    dt: float                   # the step that reached the state
    u_min: float
    u_max: float
    lam_min: float
    lam_max: float
    eta_min: float
    eta_max: float
    du_min: float               # extrema of the speed du/dt
    du_max: float
    c0: float                   # sup(1/lambda + 1/eta)
    steady: float               # flow.steady_residual of the speed
    sup: float = math.nan       # sup of the mixed norm
    speed_err: float | None = None  # sup|cached speed - recomputed speed|
    zw: float | None = None     # sup|u_zw| (on split initial data)
    det_w: float | None = None  # det_w_residual
    heat: dict | None = None    # check: [(1 + sup|F|, sup(H F - source))]


def _record(s: FlowState, dt: float, steady_criterion: str) -> SnapshotRecord:
    """The record of state s without the parts of the enabled checks."""
    return SnapshotRecord(
        s.t, dt, float(s.u.data.min()), float(s.u.data.max()),
        float(s.lam.data.min()), float(s.lam.data.max()),
        float(s.eta.data.min()), float(s.eta.data.max()),
        float(s.du_dt.data.min()), float(s.du_dt.data.max()), _c0(s),
        steady_residual(s.du_dt.data, steady_criterion))


class MonitorStream:
    """The one consumer of a run's kept states.

    keep(traj) is flow.run's keep callback; add(traj, state, dt) consumes
    one state of traj, and replay(traj) every stored state.  enabled names
    the checks whose field work is done; constants_report, when given,
    fixes the constants of every check, otherwise they are taken at the
    records' running c0 (constants_at).  results() runs the enabled checks
    on the records, one SnapshotRecord per state.

    The stream keeps no field of its own but the subsolution checks'
    buffers (_subsolutions).  It reduces each state to its record chunk by
    chunk.  It takes the background's curvature and torsion maxima
    (maxima, geometry.bound_maxima: the c0-independent part of the
    constants, and trace_floor's curvature sign) at most once, when the
    constants or trace_floor first read them, keeping only the scalars;
    the constants at any c0 are then scalar arithmetic.
    """

    def __init__(self, bg: Background, enabled=None, safety: float = 1.0,
                 constants_report: ConstantsReport | None = None):
        self.bg, self.safety, self.fixed_cr = bg, safety, constants_report
        self.enabled = list(DEFAULT_CHECKS if enabled is None else enabled)
        for name in self.enabled:
            if name not in CHECKS:
                raise ConfigurationError(f"unknown check {name!r}")
        self.traj: Trajectory | None = None   # read for its header only
        self.records: list[SnapshotRecord] = []
        self.c0_max = math.nan                # running max of records' c0
        self._fields: list = []               # see _subsolutions
        self._cr: ConstantsReport | None = None

    @cached_property
    def maxima(self) -> BoundMaxima:
        """The background's c0-independent curvature and torsion maxima."""
        return bound_maxima(self.bg, self.traj.beta)

    def constants_at(self, c0: float) -> ConstantsReport:
        """The supplied constants report, or the constants at c0."""
        if self.fixed_cr is not None:
            return self.fixed_cr
        if self._cr is None or self._cr.c0 != c0:
            self._cr = constants_from(self.maxima, self.traj.beta, c0,
                                      self.safety)
        return self._cr

    @property
    def cr(self) -> ConstantsReport:
        """The constants at the final running c0."""
        return self.constants_at(self.c0_max)

    def keep(self, traj: Trajectory) -> None:
        """flow.run's keep callback: consume the state traj just kept."""
        self.add(traj, traj.snapshots[-1], traj.dts[-1])

    def _start(self, traj: Trajectory) -> None:
        self.traj = traj
        on, beta = self.enabled, traj.beta
        constant = _background_varies(self.bg) is None
        self._speed = "speed_consistency" in on
        self._zw = "split_preserved" in on and bool(
            traj.meta.get("split_initial"))
        self._det = constant and "det_w" in on
        self._leg = constant and "legendre_subsolution" in on
        self._phi = ("phi_subsolution" in on
                     and _upper_bound_skip(beta, self.fixed_cr) is None)

    def add(self, traj: Trajectory, s: FlowState, dt: float) -> None:
        """Consume state s of traj, reached by a step of dt."""
        if self.traj is None:
            self._start(traj)
        elif traj is not self.traj:
            raise ConfigurationError("the stream belongs to another trajectory")
        bg, beta, grid = self.bg, traj.beta, s.u.grid
        i = len(self.records)
        rec = _record(s, dt, traj.params.steady_criterion)
        self.c0_max = rec.c0 if i == 0 else float(np.maximum(self.c0_max,
                                                             rec.c0))
        self.records.append(rec)
        if self._speed:
            def err(lam, eta, du, f):  # sup|cached - recomputed| of a block
                e = du - flow_speed(lam, eta, beta, f)
                return max(float(e.max()), -float(e.min()))
            rec.speed_err = block_max(err, s.lam.data, s.eta.data,
                                      s.du_dt.data, traj.meta.get("forcing"))
        w_on = self._det or self._leg
        if not (w_on or self._phi):  # no check needs a derivative field
            rec.sup, zw = mixed_sups(s, bg, beta)
            if self._zw:
                rec.zw = zw
            return
        mixed_ops = ("z w", "z wb") if w_on else ("z w",)
        derivs = dict(zip(mixed_ops, mixed_derivatives(grid, s.u.data,
                                                       *mixed_ops)))
        u_zw = derivs["z w"] if self._phi else derivs.pop("z w")  # Phi too
        abs_u_zw = np.abs(u_zw)
        rec.sup = float(np.max(_mixed_field(
            abs_u_zw, bg.g.data, s.lam.data, bg.h.data, s.eta.data, beta)))
        if self._zw:
            rec.zw = float(np.max(abs_u_zw))
        del u_zw, abs_u_zw  # before W: one complex field less at peak
        if self._det:
            rec.det_w = det_w_residual(s, bg, legendre_w(s, bg, derivs["z wb"]))
        if not self._leg:
            derivs.pop("z wb", None)
        if derivs:  # the potential's derivatives that the Duals read
            self._subsolutions(rec, s, derivs)

    def _subsolutions(self, rec: SnapshotRecord, s: FlowState,
                      u_derivs: dict) -> None:
        """rec.heat of s, given the potential's u_derivs = {op: array}.  Duals
        are evaluated on cache-sized blocks into fields kept across states,
        made after the first state's temporaries: later states reuse that
        memory."""
        grid, beta, spd = s.u.grid, self.traj.beta, s.du_dt.data
        d = {("u", op): arr for op, arr in u_derivs.items()}
        d["spd", "z zb"], d["spd", "w wb"] = factor_laplacians(grid, spd)
        d.update(zip([("spd", op) for op in u_derivs],
                     mixed_derivatives(grid, spd, *u_derivs)))
        whole = (self.bg.g.data, self.bg.h.data, s.lam.data, s.eta.data)
        ws = StateSlice(grid, *whole, beta, d)
        cr = self.constants_at(self.c0_max) if self._phi else None

        def values(sl):
            p = ws.at(sl)
            lam = p.Lam
            g_lam, w22 = p.g * lam, 1.0 / (p.h * p.Eta)
            vals = []
            if self._leg:  # W11 = g lam + |u_zwb|^2 W22, W12 = u_zwb W22
                u = p.U("z wb")  # the vectors are real: Re W12 will do
                vals += [x for q in w_quads(g_lam + abs2(u) * w22,
                                            real(u) * w22, w22)
                         for x in (q.v, q.d)]
            if cr is not None:  # Phi, its mixed norm beta |u_zw|^2 W22/(g lam)
                phi = log(lam) + (cr.b_phi * beta) * (
                    abs2(p.U("z w")) * (w22 * (1.0 / g_lam)))
                if cr.a_phi:  # 0 on Kahler products
                    phi = phi + cr.a_phi * (1.0 / lam + p.h * w22)
                vals += [phi.v, phi.d - cr.c14 * np.maximum(phi.v, 1.0)]
            return vals

        f, sups = on_blocks(values, grid.shape, self._fields or None), []
        for k in range(0, len(f), 2):  # (1 + sup|F|, sup(F_t - L F))
            h = ws.L(f[k])
            np.subtract(f[k + 1], h, out=h)
            sups.append((1.0 + max(float(f[k].max()), -float(f[k].min())),
                         float(h.max())))
        self._fields = self._fields or [np.empty(grid.shape) for _ in f]
        rec.heat = {name: pairs for name, pairs, on in (
            ("legendre_subsolution", sups[:len(W_VECTORS)], self._leg),
            ("phi_subsolution", sups[-1:], self._phi)) if on}

    def replay(self, traj: Trajectory) -> "MonitorStream":
        """Consume every stored state of traj; returns the stream."""
        for s, dt in zip(traj.snapshots, traj.dts):
            self.add(traj, s, dt)
        return self

    def results(self) -> dict[str, CheckResult]:
        """The enabled checks on the records so far.  check_<name> is
        looked up at call time, so a rebound (e.g. traced) name is the one
        called."""
        return {name: globals()[f"check_{name}"](self)
                for name in self.enabled}


# ---------------------------------------------------------------------------
# checks: each is a skip test and a rule over the records of stream, a
# MonitorStream that has consumed a trajectory with the check enabled


def check_speed_consistency(stream: MonitorStream) -> CheckResult:
    """Cached speed equals beta log(lam) - log(eta) at every snapshot."""
    def rule(i, r):
        tol = 1e-13 * (1.0 + max(abs(r.du_max), abs(r.du_min)))
        return tol, r.speed_err, tol - r.speed_err
    return _entries("speed_consistency", stream, rule)


def check_speed_range(stream: MonitorStream) -> CheckResult:
    """Extrema of the speed contract, and the speed stays in the range of
    its initial slice (equivalently the trace comparability
    exp(min G) eta <= lam^beta <= exp(max G) eta holds pointwise)."""
    recs = stream.records
    if len(recs) < 2:
        return CheckResult.skip("speed_range", "needs at least two snapshots")
    g_min, g_max = recs[0].du_min, recs[0].du_max

    def rule(i, r):
        cur_max, cur_min = r.du_max, r.du_min
        scale = 1.0 + max(abs(cur_max), abs(cur_min))
        mono_tol = MONO_SLACK * scale
        pw_tol = max(1e-10, r.dt * r.dt) * (1.0 + max(abs(g_min), abs(g_max)))
        mono_margin = math.inf
        if i:
            p = recs[i - 1]
            mono_margin = min(p.du_max + mono_tol - cur_max,
                              cur_min - (p.du_min - mono_tol))
        pw_margin = min(g_max + pw_tol - cur_max, cur_min - (g_min - pw_tol))
        return mono_tol, cur_max, min(mono_margin, pw_margin)
    return _entries("speed_range", stream, rule)


def check_potential_bounds(stream: MonitorStream) -> CheckResult:
    """0 <= u <= max u0 along the reduced flow."""
    if not stream.traj.meta.get("reduced", True):
        return CheckResult.skip("potential_bounds", "flow is not in reduced form")
    max_u0 = stream.records[0].u_max

    def rule(i, r):
        tol = max(1e-10, r.dt * r.dt) * (1.0 + max_u0)
        return max_u0, r.u_max, min(r.u_min + tol, max_u0 + tol - r.u_max)
    return _entries("potential_bounds", stream, rule)


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


def check_trace_lower_bound(stream: MonitorStream) -> CheckResult:
    """min lambda stays above trace_lower_bound_value, whose G is the
    initial speed."""
    beta = stream.traj.beta
    if beta >= 1.0:
        return CheckResult.skip(
            "trace_lower_bound", "bound formula degenerates at beta = 1"
        )
    first = stream.records[0]
    bound, _ = trace_lower_bound_value(
        beta, first.du_min, first.du_max, first.u_max, stream.cr.c
    )
    return _entries("trace_lower_bound", stream, lambda i, r: (
        bound, r.lam_min, r.lam_min - bound + 1e-12))


def check_trace_floor(stream: MonitorStream) -> CheckResult:
    """min lambda never drops below its initial value, valid when the
    cross-factor curvature components are nonnegative."""
    if not stream.maxima.mixed_curvature_nonneg:
        return CheckResult.skip(
            "trace_floor", "background curvature sign condition fails"
        )
    floor0 = stream.records[0].lam_min

    def rule(i, r):
        tol = max(1e-10, r.dt * r.dt) * (1.0 + floor0)
        return floor0, r.lam_min, r.lam_min - (floor0 - tol)
    return _entries("trace_floor", stream, rule)


def check_mixed_growth(stream: MonitorStream) -> CheckResult:
    """Sup of the adjusted-metric mixed norm grows at most like
    max(1 + c0 a_psi, (sup_0 + c0 a_psi) exp(c11 t))."""
    cr = stream.cr
    shift = cr.c0 * cr.a_psi
    sup0 = stream.records[0].sup

    def rule(i, r):
        expo = min(cr.c11 * r.t, 700.0)
        bound = max(1.0 + shift, (sup0 + shift) * math.exp(expo))
        tol = 1e-8 * (1.0 + bound)
        return bound, r.sup, bound + tol - r.sup
    return _entries("mixed_growth", stream, rule)


def check_trace_growth(stream: MonitorStream) -> CheckResult:
    """max lambda grows at most doubly exponentially:
    log max lam(t) <= log max lam(0) + (b sup_0 + a c0) exp(c14 t)."""
    reason = _upper_bound_skip(stream.traj.beta, stream.fixed_cr)
    if reason is not None:
        return CheckResult.skip("trace_growth", reason)
    cr = stream.cr
    first = stream.records[0]
    log_lam0 = math.log(first.lam_max)
    coef = cr.b_phi * first.sup + cr.a_phi * cr.c0

    def rule(i, r):
        expo = min(cr.c14 * r.t, 700.0)
        log_bound = log_lam0 + coef * math.exp(expo)
        obs = math.log(r.lam_max)
        tol = 1e-8 * (1.0 + abs(log_bound)) if math.isfinite(log_bound) else 0.0
        return log_bound, obs, log_bound + tol - obs
    return _entries("trace_growth", stream, rule)


def check_split_preserved(stream: MonitorStream) -> CheckResult:
    """Split initial data keeps a vanishing mixed derivative."""
    if not stream.traj.meta.get("split_initial", False):
        return CheckResult.skip("split_preserved", "initial data is not split")
    return _entries("split_preserved", stream,
                    lambda i, r: (1e-10, r.zw, 1e-10 - r.zw))


def check_legendre_subsolution(stream: MonitorStream) -> CheckResult:
    """Every direction pairing of the transform matrix is a heat
    subsolution on constant-coefficient backgrounds: H W(v, vbar) <= 0 at
    each kept state for each v in W_VECTORS, against HEAT_TOL (1 +
    sup|W(v, vbar)|).  d/dt is taken at the state; time consistency is
    left to speed_consistency, the step-halving test and the oracle.  The
    aliasing of the nonlinear quads is not covered: coarse grids can fail."""
    reason = _background_varies(stream.bg)
    if reason is not None:
        return CheckResult.skip("legendre_subsolution", reason)
    return _heat_check(stream, "legendre_subsolution")


def _heat_check(stream: MonitorStream, name: str) -> CheckResult:
    """Per record, its least-margin (scale, worst) pair vs HEAT_TOL scale;
    a failing pair, NaN included, ranks below every passing one."""
    def rule(i, r):
        tol, worst = min(((HEAT_TOL * scale, w) for scale, w in r.heat[name]),
                         key=lambda p: (p[1] <= p[0], p[0] - p[1]))
        return tol, worst, tol - worst
    return _entries(name, stream, rule)


def check_det_w(stream: MonitorStream) -> CheckResult:
    """det W = (g lam)/(h eta) at every snapshot (algebraic identity)."""
    reason = _background_varies(stream.bg)
    if reason is not None:
        return CheckResult.skip("det_w", reason)
    return _entries("det_w", stream,
                    lambda i, r: (1e-12, r.det_w, 1e-12 - r.det_w))


def check_phi_subsolution(stream: MonitorStream) -> CheckResult:
    """The composite test function Phi = log lam + a(1/lam + 1/eta) +
    b |mixed|^2 satisfies H Phi <= c14 max(Phi, 1) pointwise.

    The max(Phi, 1) guard reflects how the growth estimate is applied: the
    linear-growth inequality is used where the test function is large;
    below level one the absolute constant c14 itself bounds the source.
    The unguarded form H Phi <= c14 Phi is violated by exact solutions
    wherever Phi < 0 (e.g. split data with lam < 1 has H Phi = 0 > c14 Phi),
    so it is not a usable runtime check.  Beta and the supplied report
    decide whether the check applies; each state's Phi and source take the
    constants at the running c0 up to that state.  d/dt is taken at the
    state; time consistency is left to speed_consistency, the step-halving
    test and the oracle."""
    reason = _upper_bound_skip(stream.traj.beta, stream.fixed_cr)
    if reason is not None:
        return CheckResult.skip("phi_subsolution", reason)
    return _heat_check(stream, "phi_subsolution")


# ---------------------------------------------------------------------------
# negative-control corruptions and the check registry


def _nonsplit(s: FlowState, first: SnapshotRecord) -> None:
    grid = s.u.grid
    x1, _, x3, _ = grid.mesh()
    s.u.data += 0.2 * np.sin(2 * np.pi * x1 / grid.periods[0]) * np.sin(
        2 * np.pi * x3 / grid.periods[2]
    ) * np.ones(grid.shape)


def _stretch(s: FlowState, first: SnapshotRecord) -> None:
    s.u.data *= 3.0
    s.lam.data = 1.0 + 2.0 * (s.lam.data - 1.0)


def _speed_bump(s: FlowState, first: SnapshotRecord) -> None:
    """Speed bumps along x1 and x3: lambda_t, eta_t swing by 100 pi^2/g, /h,
    above c14 max(Phi, 1) on flat and pluriclosed backgrounds alike."""
    grid = s.u.grid
    x1, _, x3, _ = grid.mesh()
    s.du_dt.data += 100.0 * (np.cos(2 * np.pi * x1 / grid.periods[0])
                             + np.cos(2 * np.pi * x3 / grid.periods[2]))


# The one list of checks, read by MonitorStream, corrupt_trajectory,
# DEFAULT_CHECKS, OPTIONAL_CHECKS and the recipes' monitor selection.
# corrupt(state, first) injects the negative control's violation into a
# kept state in place; first is the first kept state's record.
Check = namedtuple("Check", "default_on corrupt")
CHECKS: dict[str, Check] = {
    "speed_consistency": Check(True, lambda s, f: iadd(s.du_dt.data, 1.0)),
    "speed_range": Check(True, lambda s, f: iadd(
        s.du_dt.data, 1.0 + max(abs(f.du_min), abs(f.du_max)))),
    "potential_bounds": Check(True, lambda s, f: iadd(s.u.data,
                                                      f.u_max + 1.0)),
    "trace_lower_bound": Check(True, lambda s, f: imul(s.lam.data, 1e-4)),
    "trace_floor": Check(True, lambda s, f: imul(s.lam.data, 0.5)),
    "mixed_growth": Check(True, _nonsplit),
    "trace_growth": Check(True, lambda s, f: imul(s.lam.data, 10.0)),
    "split_preserved": Check(True, _nonsplit),
    "legendre_subsolution": Check(False, _stretch),
    "det_w": Check(False, lambda s, f: imul(s.lam.data, 1.3)),
    "phi_subsolution": Check(False, _speed_bump),
}

DEFAULT_CHECKS = tuple(n for n, c in CHECKS.items() if c.default_on)
OPTIONAL_CHECKS = tuple(n for n, c in CHECKS.items() if not c.default_on)


# ---------------------------------------------------------------------------
# replay of stored trajectories and negative controls


def evaluate(
    traj: Trajectory,
    bg: Background,
    enabled=None,
    constants_report: ConstantsReport | None = None,
    safety: float = 1.0,
) -> dict[str, CheckResult]:
    """Replay a stored trajectory through a MonitorStream and run its
    checks.

    The constants are taken at the trajectory's own observed trace bound
    sup(1/lambda + 1/eta) unless a report is supplied.
    """
    return MonitorStream(bg, enabled, safety,
                         constants_report).replay(traj).results()


def corrupt_trajectory(traj: Trajectory, check: str) -> Trajectory:
    """Deep-copied trajectory with a deliberate violation of one check in
    every state after the first."""
    t = copy.deepcopy(traj)
    snaps = t.snapshots
    if len(snaps) < 2:
        raise ConfigurationError("corruption fixtures need >= 2 snapshots")
    if check not in CHECKS:
        raise ConfigurationError(f"no corruption fixture for check {check!r}")
    first = _record(snaps[0], t.dts[0], t.params.steady_criterion)
    for s in snaps[1:]:
        CHECKS[check].corrupt(s, first)
    return t
