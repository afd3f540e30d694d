"""Reduction pipeline and time integration of the parabolic flow

    du/dt = beta log(lambda) - log(eta),
    lambda = 1 + u_zzb / g,   eta = 1 - u_wwb / h,

with classical four-stage explicit stepping under an adaptive stability
limit.  The admissibility cone (lambda > 0, eta > 0) is enforced at every
stage; a violated stage rejects the step, halves dt and retries, so that
persistent failure is loud rather than silently degenerate.

Map: FlowParams and FlowState; the reductions (normalize_exponents,
gauge_out_f, normalize_compat, shift_min_zero); the trace pass
_lambda_eta_data, every evaluation of the right-hand side; Linearised,
the linearisation at a state; the stepping, up to integrate, the one
generator of states; and run, which keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityLost, ConfigurationError, NumericalFailure
from .geometry import KAHLER_PRODUCT, Background, cross_factor_dependence
from .grid_field import (
    RealField,
    TorusGrid,
    _slab_pass,
    deriv_data,
    exponential_filter,
    factor_laplacians,
    poisson_solve_factor,
)

MAX_STEP_RETRIES = 8


@dataclass
class FlowParams:
    beta: float
    t_end: float
    cfl: float = 0.5
    dt_max: float = 1.0
    steady_tol: float = 1e-9
    admissibility_floor: float = 1e-10
    snapshot_stride: int = 1
    steady_criterion: str = "osc"   # "osc" pre-gauge, "norm" for gauged runs
    spectral_filter: bool = False   # exponential damping of top modes

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ConfigurationError(f"beta must lie in (0, 1], got {self.beta}")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigurationError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (self.t_end >= 0.0 and self.dt_max > 0.0 and self.steady_tol > 0.0):
            raise ConfigurationError("t_end, dt_max, steady_tol must be positive")
        if not (self.admissibility_floor > 0.0):
            raise ConfigurationError("admissibility_floor must be positive")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        if self.steady_criterion not in ("osc", "norm"):
            raise ConfigurationError("steady_criterion must be 'osc' or 'norm'")


@dataclass
class FlowState:
    """One snapshot of the flow: potential, time, cached traces and speed,
    and the minima of g lam and h eta when the trace pass gave them."""

    u: RealField
    t: float
    lam: RealField
    eta: RealField
    du_dt: RealField
    metric_min: tuple[float, float] | None = None


@dataclass
class Trajectory:
    grid: TorusGrid
    beta: float
    params: FlowParams
    snapshots: list[FlowState] = field(default_factory=list)
    dts: list[float] = field(default_factory=list)
    termination: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.snapshots]


# ---------------------------------------------------------------------------
# reductions


def normalize_exponents(alpha: float, beta: float, f: RealField | None):
    """Rescale a two-exponent problem to the unit-second-exponent form.

    Returns (beta/alpha, f/alpha, alpha); integrating the rescaled flow to
    time alpha*T reproduces the original solution at time T.
    """
    if alpha <= 0.0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if not (0.0 < beta <= alpha):
        raise ConfigurationError(
            f"flow form requires 0 < beta <= alpha, got beta={beta}, alpha={alpha}"
        )
    f_scaled = None if f is None else RealField(f.grid, f.data / alpha)
    return beta / alpha, f_scaled, alpha


def shift_min_zero(u: RealField) -> RealField:
    return RealField(u.grid, u.data - float(u.data.min()))


def lambda_eta(
    u: RealField, bg: Background, floor: float = 1e-10, t: float | None = None
):
    """Pointwise trace factors; raises AdmissibilityLost at the floor."""
    lam, eta, _, _ = _lambda_eta_data(u.data, bg, floor, t)
    return RealField(u.grid, lam), RealField(u.grid, eta)


def _lambda_eta_data(u_data: np.ndarray, bg: Background, floor: float,
                     t=None, beta=None, forcing=None, then=None):
    """The trace factors lam = 1 + u_zzb / g and eta = 1 - u_wwb / h of
    u_data and, given beta, its speed beta log(lam) - log(eta) - forcing,
    in one slab pass (grid_field's _slab_pass): each chunk of x1 rows is
    finished while it is in cache.  Raises AdmissibilityLost when min lam,
    then min eta, is not above floor.

    Returns (lam, eta, speed, metric_min): speed is None without beta, and
    metric_min holds min(g lam) and min(h eta), the minima dt_adaptive
    reads.

    With then the call is an RK4 stage: u_data is a stage buffer that the
    pass consumes, lam is formed in the speed buffer and eta in u_data's
    own rows, and only the speed is returned (lam, eta and metric_min are
    None).  then(rows, speed) runs on each chunk once its speed is done,
    on the pool threads, so it may call numpy only.  A chunk below the
    floor takes no logarithm and no then: the stage is rejected anyway."""
    g, h = bg.g.data, bg.h.data
    stage = then is not None
    lam = np.empty(bg.grid.shape)
    eta = u_data if stage else np.empty(bg.grid.shape)
    speed = lam if stage else None if beta is None else np.empty(bg.grid.shape)

    def finish(rows, spare, _):
        lam_r, eta_r = lam[rows], eta[rows]
        lam_r /= g[rows]
        lam_r += 1.0
        eta_r /= h[rows]
        np.subtract(1.0, eta_r, out=eta_r)
        lows = [lam_r.min(), eta_r.min()]
        if not stage:
            lows.append(np.multiply(g[rows], lam_r, out=spare).min())
            lows.append(np.multiply(h[rows], eta_r, out=spare).min())
        if speed is not None and lows[0] > floor and lows[1] > floor:
            s = speed[rows]
            np.log(lam_r, out=s)
            s *= beta
            s -= np.log(eta_r, out=eta_r if stage else spare)
            if forcing is not None:
                s -= forcing[rows]
            if stage:
                then(rows, speed)
        return lows

    # np.min propagates a NaN of any chunk, as the minimum of the field does
    lows = np.min(_slab_pass(bg.grid, u_data, lam, eta, finish), axis=0)
    lam_min, eta_min = float(lows[0]), float(lows[1])
    if not (lam_min > floor):
        raise AdmissibilityLost(
            f"lambda reached {lam_min:.3e} (floor {floor:.1e})",
            t=t, which="lambda", value=lam_min,
        )
    if not (eta_min > floor):
        raise AdmissibilityLost(
            f"eta reached {eta_min:.3e} (floor {floor:.1e})",
            t=t, which="eta", value=eta_min,
        )
    if stage:
        return None, None, speed, None
    return lam, eta, speed, (float(lows[2]), float(lows[3]))


def flow_speed(
    lam: np.ndarray, eta: np.ndarray, beta: float, forcing: np.ndarray | None = None
) -> np.ndarray:
    """beta log(lambda) - log(eta), minus the forcing when present: the
    formula that the trace pass evaluates chunk by chunk, in the same
    operation order."""
    s = beta * np.log(lam) - np.log(eta)
    if forcing is not None:
        s = s - forcing
    return s


def _state(u: RealField, t: float, traces) -> FlowState:
    """The FlowState of u at t from its _lambda_eta_data result."""
    lam, eta, speed, metric_min = traces
    return FlowState(u, t, RealField(u.grid, lam), RealField(u.grid, eta),
                     RealField(u.grid, speed), metric_min)


def make_state(
    u: RealField, bg: Background, beta: float, t: float,
    floor: float = 1e-10, forcing: RealField | None = None,
) -> FlowState:
    f = None if forcing is None else forcing.data
    return _state(u, t, _lambda_eta_data(u.data, bg, floor, t, beta, f))


class Linearised:
    """J v = a v_zzb + b v_wwb, a = beta/(g lam) and b = 1/(h eta): the
    flow's linearisation at the traces lam and eta (H = d/dt - J).  A
    class, not a public function, so that applying it adds no span of its
    own to a trace."""

    def __init__(self, grid: TorusGrid, g, h, lam, eta, beta: float):
        self.grid, self.a, self.b = grid, beta / (g * lam), 1.0 / (h * eta)

    def __call__(self, v: np.ndarray, d=None, out=None) -> np.ndarray:
        """J v of a real v, or of each part of a complex v; with d, the
        heat residual d - J v.  One factor_laplacians pass per part, whose
        finish forms each chunk in cache, into out or else a new array."""
        if np.iscomplexobj(v):
            out = np.empty(v.shape, np.complex128) if out is None else out
            for p in ("real", "imag"):
                self(getattr(v, p), getattr(d, p, None), getattr(out, p))
            return out

        def finish(rows, zz, ww):  # on the pool threads: numpy only
            z, w = zz[rows], ww[rows]
            o = z if out is None else out[rows]
            np.multiply(self.a[rows], z, out=z)
            np.multiply(self.b[rows], w, out=w)
            np.add(z, w, out=o)
            if d is not None:
                np.subtract(d[rows] if np.ndim(d) else d, o, out=o)

        zz, _ = factor_laplacians(self.grid, v, finish)
        return zz if out is None else out


# ---------------------------------------------------------------------------
# stepping


def spectral_radius_bounds(grid: TorusGrid) -> tuple[float, float]:
    """Spectral radii of the two factor quarter-Laplacians."""
    n1, n2, n3, n4 = grid.shape
    L1, L2, L3, L4 = grid.periods
    kz = 0.25 * ((math.pi * n1 / L1) ** 2 + (math.pi * n2 / L2) ** 2)
    kw = 0.25 * ((math.pi * n3 / L3) ** 2 + (math.pi * n4 / L4) ** 2)
    return kz, kw


def dt_adaptive(state: FlowState, beta: float, cfl: float,
                dt_max: float) -> float:
    """Stability-limited step cfl / rho, with rho = sup a kz + sup b kw
    the bound on the spectral radius of Linearised's J v = a v_zzb +
    b v_wwb, kz and kw from spectral_radius_bounds.  sup a = beta /
    min(g lam) and sup b = 1 / min(h eta) bit for bit (rounded division
    by a positive number is monotone), the minima from the state's own
    trace pass (metric_min), so no coefficient field is made."""
    kz, kw = spectral_radius_bounds(state.u.grid)
    gl_min, he_min = state.metric_min
    rho = (beta / gl_min) * kz + (1.0 / he_min) * kw
    return min(dt_max, cfl / rho)


def _step_rk4_full(u_data, bg, beta, dt, floor, forcing, t, k1=None):
    """One classical four-stage step; every stage is admissibility-checked.

    Returns (u_new, lam_new, eta_new, speed_new, metric_min): the trailing
    trace pass of the accepted state doubles as the first stage of the
    next step, so nothing is evaluated twice across the run loop.

    One buffer holds the three stage inputs in turn; k2's buffer
    accumulates u + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in that expression's
    operation order (IEEE + and * commute).  Each stage's combinations run
    inside its trace pass, on each chunk of rows once its speed is done:
    the next stage input overwrites the chunk's rows of the consumed stage
    buffer, and each k is folded into the accumulator there.  The first
    stage input is a slab pass with no Laplacian, only that combination.
    """
    if k1 is None:
        k1 = _lambda_eta_data(u_data, bg, floor, t, beta, forcing)[2]
    half = 0.5 * dt
    stage = np.empty(bg.grid.shape)

    def first(r, *_):
        s = np.multiply(k1[r], half, out=stage[r])
        s += u_data[r]

    def after_k2(r, acc):
        s = np.multiply(acc[r], half, out=stage[r])
        s += u_data[r]
        a = acc[r]
        a *= 2.0
        a += k1[r]

    def after_k3(r, k):
        s = np.multiply(k[r], dt, out=stage[r])
        s += u_data[r]
        k_r, a = k[r], acc[r]
        k_r *= 2.0
        a += k_r

    def after_k4(r, k):
        a = acc[r]
        a += k[r]
        a *= dt / 6.0
        a += u_data[r]

    _slab_pass(bg.grid, u_data, None, None, first)
    acc = _lambda_eta_data(stage, bg, floor, t, beta, forcing, after_k2)[2]
    for then in (after_k3, after_k4):
        _lambda_eta_data(stage, bg, floor, t, beta, forcing, then)
    del stage
    return (acc, *_lambda_eta_data(acc, bg, floor, t, beta, forcing))


def step_rk4(
    u_data: np.ndarray,
    bg: Background,
    beta: float,
    dt: float,
    floor: float = 1e-10,
    forcing: np.ndarray | None = None,
    t: float = 0.0,
) -> np.ndarray:
    return _step_rk4_full(u_data, bg, beta, dt, floor, forcing, t)[0]


def step_with_rejection(
    u_data, bg, beta, dt, floor, forcing, t, k1=None
):
    """Step, halving dt on admissibility loss up to MAX_STEP_RETRIES."""
    trial = dt
    last = None
    for _ in range(MAX_STEP_RETRIES + 1):
        try:
            out = _step_rk4_full(u_data, bg, beta, trial, floor, forcing, t, k1)
            return out, trial
        except AdmissibilityLost as exc:
            # the message only: the exception's traceback would hold the
            # failed attempt's stage arrays through the retry
            last = str(exc)
            trial *= 0.5
    raise NumericalFailure(
        f"step rejected {MAX_STEP_RETRIES} times at t = {t:.6g}: {last}"
    )


def is_split(u: RealField) -> bool:
    """Whether u is split data: its mixed derivative u_zw vanishes to
    1e-10 relative to 1 + sup|u|."""
    u_zw = float(np.max(np.abs(deriv_data(u.grid, u.data, "z w"))))
    return u_zw <= 1e-10 * (1.0 + float(np.max(np.abs(u.data))))


def steady_residual(speed: np.ndarray, criterion: str) -> float:
    """Steadiness measure of the speed field: its oscillation ("osc") or
    its sup-norm ("norm")."""
    if criterion == "osc":
        return float(speed.max() - speed.min())
    return float(np.max(np.abs(speed)))


def integrate(
    bg: Background,
    u0: RealField,
    params: FlowParams,
    forcing: RealField | None = None,
    stops=(),
):
    """Yield (state, dt_used, at_stop) for the initial state (dt_used 0)
    and after every accepted step, until t_end.

    Each step is the stability limit dt_adaptive, cut to t_end and
    shortened to land on the next of the stops in (0, t_end]; at_stop is
    true at each stop hit and at t_end.  The yielded arrays are the inputs
    of the next step and the first state holds u0 itself: do not modify
    them.  A step holds the current state's u and speed and about four
    fields more; it drops its own reference to the state's lam and eta,
    and to u0 once the first state is yielded.
    """
    beta, floor, eps = params.beta, params.admissibility_floor, 1e-12
    grid = u0.grid
    f = None if forcing is None else forcing.data
    stops = sorted(t for t in stops if 0.0 < t <= params.t_end)
    state = make_state(u0, bg, beta, 0.0, floor, forcing)
    del u0  # the first state holds it
    yield state, 0.0, state.t >= params.t_end - eps
    t, k = 0.0, 0
    while t < params.t_end - eps:
        dt = min(dt_adaptive(state, beta, params.cfl, params.dt_max),
                 params.t_end - t)
        hit = k < len(stops) and stops[k] - t <= dt + eps
        if hit:
            dt = stops[k] - t
        u, k1 = state.u.data, state.du_dt.data
        del state  # the step needs neither lam nor eta of this state
        new, dt_used = step_with_rejection(u, bg, beta, dt, floor, f, t, k1=k1)
        del u, k1
        if params.spectral_filter:
            u = exponential_filter(grid, new[0])
            del new
            new = (u, *_lambda_eta_data(u, bg, floor, t, beta, f))
            del u
        t += dt_used
        hit = hit and dt_used == dt
        k += hit
        state = _state(RealField(grid, new[0]), t, new[1:])
        del new
        yield state, dt_used, hit or t >= params.t_end - eps


def run(
    bg: Background,
    u0: RealField,
    params: FlowParams,
    forcing: RealField | None = None,
    checkpoint_times: list[float] | None = None,
    keep=None,
) -> Trajectory:
    """Integrate until t_end, steadiness, or failure.

    Keeps the state of integrate every snapshot_stride accepted steps, at
    every checkpoint time and at t_end.  Stops at the first kept state
    whose speed is steady: oscillation below steady_tol ("osc", the right
    notion before gauging, where the flow may drift at a constant rate) or
    sup-norm below steady_tol ("norm", for gauged problems).

    keep, when given, is called with the trajectory each time it keeps a
    state; the trajectory then holds that state (and its dt) only.  Until
    the next keep it holds just that state's potential and time (lam, eta
    and du_dt None), all a failure dump reads; the returned trajectory
    holds the final state whole.  Neither run nor integrate holds u0
    once a later state is kept, so a caller that hands u0 over without
    keeping it steps with one field less from then on.
    """
    traj = Trajectory(grid=u0.grid, beta=params.beta, params=params,
                      termination="t_end")
    traj.meta["forcing"] = None if forcing is None else forcing.data
    traj.meta["reduced"] = forcing is None and abs(float(u0.data.min())) < 1e-12
    traj.meta["split_initial"] = is_split(u0)
    states = integrate(bg, u0, params, forcing, checkpoint_times or ())
    del u0  # the first state holds it
    t, i = None, 0
    try:
        # no enumerate: its cached result tuple would hold the previous
        # state through the next step
        for state, dt_used, at_stop in states:
            t = state.t
            if i % params.snapshot_stride == 0 or at_stop:
                if keep is None:
                    traj.snapshots.append(state)
                    traj.dts.append(dt_used)
                else:
                    traj.snapshots[:], traj.dts[:] = [state], [dt_used]
                    keep(traj)
                    traj.snapshots[0] = FlowState(state.u, state.t,
                                                  None, None, None)
                if steady_residual(state.du_dt.data,
                                   params.steady_criterion) < params.steady_tol:
                    traj.termination = "steady"
                    break
            i += 1
            if not at_stop:  # the last state is at a stop: t_end
                del state  # so the next step can drop its lam and eta
    except (NumericalFailure, AdmissibilityLost) as exc:
        traj.termination = "failed"
        traj.meta["failed_at"] = t
        # surface the failing time and the partial trajectory so the
        # caller can dump the last admissible state
        exc.trajectory = traj
        raise
    if keep is not None:
        traj.snapshots[0] = state
    return traj


# ---------------------------------------------------------------------------
# gauge step on product backgrounds


@dataclass
class GaugeResult:
    u_inf: RealField
    b_plus: float
    b_minus: float
    g_new: np.ndarray          # coefficient of the gauged background
    h_new: np.ndarray


def gauge_out_f(
    bg: Background, f_plus: RealField, f_minus: RealField, beta: float
) -> GaugeResult:
    """Absorb split forcing into the background on a product.

    Solves the two factor Poisson problems for the steady potential
    u_inf = u_inf_plus + u_inf_minus with

        (u_inf_plus)_zzb  = g (exp((f_plus + b_plus)/beta) - 1),
        (u_inf_minus)_wwb = h (1 - exp(-(f_minus + b_minus))),

    where b_plus, b_minus are the unique constants making each right-hand
    side integrable on its factor (closed-form roots of monotone mean
    equations).  When the forcing satisfies the compatibility condition,
    both constants vanish to rounding.
    """
    if bg.kind != KAHLER_PRODUCT:
        raise ConfigurationError("gauge step is supported on product backgrounds only")
    grid = bg.grid
    _require_factor_pure(f_plus, axes=(2, 3), name="f_plus")
    _require_factor_pure(f_minus, axes=(0, 1), name="f_minus")
    g, h = bg.g.data, bg.h.data
    b_plus, b_minus = _compat_shifts(bg, f_plus, f_minus, beta)

    def exp(f, b, scale):  # exp((f + b) / scale) in one new field
        e = f.data + b
        e /= scale
        return np.exp(e, out=e)

    # A Poisson solve holds its right-hand side and u_inf, no coefficient,
    # so each exponential is taken twice.  exp(-x) is exp(x / -1), bitwise.
    rhs = exp(f_plus, b_plus, beta)
    rhs -= 1.0
    rhs *= g                                            # g (e - 1)
    u_inf = poisson_solve_factor(RealField(grid, rhs), "z").data
    del rhs
    rhs = exp(f_minus, b_minus, -1.0)
    np.subtract(1.0, rhs, out=rhs)
    rhs *= h                                            # h (1 - e)
    u_inf += poisson_solve_factor(RealField(grid, rhs), "w").data
    del rhs
    g_new = exp(f_plus, b_plus, beta)
    g_new *= g
    h_new = exp(f_minus, b_minus, -1.0)
    h_new *= h
    return GaugeResult(u_inf=RealField(grid, u_inf), b_plus=b_plus,
                       b_minus=b_minus, g_new=g_new, h_new=h_new)


def normalize_compat(
    bg: Background, f_plus: RealField, f_minus: RealField, beta: float
):
    """Shift split forcing by constants so the compatibility condition
    holds exactly: the factor means of g exp(f_plus/beta) and
    h exp(-f_minus) match those of g and h."""
    shift_p, shift_m = _compat_shifts(bg, f_plus, f_minus, beta)
    return (
        RealField(f_plus.grid, f_plus.data + shift_p),
        RealField(f_minus.grid, f_minus.data + shift_m),
    )


def _compat_shifts(bg: Background, f_plus: RealField, f_minus: RealField,
                   beta: float):
    """(b_plus, b_minus): the constants that make the factor means of
    g exp((f_plus + b_plus)/beta) and h exp(-(f_minus + b_minus)) those of
    g and h."""
    g, h = bg.g.data, bg.h.data
    b_plus = beta * math.log(
        float(g.mean()) / float((g * np.exp(f_plus.data / beta)).mean()))
    b_minus = math.log(
        float((h * np.exp(-f_minus.data)).mean()) / float(h.mean()))
    return b_plus, b_minus


def _require_factor_pure(f: RealField, axes, name: str):
    dep = cross_factor_dependence(f.data, axes)
    if dep > 1e-10 * max(1.0, float(np.max(np.abs(f.data)))):
        raise ConfigurationError(
            f"{name} must depend only on its own factor (residual {dep:.3e})"
        )
