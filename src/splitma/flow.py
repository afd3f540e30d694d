"""Reduction pipeline and time integration of the parabolic flow

    du/dt = beta log(lambda) - log(eta),
    lambda = 1 + u_zzb / g,   eta = 1 - u_wwb / h,

with classical four-stage explicit stepping under an adaptive stability
limit.  The admissibility cone (lambda > 0, eta > 0) is enforced at every
stage; a violated stage rejects the step, halves dt and retries, so that
persistent failure is loud rather than silently degenerate.

All stepping lives in one generator, integrate, which yields the initial
state and the state after every accepted step.  run keeps every
snapshot_stride-th state and stops on steadiness.  Given a keep callback,
run hands each kept state to it as it is produced and its Trajectory holds
only the last one, so a streamed run's memory does not grow with its
length (the run recipe streams into monitors.MonitorStream, the
steady-convergence recipe into its residual series); without one the
Trajectory stores every kept state.  The exponent sweep and the factor
oracle (experiments) keep the initial state and the checkpoint states.

Working set: a step computes in place (trace factors in the Laplacian
outputs, speeds in lambda's buffer, one stage buffer, k2's buffer as the
accumulator) and holds about five fields beyond u and k1; between keeps a
streamed run holds the current state and the kept potential only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityLost, ConfigurationError, NumericalFailure
from .geometry import KAHLER_PRODUCT, Background
from .grid_field import (
    RealField,
    TorusGrid,
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
        if self.t_end < 0.0 or self.dt_max <= 0.0 or self.steady_tol <= 0.0:
            raise ConfigurationError("t_end, dt_max, steady_tol must be positive")
        if self.admissibility_floor <= 0.0:
            raise ConfigurationError("admissibility_floor must be positive")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        if self.steady_criterion not in ("osc", "norm"):
            raise ConfigurationError("steady_criterion must be 'osc' or 'norm'")


@dataclass
class FlowState:
    """One snapshot of the flow: potential, time, cached traces and speed."""

    u: RealField
    t: float
    lam: RealField
    eta: RealField
    du_dt: RealField


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
    lam, eta = _lambda_eta_data(u.data, bg, floor, t)
    return RealField(u.grid, lam), RealField(u.grid, eta)


def _lambda_eta_data(u_data: np.ndarray, bg: Background, floor: float, t=None):
    lam, eta = factor_laplacians(bg.grid, u_data)
    lam /= bg.g.data
    lam += 1.0
    eta /= bg.h.data
    np.subtract(1.0, eta, out=eta)
    lam_min = float(lam.min())
    eta_min = float(eta.min())
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
    return lam, eta


def flow_speed(
    lam: np.ndarray, eta: np.ndarray, beta: float, forcing: np.ndarray | None = None
) -> np.ndarray:
    """beta log(lambda) - log(eta), minus the forcing when present."""
    s = beta * np.log(lam) - np.log(eta)
    if forcing is not None:
        s = s - forcing
    return s


def make_state(
    u: RealField, bg: Background, beta: float, t: float,
    floor: float = 1e-10, forcing: RealField | None = None,
) -> FlowState:
    lam, eta = lambda_eta(u, bg, floor, t)
    f = None if forcing is None else forcing.data
    speed = flow_speed(lam.data, eta.data, beta, f)
    return FlowState(u=u, t=t, lam=lam, eta=eta, du_dt=RealField(u.grid, speed))


# ---------------------------------------------------------------------------
# stepping


def spectral_radius_bounds(grid: TorusGrid) -> tuple[float, float]:
    """Spectral radii of the two factor quarter-Laplacians."""
    n1, n2, n3, n4 = grid.shape
    L1, L2, L3, L4 = grid.periods
    kz = 0.25 * ((math.pi * n1 / L1) ** 2 + (math.pi * n2 / L2) ** 2)
    kw = 0.25 * ((math.pi * n3 / L3) ** 2 + (math.pi * n4 / L4) ** 2)
    return kz, kw


def dt_adaptive(
    state: FlowState, bg: Background, beta: float, cfl: float, dt_max: float
) -> float:
    """Stability-limited step cfl / rho: rho is the sup of the linearised
    operator's coefficients, each times its factor Laplacian spectral
    radius (spectral_radius_bounds)."""
    kz, kw = spectral_radius_bounds(state.u.grid)
    # beta / min(g lam) equals max(beta / (g lam)) bitwise: rounded
    # division by a positive number is monotone
    prod = np.multiply(bg.g.data, state.lam.data)
    coef_z = beta / float(prod.min())
    np.multiply(bg.h.data, state.eta.data, out=prod)
    rho = coef_z * kz + (1.0 / float(prod.min())) * kw
    return min(dt_max, cfl / rho)


def _speed_of(u_data, bg, beta, floor, forcing, t):
    """flow_speed of u_data, computed inside the lambda buffer."""
    s, eta = _lambda_eta_data(u_data, bg, floor, t)
    np.log(s, out=s)
    s *= beta
    s -= np.log(eta, out=eta)
    if forcing is not None:
        s -= forcing
    return s


def _step_rk4_full(u_data, bg, beta, dt, floor, forcing, t, k1=None):
    """One classical four-stage step; every stage is admissibility-checked.

    Returns (u_new, lam_new, eta_new, speed_new): the trailing
    admissibility check of the accepted state doubles as the first stage
    of the next step, so nothing is evaluated twice across the run loop.

    One buffer holds the three stage inputs in turn; k2's buffer
    accumulates u + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in that expression's
    operation order (IEEE + and * commute), dropping each k once folded in.
    """
    if k1 is None:
        k1 = _speed_of(u_data, bg, beta, floor, forcing, t)
    stage = np.multiply(k1, 0.5 * dt)
    stage += u_data
    acc = _speed_of(stage, bg, beta, floor, forcing, t)
    np.multiply(acc, 0.5 * dt, out=stage)
    stage += u_data
    acc *= 2.0
    acc += k1
    k = _speed_of(stage, bg, beta, floor, forcing, t)
    np.multiply(k, dt, out=stage)
    stage += u_data
    k *= 2.0
    acc += k
    del k
    acc += _speed_of(stage, bg, beta, floor, forcing, t)
    del stage
    acc *= dt / 6.0
    acc += u_data
    lam_new, eta_new = _lambda_eta_data(acc, bg, floor, t)
    return acc, lam_new, eta_new, flow_speed(lam_new, eta_new, beta, forcing)


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
            last = exc
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
    them.  A step holds the current state and about five fields more.
    """
    beta, floor, eps = params.beta, params.admissibility_floor, 1e-12
    f = None if forcing is None else forcing.data
    stops = sorted(t for t in stops if 0.0 < t <= params.t_end)
    state = make_state(u0, bg, beta, 0.0, floor, forcing)
    yield state, 0.0, state.t >= params.t_end - eps
    t, k = 0.0, 0
    while t < params.t_end - eps:
        dt = min(dt_adaptive(state, bg, beta, params.cfl, params.dt_max),
                 params.t_end - t)
        hit = k < len(stops) and stops[k] - t <= dt + eps
        if hit:
            dt = stops[k] - t
        (u, lam, eta, speed), dt_used = step_with_rejection(
            state.u.data, bg, beta, dt, floor, f, t, k1=state.du_dt.data
        )
        if params.spectral_filter:
            u = exponential_filter(u0.grid, u)
            lam, eta = _lambda_eta_data(u, bg, floor, t)
            speed = flow_speed(lam, eta, beta, f)
        t += dt_used
        hit = hit and dt_used == dt
        k += hit
        state = FlowState(RealField(u0.grid, u), t, RealField(u0.grid, lam),
                          RealField(u0.grid, eta), RealField(u0.grid, speed))
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
    holds the final state whole.
    """
    traj = Trajectory(grid=u0.grid, beta=params.beta, params=params,
                      termination="t_end")
    traj.meta["forcing"] = None if forcing is None else forcing.data
    traj.meta["reduced"] = forcing is None and abs(float(u0.data.min())) < 1e-12
    traj.meta["split_initial"] = is_split(u0)
    t = None
    try:
        for i, (state, dt_used, at_stop) in enumerate(
                integrate(bg, u0, params, forcing, checkpoint_times or ())):
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
    e = np.exp((f_plus.data + b_plus) / beta)
    u_plus = poisson_solve_factor(RealField(grid, g * (e - 1.0)), "z")
    g_new = g * e
    e = np.exp(-(f_minus.data + b_minus))
    u_minus = poisson_solve_factor(RealField(grid, h * (1.0 - e)), "w")
    h_new = h * e
    del e
    return GaugeResult(
        u_inf=RealField(grid, u_plus.data + u_minus.data),
        b_plus=b_plus,
        b_minus=b_minus,
        g_new=g_new,
        h_new=h_new,
    )


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


def _require_factor_pure(f: RealField, axes, name: str, tol: float = 1e-10):
    dep = np.max(np.abs(f.data - f.data.mean(axis=axes, keepdims=True)))
    if dep > tol * max(1.0, float(np.max(np.abs(f.data)))):
        raise ConfigurationError(
            f"{name} must depend only on its own factor (residual {dep:.3e})"
        )
