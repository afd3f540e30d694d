"""Background metrics on the product torus, their torsion and curvature,
and the named constants consumed by the runtime bound monitors.

A background is the pair of positive coefficient fields (g, h) of a
split-type Hermitian form

    omega0 = i g dz^dzb + i h dw^dwb.

Two families are constructed here:

* Kahler products: g depends only on the z-factor and h only on the
  w-factor, so the torsion components g_w and h_z vanish identically.
* Pluriclosed non-product backgrounds built from separable cosine modes,
  satisfying g_wwb + h_zzb = 0 exactly by construction.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _backend as fft
from .errors import BelowBetaThreshold, ConfigurationError
from .grid_field import (
    RealField,
    TorusGrid,
    _part,
    _spectral_deriv,
    atomic_write,
    block_max,
    factor_laplacian,
    factor_laplacians,
    on_blocks,
    read_field,
    sup_norm,
    write_field,
)

KAHLER_PRODUCT = "kahler_product"
PLURICLOSED_GENERAL = "pluriclosed_general"

#: universal lower threshold for the exponent ratio required by the
#: upper-bound test function: (2*sqrt(3) - 3)/3
BETA_MIN = (2.0 * math.sqrt(3.0) - 3.0) / 3.0

PLURICLOSED_TOL = 1e-10
PRODUCT_TOL = 1e-12
#: relative tolerance of the mixed curvature sign test
CURVATURE_TOL = 1e-10


@dataclass
class Background:
    """Positive split-type metric coefficients on a TorusGrid."""

    grid: TorusGrid
    g: RealField
    h: RealField
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (KAHLER_PRODUCT, PLURICLOSED_GENERAL):
            raise ConfigurationError(f"unknown background kind {self.kind!r}")


def _check_positive(name: str, data: np.ndarray) -> None:
    mn = float(data.min())
    if not (mn > 0.0):
        raise ConfigurationError(f"{name} must be positive, min = {mn:.6g}")


def cross_factor_dependence(data: np.ndarray, axes) -> float:
    """sup |data - mean over axes|, zero when data is constant along axes."""
    return float(np.max(np.abs(data - data.mean(axis=axes, keepdims=True))))


def make_background(
    grid: TorusGrid, g_data, h_data, kind: str, params=None
) -> Background:
    """The validated Background of the coefficients g_data and h_data:
    positive, pluriclosed, and factor-pure on a Kahler product."""
    g = RealField.create(grid, np.broadcast_to(g_data, grid.shape).copy())
    h = RealField.create(grid, np.broadcast_to(h_data, grid.shape).copy())
    bg = Background(grid, g, h, kind, params or {})
    _check_positive("g", g.data)
    _check_positive("h", h.data)
    res = verify_pluriclosed(bg)
    scale = sup_norm(g) + sup_norm(h)
    if res > PLURICLOSED_TOL * scale:
        raise ConfigurationError(
            f"background is not pluriclosed: residual {res:.3e} "
            f"(tolerance {PLURICLOSED_TOL:.1e} * {scale:.3g})"
        )
    if kind == KAHLER_PRODUCT:
        for f, other in ((g, (2, 3)), (h, (0, 1))):
            dep = cross_factor_dependence(f.data, other)
            if dep > PRODUCT_TOL * max(1.0, sup_norm(f)):
                raise ConfigurationError(
                    "product background has cross-factor dependence")
    return bg


def flat_background(grid: TorusGrid, c_g: float = 1.0, c_h: float = 1.0) -> Background:
    if c_g <= 0 or c_h <= 0:
        raise ConfigurationError("flat coefficients must be positive")
    return make_background(
        grid,
        np.full(grid.shape, float(c_g)),
        np.full(grid.shape, float(c_h)),
        KAHLER_PRODUCT,
        params={"recipe": "flat", "c_g": c_g, "c_h": c_h},
    )


def kahler_product_background(grid: TorusGrid, g_profile, h_profile) -> Background:
    """Product metric from per-factor profiles.

    g_profile: scalar or array of shape (n1, n2) on the z-factor;
    h_profile: scalar or array of shape (n3, n4) on the w-factor.
    """
    n1, n2, n3, n4 = grid.shape
    gp = np.asarray(g_profile, dtype=float)
    hp = np.asarray(h_profile, dtype=float)
    if gp.ndim == 0:
        gp = np.full((n1, n2), float(gp))
    if hp.ndim == 0:
        hp = np.full((n3, n4), float(hp))
    if gp.shape != (n1, n2):
        raise ConfigurationError(f"g profile shape {gp.shape} != {(n1, n2)}")
    if hp.shape != (n3, n4):
        raise ConfigurationError(f"h profile shape {hp.shape} != {(n3, n4)}")
    _check_positive("g profile", gp)
    _check_positive("h profile", hp)
    g4 = gp[:, :, None, None] * np.ones((1, 1, n3, n4))
    h4 = hp[None, None, :, :] * np.ones((n1, n2, 1, 1))
    return make_background(
        grid, g4, h4, KAHLER_PRODUCT, params={"recipe": "kahler_product"}
    )


def pluriclosed_background(
    grid: TorusGrid, c_g: float, c_h: float, modes
) -> Background:
    """Non-product pluriclosed background from separable cosine modes.

    Each mode (k, m, a) adds a*p_k(x1)*Q_m(x3) to g and subtracts
    a*P_k(x1)*q_m(x3) from h, where p_k = cos(2 pi k x1 / L1),
    q_m = cos(2 pi m x3 / L3) and P, Q are their factor Poisson
    antiderivatives, so g_wwb + h_zzb = 0 holds exactly.
    """
    x1, _, x3, _ = grid.mesh()
    L1, L3 = grid.periods[0], grid.periods[2]
    g = np.full(grid.shape, float(c_g))
    h = np.full(grid.shape, float(c_h))
    mode_list = []
    for k, m, a in modes:
        k, m, a = int(k), int(m), float(a)
        if k < 1 or m < 1:
            raise ConfigurationError("mode indices must be >= 1")
        p = np.cos(2 * np.pi * k * x1 / L1)
        q = np.cos(2 * np.pi * m * x3 / L3)
        P = -((L1 / (np.pi * k)) ** 2) * p
        Q = -((L3 / (np.pi * m)) ** 2) * q
        g = g + a * p * Q
        h = h - a * P * q
        mode_list.append((k, m, a))
    return make_background(
        grid,
        g,
        h,
        PLURICLOSED_GENERAL,
        params={"recipe": "pluriclosed_cos", "c_g": c_g, "c_h": c_h, "modes": mode_list},
    )


def verify_pluriclosed(bg: Background, lam: np.ndarray | None = None,
                       eta: np.ndarray | None = None) -> float:
    """sup |g_wwb + h_zzb|; with (lam, eta) supplied, the flowed version
    sup |(g lam)_wwb + (h eta)_zzb| instead."""
    grid = bg.grid
    if lam is None:
        gf, hf = bg.g.data, bg.h.data
    else:
        gf, hf = bg.g.data * lam, bg.h.data * eta
    r = factor_laplacian(grid, gf, "w") + factor_laplacian(grid, hf, "z")
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# torsion and curvature


@dataclass
class TorsionReport:
    norm_sq: RealField          # pointwise |T0|^2 in the background metric
    max_norm_sq: float
    max_grad: float             # grid max of |grad T0| (see formula below)


def torsion(bg: Background) -> TorsionReport:
    """Background torsion norms.

    |T0|^2 = |g_w/g|^2 / h + |h_z/h|^2 / g pointwise.

    |grad T0| is assembled componentwise from the covariant derivatives of
    the two torsion components a = -g_w and b = h_z under the diagonal
    background connection (coefficients g_z/g, g_w/g, h_z/h, h_w/h), with
    each derivative direction weighted by the matching inverse metric
    factor and each component by its own norm weight (1/(g^2 h) for a,
    1/(g h^2) for b).  This explicit formula makes the reported number
    reproducible; it is used only to over-estimate bound constants.
    """
    grid = bg.grid
    g, h = bg.g.data, bg.h.data
    g_hat, h_hat = fft.fftn(g), fft.fftn(h)

    d = functools.partial(_spectral_deriv, grid)
    g_z, g_w = d(g_hat, "z"), d(g_hat, "w")
    h_z, h_w = d(h_hat, "z"), d(h_hat, "w")
    nsq = (np.abs(g_w / g) ** 2) / h + (np.abs(h_z / h) ** 2) / g

    # component a = -g_w carries indices (z, w, zb); b = h_z carries
    # (z, w, wb).  Their derivatives are composite derivatives of g and h,
    # taken from the two spectra above.  One direction t is held at a
    # time, and its terms are added onto grad_sq on blocks of points.
    first = {"z": (g_z, h_z), "w": (g_w, h_w)}
    grad_sq = np.zeros(grid.shape)
    for t in ("z", "zb", "w", "wb"):
        fields = (g, h, g_w, h_z, *first[t[0]], d(g_hat, f"w {t}"),
                  d(h_hat, f"z {t}"), grad_sq)

        def add(sl):
            g, h, g_w, h_z, g_t, h_t, g_wt, h_zt, acc = (_part(f, sl)
                                                         for f in fields)
            if len(t) == 1:     # holomorphic connection, the same on a and b
                ca = cb = g_t / g + h_t / h
            else:               # conjugate connection of each coefficient
                ca, cb = np.conj(g_t / g), np.conj(h_t / h)
            da = -g_wt - ca * -g_w
            db = h_zt - cb * h_z
            inv_t = 1.0 / (g if t[0] == "z" else h)  # inverse metric factor
            acc = acc + inv_t * np.abs(da) ** 2 / (g * g * h)
            return [acc + inv_t * np.abs(db) ** 2 / (g * h * h)]

        on_blocks(add, grid.shape, [grad_sq])
        del fields  # before the next direction's derivatives are taken
    return TorsionReport(
        norm_sq=RealField(grid, nsq),
        max_norm_sq=float(np.max(nsq)),
        max_grad=float(np.sqrt(np.max(grad_sq))),
    )


@dataclass
class CurvatureReport:
    log_g_zzb: RealField
    log_g_wwb: RealField
    log_h_zzb: RealField
    log_h_wwb: RealField
    mixed_curvature_nonneg: bool    # (log h)_zzb >= 0 and (log g)_wwb >= 0


def curvature(bg: Background, tol: float = CURVATURE_TOL) -> CurvatureReport:
    """Second log-derivatives of the metric coefficients.

    The cross-factor components (log h)_zzb and (log g)_wwb are (minus)
    the curvatures of the two factor line bundles seen from the other
    factor; their pointwise nonnegativity is the hypothesis under which
    the trace floor is preserved along the flow.
    """
    grid = bg.grid
    fields = {}
    for coef, zzb, wwb in ((bg.g, "log_g_zzb", "log_g_wwb"),
                           (bg.h, "log_h_zzb", "log_h_wwb")):
        # one log field at a time: it is dropped before the next is taken
        zz, ww = factor_laplacians(grid, np.log(coef.data))
        fields[zzb], fields[wwb] = RealField(grid, zz), RealField(grid, ww)
    lh, lg = fields["log_h_zzb"], fields["log_g_wwb"]
    return CurvatureReport(
        mixed_curvature_nonneg=_mixed_nonneg(
            float(lh.data.min()), sup_norm(lh), float(lg.data.min()),
            sup_norm(lg), tol),
        **fields)


def _mixed_nonneg(lh_min, lh_sup, lg_min, lg_sup, tol) -> bool:
    """(log h)_zzb >= 0 and (log g)_wwb >= 0 from their minima and sups,
    each to tol (1 + the larger sup)."""
    scale = 1.0 + max(lh_sup, lg_sup)
    return lh_min >= -tol * scale and lg_min >= -tol * scale


# ---------------------------------------------------------------------------
# named constants


@dataclass
class ConstantsReport:
    """Named constants of the a-priori bounds, assembled for one background
    and exponent ratio.

    Indices c1..c14 follow the internal bookkeeping of the bound monitors:
    c1..c3 collect torsion terms entering the mixed-derivative pairing,
    c4..c8 the curvature/torsion terms of the mixed-norm growth
    inequality, c9..c11 the growth rate of the shifted mixed norm, and
    c12..c14 the growth rate of the composite upper-bound test function.
    a_psi shifts the mixed-norm test function; a_phi and b_phi weight the
    composite one.  Constants are grid maxima times a safety factor;
    over-estimation only loosens the monitored bounds.
    """

    beta: float
    beta_min: float
    c: float
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    a_psi: float
    b_phi: float | None
    a_phi: float | None
    c12: float | None
    c13: float | None
    c14: float | None
    epsilon: float | None
    delta: float | None
    notes: dict = field(default_factory=dict)


def b_phi_coefficient(beta: float) -> float:
    """Weight of the mixed-norm term in the composite test function:
    8(1+beta) / (beta (3 beta^2 + 6 beta - 1)); positive for beta above
    the universal threshold, tends to 2 as beta -> 1."""
    den = beta * (3.0 * beta**2 + 6.0 * beta - 1.0)
    if den <= 0.0:
        raise BelowBetaThreshold(
            f"beta = {beta} is below the universal threshold {BETA_MIN:.7f}"
        )
    return 8.0 * (1.0 + beta) / den


def _p_level(beta: float, eps: float, delta: float) -> float:
    """Maximum over x of the uncontrolled third-order coefficient
    -beta^2 (1-delta) + sqrt(beta)(1-beta) x - (1+beta-eps) x^2."""
    return -(beta**2) * (1.0 - delta) + beta * (1.0 - beta) ** 2 / (
        4.0 * (1.0 + beta - eps)
    )


def select_epsilon_delta(beta: float) -> tuple[float, float]:
    """Deterministic selection of (epsilon, delta) in (0,1)^2 so that the
    third-order coefficient maximum sits at the required negative level
    beta(1 - 6 beta - 3 beta^2) / (8 (1+beta)) within 1%.

    Grid search on the lattice of the 200 ticks k / 201, first hit wins;
    if the lattice straddles the level set (possible very close to the
    threshold), fall back to the exact delta-solve for each epsilon on the
    same lattice.
    """
    if beta <= BETA_MIN:
        raise BelowBetaThreshold(
            f"beta = {beta} is below the universal threshold {BETA_MIN:.7f}"
        )
    target = beta * (1.0 - 6.0 * beta - 3.0 * beta**2) / (8.0 * (1.0 + beta))
    ticks = [(i + 1) / 201 for i in range(200)]
    tol = 0.01 * abs(target)
    for eps in ticks:
        for delta in ticks:
            if abs(_p_level(beta, eps, delta) - target) <= tol:
                return eps, delta
    # exact delta given epsilon: the level is linear in delta
    for eps in ticks:
        q = beta * (1.0 - beta) ** 2 / (4.0 * (1.0 + beta - eps))
        delta = 1.0 + (target - q) / beta**2
        if 0.0 < delta < 1.0:
            return eps, delta
    raise BelowBetaThreshold(
        f"no admissible (epsilon, delta) for beta = {beta}"
    )


@dataclass(frozen=True)
class BoundMaxima:
    """The grid maxima that the bound constants read and that do not
    depend on c0, for one background and beta, before the safety factor.
    On Kahler products the torsion and the mixed curvature vanish, so all
    but the curvature sign are exact zeros (inv_coeff too: it multiplies
    only the torsion)."""

    kahler: bool
    mixed_curvature_nonneg: bool    # as curvature() reports it
    c: float            # sup|(log h)_zzb / g|, sup|(log g)_wwb / h|
    c4: float           # sup|((log h)_zzb - beta (log g)_zzb) / g|,
                        # sup|(beta (log g)_wwb - (log h)_wwb) / h|
    inv_coeff: float    # sup 1/g, sup 1/h
    t_max_sq: float     # the torsion's max_norm_sq
    t_grad: float       # and max_grad


def bound_maxima(bg: Background, beta: float) -> BoundMaxima:
    """The c0-independent maxima of constants(bg, beta, ...), each the max
    over its pair of sups.  The curvature is taken one factor at a time:
    each log coefficient's factor Laplacian is taken, reduced on blocks of
    points and dropped, so no curvature field is kept (a Kahler product
    takes only (log h)_zzb and (log g)_wwb, for the curvature sign, which
    is curvature()'s at its default tolerance).  Off Kahler products the
    torsion maxima come from torsion()."""
    g, h = bg.g.data, bg.h.data
    kahler = bg.kind == KAHLER_PRODUCT

    def lap(coef, factor):  # (log g) or (log h) _zzb or _wwb
        return factor_laplacian(bg.grid, np.log(coef), factor)

    # factor z: (log h)_zzb, and (log g)_zzb off Kahler products
    lh = lap(h, "z")
    lh_min, lh_sup = float(lh.min()), max(float(lh.max()), -float(lh.min()))
    if not kahler:
        lg = lap(g, "z")
        c_z = block_max(lambda lh, g: np.abs(lh / g).max(), lh, g)
        c4_z = block_max(lambda lh, lg, g: np.abs((lh - beta * lg) / g).max(),
                         lh, lg, g)
        del lg
    del lh
    # factor w: (log g)_wwb, and (log h)_wwb off Kahler products
    lg = lap(g, "w")
    lg_min, lg_sup = float(lg.min()), max(float(lg.max()), -float(lg.min()))
    nonneg = _mixed_nonneg(lh_min, lh_sup, lg_min, lg_sup, CURVATURE_TOL)
    if kahler:
        return BoundMaxima(True, nonneg, 0.0, 0.0, 0.0, 0.0, 0.0)
    lh = lap(h, "w")
    c_w = block_max(lambda lg, h: np.abs(lg / h).max(), lg, h)
    c4_w = block_max(lambda lg, lh, h: np.abs((beta * lg - lh) / h).max(),
                     lg, lh, h)
    del lg, lh
    tors = torsion(bg)
    return BoundMaxima(
        False, nonneg, max(c_z, c_w), max(c4_z, c4_w),
        max(block_max(lambda g: (1.0 / g).max(), g),
            block_max(lambda h: (1.0 / h).max(), h)),
        tors.max_norm_sq, tors.max_grad)


def constants(
    bg: Background,
    beta: float,
    c0: float,
    safety: float = 1.0,
    require_upper: bool = False,
) -> ConstantsReport:
    """Assemble the named bound constants for one background and beta:
    constants_from of bound_maxima(bg, beta).

    c0 is the trace bound sup(1/lambda + 1/eta) observed (or assumed) for
    the run being monitored.  The upper-bound constants (b_phi, a_phi,
    c12..c14, epsilon, delta) exist only for beta above the universal
    threshold; pass require_upper=True to make their absence an error.
    """
    return constants_from(bound_maxima(bg, beta), beta, c0, safety,
                          require_upper)


def constants_from(m: BoundMaxima, beta: float, c0: float,
                   safety: float = 1.0,
                   require_upper: bool = False) -> ConstantsReport:
    """The constants of constants() from the background's maxima m
    (bound_maxima(bg, beta)): scalar arithmetic only, one formula on every
    background.  On Kahler products m's maxima are exact zeros, so the
    constants take their exact product values (c3 = c7 = c8 = 0, c6 = 2,
    a_psi = 0, c11 = 2, a_phi = 0, c14 = 2 b_phi)."""
    if not (0.0 < beta <= 1.0):
        raise ConfigurationError(f"beta must lie in (0, 1], got {beta}")
    if not (c0 > 0.0):
        raise ConfigurationError(f"c0 must be positive, got {c0}")
    notes = {"safety": f"grid maxima scaled by {safety}",
             "kind": ("kahler product: torsion and mixed curvature vanish"
                      if m.kahler else
                      "general pluriclosed: conservative grid maxima")}
    t_max_sq = safety * m.t_max_sq
    t_grad = safety * m.t_grad
    # metric-normalised mixed curvature components
    c = safety * m.c
    # curvature combinations entering the mixed-norm growth inequality
    c4 = safety * m.c4

    c1 = c0 * t_grad
    c2 = c1 + beta * (1.0 - beta) * c0 * t_max_sq
    c3 = c2 + beta * c0**3 * t_max_sq
    c5 = c0 * c4
    c6 = c5 + 2.0
    c7 = safety * m.inv_coeff * c0**2 * t_max_sq
    c8 = c0**3 * t_max_sq
    c9 = c0**2 * c
    c10 = c8 * (1.0 / beta + 2.0 - beta**2)
    a_psi = c7 / beta
    c11 = c10 + c9 * a_psi + c3 + c6

    if beta > BETA_MIN:
        bp = b_phi_coefficient(beta)
        eps, delta = select_epsilon_delta(beta)
        a_phi = bp * c7 / beta
        c12 = c8 * (1.0 / eps + 1.0 / delta - beta**2)
        c13 = c9
        c14 = (c12 * bp + c13 * a_phi + bp * c3 / 2.0) + bp * (c6 + c3 / 2.0)
    else:
        if require_upper:
            raise BelowBetaThreshold(
                f"beta = {beta} is below the universal threshold {BETA_MIN:.7f}"
            )
        bp = a_phi = c12 = c13 = c14 = eps = delta = None

    return ConstantsReport(
        beta=beta,
        beta_min=BETA_MIN,
        c=c,
        c0=c0,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        c6=c6,
        c7=c7,
        c8=c8,
        c9=c9,
        c10=c10,
        c11=c11,
        a_psi=a_psi,
        b_phi=bp,
        a_phi=a_phi,
        c12=c12,
        c13=c13,
        c14=c14,
        epsilon=eps,
        delta=delta,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# background serialization


def save_background(bg: Background, directory: str | os.PathLike) -> None:
    os.makedirs(directory, exist_ok=True)
    write_field(bg.g, os.path.join(directory, "g.field"))
    write_field(bg.h, os.path.join(directory, "h.field"))
    desc = {
        "kind": bg.kind,
        "dims": list(bg.grid.shape),
        "periods": list(bg.grid.periods),
        "params": _jsonable(bg.params),
    }
    with atomic_write(os.path.join(directory, "background.json")) as fh:
        json.dump(desc, fh, indent=2)


def load_background(directory: str | os.PathLike) -> Background:
    with open(os.path.join(directory, "background.json")) as fh:
        desc = json.load(fh)
    g = read_field(os.path.join(directory, "g.field"))
    h = read_field(os.path.join(directory, "h.field"))
    return make_background(
        g.grid, g.data, h.data, desc["kind"], params=desc.get("params", {})
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
