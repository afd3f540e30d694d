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

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BelowBetaThreshold, ConfigurationError
from .grid_field import (
    RealField,
    TorusGrid,
    deriv_data,
    factor_laplacian,
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


def make_background(
    grid: TorusGrid, g_data, h_data, kind: str, validate: bool = True, params=None
) -> Background:
    g = RealField.create(grid, np.broadcast_to(g_data, grid.shape).copy())
    h = RealField.create(grid, np.broadcast_to(h_data, grid.shape).copy())
    bg = Background(grid, g, h, kind, params or {})
    if validate:
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
            g_w_dep = np.max(np.abs(g.data - g.data.mean(axis=(2, 3), keepdims=True)))
            h_z_dep = np.max(np.abs(h.data - h.data.mean(axis=(0, 1), keepdims=True)))
            if g_w_dep > PRODUCT_TOL * max(1.0, sup_norm(g)) or h_z_dep > (
                PRODUCT_TOL * max(1.0, sup_norm(h))
            ):
                raise ConfigurationError(
                    "product background has cross-factor dependence"
                )
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
    g_w = deriv_data(grid, g, "w")
    h_z = deriv_data(grid, h, "z")
    nsq = (np.abs(g_w / g) ** 2) / h + (np.abs(h_z / h) ** 2) / g
    g_z = deriv_data(grid, g, "z")
    h_w = deriv_data(grid, h, "w")

    a = -g_w
    b = h_z
    cz = g_z / g + h_z / h          # holomorphic z-connection on a and b
    cw = g_w / g + h_w / h          # holomorphic w-connection on a and b
    # component a carries indices (z, w, zb); component b carries (z, w, wb)
    da = {
        "z": deriv_data(grid, a, "z") - cz * a,
        "w": deriv_data(grid, a, "w") - cw * a,
        "zb": deriv_data(grid, a, "zb") - np.conj(g_z / g) * a,
        "wb": deriv_data(grid, a, "wb") - np.conj(g_w / g) * a,
    }
    db = {
        "z": deriv_data(grid, b, "z") - cz * b,
        "w": deriv_data(grid, b, "w") - cw * b,
        "zb": deriv_data(grid, b, "zb") - np.conj(h_z / h) * b,
        "wb": deriv_data(grid, b, "wb") - np.conj(h_w / h) * b,
    }
    inv_dir = {"z": 1.0 / g, "zb": 1.0 / g, "w": 1.0 / h, "wb": 1.0 / h}
    grad_sq = np.zeros(grid.shape)
    for d in ("z", "zb", "w", "wb"):
        grad_sq = grad_sq + inv_dir[d] * np.abs(da[d]) ** 2 / (g * g * h)
        grad_sq = grad_sq + inv_dir[d] * np.abs(db[d]) ** 2 / (g * h * h)
    nsq_real = np.ascontiguousarray(nsq.real)
    return TorsionReport(
        norm_sq=RealField(grid, nsq_real),
        max_norm_sq=float(np.max(nsq_real)),
        max_grad=float(np.sqrt(np.max(grad_sq))),
    )


@dataclass
class CurvatureReport:
    log_g_zzb: RealField
    log_g_wwb: RealField
    log_h_zzb: RealField
    log_h_wwb: RealField
    mixed_curvature_nonneg: bool    # (log h)_zzb >= 0 and (log g)_wwb >= 0


def curvature(bg: Background, tol: float = 1e-10) -> CurvatureReport:
    """Second log-derivatives of the metric coefficients.

    The cross-factor components (log h)_zzb and (log g)_wwb are (minus)
    the curvatures of the two factor line bundles seen from the other
    factor; their pointwise nonnegativity is the hypothesis under which
    the trace floor is preserved along the flow.
    """
    grid = bg.grid
    lg = np.log(bg.g.data)
    lh = np.log(bg.h.data)
    fields = {}
    for name, src, factor in (
        ("log_g_zzb", lg, "z"),
        ("log_g_wwb", lg, "w"),
        ("log_h_zzb", lh, "z"),
        ("log_h_wwb", lh, "w"),
    ):
        fields[name] = RealField(grid, factor_laplacian(grid, src, factor))
    scale = 1.0 + max(sup_norm(fields["log_h_zzb"]), sup_norm(fields["log_g_wwb"]))
    ok = (
        float(fields["log_h_zzb"].data.min()) >= -tol * scale
        and float(fields["log_g_wwb"].data.min()) >= -tol * scale
    )
    return CurvatureReport(
        log_g_zzb=fields["log_g_zzb"],
        log_g_wwb=fields["log_g_wwb"],
        log_h_zzb=fields["log_h_zzb"],
        log_h_wwb=fields["log_h_wwb"],
        mixed_curvature_nonneg=ok,
    )


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


def select_epsilon_delta(beta: float, gridsize: int = 200) -> tuple[float, float]:
    """Deterministic selection of (epsilon, delta) in (0,1)^2 so that the
    third-order coefficient maximum sits at the required negative level
    beta(1 - 6 beta - 3 beta^2) / (8 (1+beta)) within 1%.

    Grid search, first hit wins; if the lattice straddles the level set
    (possible very close to the threshold), fall back to the exact
    delta-solve for each epsilon on the same lattice.
    """
    if beta <= BETA_MIN:
        raise BelowBetaThreshold(
            f"beta = {beta} is below the universal threshold {BETA_MIN:.7f}"
        )
    target = beta * (1.0 - 6.0 * beta - 3.0 * beta**2) / (8.0 * (1.0 + beta))
    ticks = [(i + 1) / (gridsize + 1) for i in range(gridsize)]
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


def constants(
    bg: Background,
    beta: float,
    c0: float,
    safety: float = 1.0,
    require_upper: bool = False,
    curv: CurvatureReport | None = None,
) -> ConstantsReport:
    """Assemble the named bound constants for one background and beta.

    c0 is the trace bound sup(1/lambda + 1/eta) observed (or assumed) for
    the run being monitored.  The upper-bound constants (b_phi, a_phi,
    c12..c14, epsilon, delta) exist only for beta above the universal
    threshold; pass require_upper=True to make their absence an error.
    curv is the background's curvature report, computed here if omitted.

    On Kahler products the torsion vanishes identically and the constants
    collapse to their exact product values (c3 = c7 = c8 = 0, c6 = 2,
    a_psi = 0, c11 = 2, a_phi = 0, c14 = 2 b_phi).
    """
    if not (0.0 < beta <= 1.0):
        raise ConfigurationError(f"beta must lie in (0, 1], got {beta}")
    if not (c0 > 0.0):
        raise ConfigurationError(f"c0 must be positive, got {c0}")
    grid = bg.grid
    g, h = bg.g.data, bg.h.data
    kahler = bg.kind == KAHLER_PRODUCT
    notes = {"safety": f"grid maxima scaled by {safety}"}

    cur = curv if curv is not None else curvature(bg)
    lg_zzb = cur.log_g_zzb.data
    lg_wwb = cur.log_g_wwb.data
    lh_zzb = cur.log_h_zzb.data
    lh_wwb = cur.log_h_wwb.data

    if kahler:
        t_max_sq = 0.0
        t_grad = 0.0
        c = 0.0
        c4 = 0.0
        c9 = 0.0
        notes["kind"] = "kahler product: torsion and mixed curvature vanish"
    else:
        tors = torsion(bg)
        t_max_sq = safety * tors.max_norm_sq
        t_grad = safety * tors.max_grad
        # metric-normalised mixed curvature components
        c = safety * max(
            float(np.max(np.abs(lh_zzb / g))), float(np.max(np.abs(lg_wwb / h)))
        )
        # curvature combinations entering the mixed-norm growth inequality
        comb_z = np.abs((lh_zzb - beta * lg_zzb) / g)
        comb_w = np.abs((beta * lg_wwb - lh_wwb) / h)
        c4 = safety * max(float(np.max(comb_z)), float(np.max(comb_w)))
        c9 = c0**2 * c
        notes["kind"] = "general pluriclosed: conservative grid maxima"

    c1 = c0 * t_grad
    c2 = c1 + beta * (1.0 - beta) * c0 * t_max_sq
    c3 = c2 + beta * c0**3 * t_max_sq
    c5 = c0 * c4
    c6 = c5 + 2.0
    if kahler:
        c7 = 0.0
        c8 = 0.0
    else:
        inv_coeff = max(float(np.max(1.0 / g)), float(np.max(1.0 / h)))
        c7 = safety * inv_coeff * c0**2 * t_max_sq
        c8 = c0**3 * t_max_sq
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
    with open(os.path.join(directory, "background.json"), "w") as fh:
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
