"""Numerical verification of the evolution identities satisfied by the
flow, at a single time slice.

Every identity is a statement about H(expr) = d(expr)/dt - L(expr) for
some functional expr of the potential's derivatives.  Time never appears
explicitly: the material-derivative substitution replaces d/dt of any
potential derivative by the matching spatial derivative of the flow speed
beta log(lambda) - log(eta), turning each identity into a purely spatial
equation evaluated spectrally.  Residuals are then limited only by
spectral truncation of the nonlinear composites, so true identities
converge geometrically under grid refinement while false ones stall.

The chain rule is forward-mode differentiation: a functional is built
as a Dual, a pair (value, d/dt) whose arithmetic and the functions log,
abs2 and real apply the sum, product, quotient and chain rules.  The
slice supplies the Duals of the potential's derivatives (ws.U(op)) and of
the traces (ws.Lam, ws.Eta); a field constant in time (g, h, a number) is
a plain array or number.  One evaluation of the expression gives both
halves of H(expr).

Two spectral paths meet in a slice.  The linearised operator L and the
factor Laplacians ("z zb", "w wb") of every derived field (the speed,
lambda, eta, the background coefficients) use the factor Laplacian
matrices of grid_field, so d/dt and L of one array apply the same
kernel and the sanity identity H(du/dt) = 0 holds to rounding.  The
potential instead keeps one full complex spectrum, from which all its
derivatives come, u_zzb and u_wwb (hence lambda and eta) included: it
needs that spectrum anyway for the mixed derivatives, and sending its
Laplacians through the kernel instead raises most fine-grid residuals
about tenfold (A3 at 32^4, beta = 0.7, seed 3, from 9.6e-13 to 1.5e-11,
past the 1e-11 convergence floor of the identity recipe).

A slice keeps only what is reused, since at 32^4 each complex field is
16 MiB and the number of live arrays bounds the grid the suite can reach.
It caches the derivatives of its base fields (the potential, lambda, eta,
the speed, and on a manifold slice g and h) and, of the spectra, only the
potential's.  Another base field's spectrum lives for one request, which
computes every op the identities take of that field.  Base fields are
real, so their "zb" and "wb" derivatives are conjugates of the cached "z"
and "w".  Not cached: u_zzb and u_wwb, which give lambda and eta when the
slice is built; the helper fields an identity differentiates once
(log(g lambda) and log(h eta) in B12, |u_zwb|^2 and 1/eta in C33), which
go through one transient spectrum in derivs().  Each identity drops its
arrays before the next one is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from . import _backend as fft
from .errors import AdmissibilityLost, ConfigurationError
from .flow import flow_speed, lambda_eta
from .geometry import Background, verify_pluriclosed
from .grid_field import (RealField, TorusGrid, _spectral_deriv,
                         factor_laplacian, factor_laplacians)

_FACTOR_LAPLACIANS = {"z zb": "z", "w wb": "w"}
_CONJUGATES = {"zb": "z", "wb": "w"}

# ---------------------------------------------------------------------------
# evaluation workspaces


class _SliceBase:
    """Spectral evaluation of one admissible time slice with the traces
    lambda = a + u_zzb/g and eta = b - u_wwb/h.  The base fields are "u",
    "lam", "eta" and the flow speed "spd"; the module docstring sets out
    what is cached.  _GROUPS lists, for a base field other than the
    potential, the ops computed together from its one spectrum; an op
    outside the group gets a spectrum of its own."""

    _GROUPS: dict = {"lam": ("z", "w"), "eta": ("z", "w")}

    def __init__(self, u: RealField, g, h, a: float, b: float, beta: float,
                 floor: float):
        self.grid = u.grid
        self.beta = beta
        self.g, self.h = g, h
        self._u_hat = fft.fftn(u.data)
        self._derivs: dict = {}
        # u_zzb and u_wwb give lambda and eta and are not cached
        lam = a + _spectral_deriv(self.grid, self._u_hat, "z zb").real / g
        eta = b - _spectral_deriv(self.grid, self._u_hat, "w wb").real / h
        if float(lam.min()) <= floor or float(eta.min()) <= floor:
            raise AdmissibilityLost(f"{type(self).__name__} is not admissible")
        self.lam, self.eta = lam, eta
        self._bases: dict = {"u": u.data, "lam": lam, "eta": eta,
                             "spd": flow_speed(lam, eta, beta)}
        self.coef_z = beta / (g * lam)
        self.coef_w = 1.0 / (h * eta)

    def base(self, key: str) -> np.ndarray:
        return self._bases[key]

    def U(self, op: str = "") -> Dual:
        """Derivative op of the potential; op '' is the potential itself."""
        return Dual(self.u(op), self.dt_u(op))

    @property
    def Lam(self) -> Dual:
        """lambda = a + u_zzb/g, so d/dt lambda = spd_zzb/g."""
        return Dual(self.lam, self.d("spd", "z zb") / self.g)

    @property
    def Eta(self) -> Dual:
        """eta = b - u_wwb/h, so d/dt eta = -spd_wwb/h."""
        return Dual(self.eta, -self.d("spd", "w wb") / self.h)

    def d(self, key: str, op: str) -> np.ndarray:
        """Cached spectral derivative of a base field.  The factor
        Laplacians of every base field but the potential use the factor
        kernel, the one L uses, so d/dt and L of a derived field agree to
        rounding.  Base fields are real, so "zb" and "wb" are the
        conjugates of the cached "z" and "w", with no transform."""
        if op in _CONJUGATES:
            return np.conj(self.d(key, _CONJUGATES[op]))
        ck = (key, op)
        if ck not in self._derivs:
            if key == "u":
                self._derivs[ck] = _spectral_deriv(self.grid, self._u_hat, op)
            elif op in _FACTOR_LAPLACIANS:
                self._derivs[ck] = factor_laplacian(
                    self.grid, self._bases[key], _FACTOR_LAPLACIANS[op])
            else:
                ops = self._GROUPS.get(key, ())
                if op not in ops:
                    ops = (op,)
                outs = self.derivs(self._bases[key], *ops)
                self._derivs.update(((key, o), out) for o, out in zip(ops, outs))
        return self._derivs[ck]

    def derivs(self, arr: np.ndarray, *ops: str) -> list[np.ndarray]:
        """Spectral derivatives of a field, all from one spectrum, which is
        then dropped; nothing is cached."""
        hat = fft.fftn(arr)
        return [_spectral_deriv(self.grid, hat, op) for op in ops]

    def L(self, arr: np.ndarray) -> np.ndarray:
        """Linearised spatial operator, through the factor Laplacians of
        a real or complex array (one slab pass per real array)."""
        if not np.iscomplexobj(arr):
            lz, lw = factor_laplacians(self.grid, arr)
        else:
            lz, lw = (np.empty(arr.shape, dtype=np.complex128) for _ in range(2))
            lz.real, lw.real = factor_laplacians(self.grid, arr.real)
            lz.imag, lw.imag = factor_laplacians(self.grid, arr.imag)
        np.multiply(self.coef_z, lz, out=lz)
        np.multiply(self.coef_w, lw, out=lw)
        lz += lw
        return lz


class ManifoldSlice(_SliceBase):
    """Slice of the flow on a pluriclosed background:
    lambda = 1 + u_zzb/g, eta = 1 - u_wwb/h."""

    _GROUPS = dict(_SliceBase._GROUPS, spd=("z w",),
                   g=("z", "w", "z w"), h=("z", "w", "z w"))

    def __init__(self, u: RealField, bg: Background, beta: float,
                 floor: float = 1e-10):
        super().__init__(u, bg.g.data, bg.h.data, 1.0, 1.0, beta, floor)
        self._bases.update(g=bg.g.data, h=bg.h.data)

    def u(self, op: str = "") -> np.ndarray:
        return self.base("u") if op == "" else self.d("u", op)

    def dt_u(self, op: str) -> np.ndarray:
        return self.base("spd") if op == "" else self.d("spd", op)


class LocalSlice(_SliceBase):
    """Slice of the local flow with potential a|z|^2 - b|w|^2 + phi:
    lambda = a + phi_zzb, eta = b - phi_wwb.

    Only derivatives of order >= 2 of the potential are defined (they are
    the periodic ones); the quadratic part contributes the constants a and
    -b to the two pure traces and nothing else.
    """

    _GROUPS = dict(_SliceBase._GROUPS, spd=("z w", "z wb"))

    def __init__(self, phi: RealField, a: float, b: float, beta: float,
                 floor: float = 1e-10):
        self.a, self.b = float(a), float(b)
        super().__init__(phi, 1.0, 1.0, self.a, self.b, beta, floor)

    @staticmethod
    def _second_order(op: str) -> list[str]:
        toks = sorted(op.split())
        if len(toks) < 2:
            raise ConfigurationError(
                "local slice supports potential derivatives of order >= 2 only"
            )
        return toks

    def u(self, op: str = "") -> np.ndarray:
        toks = self._second_order(op)
        out = self.d("u", op)
        if toks == ["z", "zb"]:
            out = out + self.a
        elif toks == ["w", "wb"]:
            out = out - self.b
        return out

    def dt_u(self, op: str) -> np.ndarray:
        self._second_order(op)
        return self.d("spd", op)


class StateSlice(ManifoldSlice):
    """A kept flow state, or a block of its points: the stored traces, g and
    h there and derivs = {("u" or "spd", op): array} from the derivative
    kernels, so it takes no transform.  L needs the whole grid."""

    def __init__(self, grid: TorusGrid, g, h, lam, eta, beta: float,
                 derivs: dict):
        self.grid, self.beta, self.g, self.h = grid, beta, g, h
        self.lam, self.eta, self._derivs = lam, eta, derivs
        self._bases = {"g": g, "h": h}
        self.coef_z = beta / (g * lam)
        self.coef_w = 1.0 / (h * eta)


# ---------------------------------------------------------------------------
# dual numbers: a functional and its time derivative


class Dual:
    """A slice functional as (value v, time derivative d); either is a
    scalar where it is constant in space.  +, -, * and / apply the sum,
    product and quotient rules; an operand that is not a Dual is constant
    in time.  A product of two Duals drops a term whose derivative is the
    scalar 0."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # ndarray op Dual calls the Dual's method

    def __init__(self, v, d=0.0):
        self.v, self.d = v, d

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v + o.v, self.d + o.d)
        return Dual(self.v + o, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v - o.v, self.d - o.d)
        return Dual(self.v - o, self.d)

    def __rsub__(self, c):
        return Dual(c - self.v, -self.d)

    def __mul__(self, o):
        if not isinstance(o, Dual):
            return Dual(self.v * o, self.d * o)
        terms = [d * v for d, v in ((self.d, o.v), (o.d, self.v))
                 if isinstance(d, np.ndarray) or d != 0]
        return Dual(self.v * o.v, sum(terms[1:], terms[0]) if terms else 0.0)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Dual):
            return Dual(self.v / o, self.d / o)
        return Dual(self.v / o.v, (self.d * o.v - self.v * o.d) / (o.v * o.v))

    def __rtruediv__(self, c):
        return Dual(c / self.v, -c * self.d / (self.v * self.v))


def log(f: Dual) -> Dual:
    return Dual(np.log(f.v), f.d / f.v)


def abs2(f: Dual) -> Dual:
    """|f|^2, real."""
    cv = np.conj(f.v)
    return Dual((f.v * cv).real, 2.0 * (cv * f.d).real)


def real(f: Dual) -> Dual:
    return Dual(f.v.real, f.d.real)


def heat_residual(f: Dual, ws) -> np.ndarray:
    """H(f) = df/dt - L(f), fully spatial."""
    return f.d - ws.L(f.v)


def material_derivative(expr, u: RealField, bg: Background, beta: float):
    """Time derivative of a slice functional along the flow, evaluated by
    the chain-rule substitution; expr maps a ManifoldSlice to a Dual (e.g.
    lambda ws: log(ws.Lam)).  Returns the raw array."""
    return expr(ManifoldSlice(u, bg, beta)).d


# direction vectors (v_z, v_w) of the quadratic forms W(v, vbar) tested
W_VECTORS = ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)))


def w_quads(w11: Dual, w12: Dual, w22: Dual):
    """Yield W(v, vbar) as a Dual for each v in W_VECTORS, from the
    entries of W."""
    for va, vb in W_VECTORS:  # no term of zero weight, no product by 1
        wts = (abs(va) ** 2, 2.0 * va * np.conj(vb), abs(vb) ** 2)
        yield reduce(add, [x if w == 1 else w * x
                           for w, x in zip(wts, (w11, real(w12), w22)) if w])


# ---------------------------------------------------------------------------
# results


@dataclass
class IdentityResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    kind: str = "equality"          # "equality" | "inequality" | "sanity"
    beta: float = 0.0
    grid_shape: tuple = ()
    note: str = ""
    inputs: dict = field(default_factory=dict)


def _rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1.0)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _result(name, lhs, rhs, tol, beta, grid, note="", kind="equality"):
    r = _rel_residual(lhs, rhs)
    return IdentityResult(
        name=name, residual=r, tolerance=tol, passed=r <= tol,
        kind=kind, beta=beta, grid_shape=grid.shape, note=note,
    )


# ---------------------------------------------------------------------------
# first identity group: traces and their logs/reciprocals


def verify_A(u: RealField, bg: Background, beta: float,
             tol: float = 1e-8, ws: ManifoldSlice | None = None
             ) -> list[IdentityResult]:
    """Evolution identities of the traces on a pluriclosed background."""
    if ws is None:
        ws = ManifoldSlice(u, bg, beta)
    g, h = ws.base("g"), ws.base("h")
    lam, eta = ws.lam, ws.eta
    lam_z, lam_w = ws.d("lam", "z"), ws.d("lam", "w")
    eta_z, eta_w = ws.d("eta", "z"), ws.d("eta", "w")
    g_w, h_z = ws.d("g", "w"), ws.d("h", "z")
    g_wwb, h_zzb = ws.d("g", "w wb").real, ws.d("h", "z zb").real
    out = []

    # A1: action of the linearised operator on the potential itself
    lhs = ws.L(ws.u())
    rhs = 1.0 / eta - beta / lam + (beta - 1.0)
    out.append(_result("A1", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs

    # A2: heat operator on the potential
    lhs = heat_residual(ws.U(), ws)
    rhs = ws.base("spd") + beta / lam - 1.0 / eta + (1.0 - beta)
    out.append(_result("A2", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs

    # A3: the flowed form stays pluriclosed; the sup of the sum against 0
    out.append(_result("A3", verify_pluriclosed(bg, lam, eta), 0.0, tol,
                       beta, ws.grid, note="(g lam)_wwb + (h eta)_zzb = 0"))

    # A4: heat operator on lambda
    lhs = heat_residual(ws.Lam, ws)
    rhs = (
        -(beta / g) * np.abs(lam_z / lam) ** 2
        + (2.0 / (h * eta)) * (g_w * np.conj(lam_w) / g).real
        + (1.0 / g) * np.abs(eta_z / eta) ** 2
        + (2.0 / g) * (h_z * np.conj(eta_z) / (h * eta)).real
        + (g_wwb / (g * h)) * (lam / eta)
        + h_zzb / (g * h)
    )
    out.append(_result("A4", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs

    # A5: heat operator on eta
    lhs = heat_residual(ws.Eta, ws)
    rhs = (
        (beta / h) * np.abs(lam_w / lam) ** 2
        + (2.0 * beta / h) * (g_w * np.conj(lam_w) / (g * lam)).real
        + (2.0 * beta / (g * lam)) * (h_z * np.conj(eta_z) / h).real
        - (1.0 / h) * np.abs(eta_w / eta) ** 2
        + beta * (h_zzb / (g * h)) * (eta / lam)
        + beta * g_wwb / (g * h)
    )
    out.append(_result("A5", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs

    # A6: heat operator on log lambda
    sq_w = np.abs(lam_w / lam + g_w / g) ** 2
    sq_z = np.abs(eta_z / eta + h_z / h) ** 2
    h_loglam = heat_residual(log(ws.Lam), ws)
    rhs = (
        sq_w / (h * eta)
        + sq_z / (g * lam)
        + (h_zzb / h - np.abs(h_z / h) ** 2) / (g * lam)
        + (g_wwb / g - np.abs(g_w / g) ** 2) / (h * eta)
    )
    out.append(_result("A6", h_loglam, rhs, tol, beta, ws.grid))
    del rhs

    # A7: the two log traces evolve proportionally
    lhs = heat_residual(log(ws.Eta), ws)
    rhs = beta * h_loglam
    out.append(_result("A7", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs, h_loglam

    # A8: heat operator on 1/lambda.  The torsion cross term enters with
    # half weight relative to a naive completed square; the form below is
    # the one that balances A4 exactly (it coincides with the completed
    # square when the torsion vanishes).
    lhs = heat_residual(1.0 / ws.Lam, ws)
    rhs = (
        -(beta / (g * lam**2)) * np.abs(lam_z / lam) ** 2
        - (2.0 / (h * lam * eta))
        * (np.abs(lam_w / lam) ** 2 + ((lam_w / lam) * np.conj(g_w) / g).real)
        - sq_z / (g * lam**2)
        - (h_zzb / h - np.abs(h_z / h) ** 2) / (g * lam**2)
        - (g_wwb / g) / (h * lam * eta)
    )
    out.append(_result("A8", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs

    # A9: heat operator on 1/eta (same half-weight structure on the
    # z-factor cross term)
    lhs = heat_residual(1.0 / ws.Eta, ws)
    rhs = (
        -(beta / (h * eta**2)) * sq_w
        - (beta / (h * eta**2)) * (g_wwb / g - np.abs(g_w / g) ** 2)
        - (2.0 * beta / (g * lam * eta))
        * (np.abs(eta_z / eta) ** 2 + ((eta_z / eta) * np.conj(h_z) / h).real)
        - (beta / (g * lam * eta)) * (h_zzb / h)
        - (1.0 / (h * eta**2)) * np.abs(eta_w / eta) ** 2
    )
    out.append(_result("A9", lhs, rhs, tol, beta, ws.grid))
    del lhs, rhs

    # sanity: the speed itself solves the linearised heat equation, by
    # construction of the substitution
    lhs = heat_residual(beta * log(ws.Lam) - log(ws.Eta), ws)
    out.append(_result("L16", lhs, np.zeros_like(lhs), 1e-13, beta, ws.grid,
                       kind="sanity", note="H(du/dt) = 0 by construction"))
    return out


# ---------------------------------------------------------------------------
# second identity group: mixed derivative and its Bochner formula


def _psi_component(ws) -> np.ndarray:
    """Source term of the rough heat flow of the mixed derivative."""
    g, h = ws.base("g"), ws.base("h")
    lam, eta = ws.lam, ws.eta
    beta = ws.beta
    lam_z, lam_w = ws.d("lam", "z"), ws.d("lam", "w")
    eta_z, eta_w = ws.d("eta", "z"), ws.d("eta", "w")
    g_z, g_w = ws.d("g", "z"), ws.d("g", "w")
    h_z, h_w = ws.d("h", "z"), ws.d("h", "w")
    g_zw, h_zw = ws.d("g", "z w"), ws.d("h", "z w")
    return (
        (h_zw - h_z * h_w / h - h_z * g_w / g) * (eta - 1.0) / (h * eta)
        + beta * (-g_zw + g_z * g_w / g + h_z * g_w / h) * (lam - 1.0) / (g * lam)
        + (beta - 1.0) * eta_z * g_w / (g * eta)
        - beta * eta_z * g_w / (g * lam * eta)
        + h_z * eta_w / (h * eta**2)
        + (beta - 1.0) * h_z * lam_w / (h * lam)
        - beta * lam_z * g_w / (g * lam**2)
        + h_z * lam_w / (h * lam * eta)
        + (beta - 1.0) * eta_z * lam_w / (eta * lam)
    )


def verify_B(u: RealField, bg: Background, beta: float, tol: float = 1e-8,
             constants_report=None, ws: ManifoldSlice | None = None
             ) -> list[IdentityResult]:
    """Mixed-derivative evolution: rough heat flow source, connection
    consistency, the norm Bochner identity, and the endpoint growth
    inequality."""
    if ws is None:
        ws = ManifoldSlice(u, bg, beta)
    g, h = ws.base("g"), ws.base("h")
    lam, eta = ws.lam, ws.eta
    lam_z, lam_w = ws.d("lam", "z"), ws.d("lam", "w")
    eta_z, eta_w = ws.d("eta", "z"), ws.d("eta", "w")
    g_z, g_w = ws.d("g", "z"), ws.d("g", "w")
    h_z, h_w = ws.d("h", "z"), ws.d("h", "w")
    u_zw = ws.u("z w")
    u_zwzb = ws.u("z w zb")
    u_zwwb = ws.u("z w wb")
    sigma_z = g_z / g + lam_z / lam + h_z / h + eta_z / eta
    sigma_w = g_w / g + lam_w / lam + h_w / h + eta_w / eta
    V = (beta / (g * lam)) * (1.0 / (h * eta))
    psi = _psi_component(ws)
    out = []

    # B11: rough heat flow of the mixed derivative equals the source
    lhs = (
        heat_residual(ws.U("z w"), ws)
        + (beta / (g * lam)) * sigma_z * u_zwzb
        + (1.0 / (h * eta)) * sigma_w * u_zwwb
    )
    out.append(_result("B11", lhs, psi, tol, beta, ws.grid))
    del lhs

    # B12: connection coefficients agree with log-derivatives of the
    # adjusted metric coefficients
    res = 0.0
    for coef, trace in (("g", "lam"), ("h", "eta")):
        cf, tr = ws.base(coef), ws.base(trace)
        logs = ws.derivs(np.log(cf * tr), "z", "w")
        for op, log_d in zip(("z", "w"), logs):
            r = (ws.d(coef, op) / cf + ws.d(trace, op) / tr) - log_d
            res = max(res, float(np.max(np.abs(r))))
        del logs, log_d, r
    out.append(
        IdentityResult("B12", res, tol, res <= tol, "equality", beta, ws.grid.shape,
                       note="connection coefficients vs log-derivatives")
    )

    # B25: anti-holomorphic derivative norm of the mixed form in closed form
    dbar_sq = V * (
        (beta / (g * lam)) * np.abs(u_zwzb) ** 2
        + (1.0 / (h * eta)) * np.abs(u_zwwb) ** 2
    )
    rhs = (beta**2 / (h * eta)) * np.abs(
        lam_w / lam + g_w / g - g_w / (g * lam)
    ) ** 2 + (beta / (g * lam)) * np.abs(
        eta_z / eta + h_z / h - h_z / (h * eta)
    ) ** 2
    out.append(_result("B25", dbar_sq, rhs, tol, beta, ws.grid))
    del rhs

    # B18: Bochner identity for the squared norm of the mixed form
    h_mixed = heat_residual(
        beta * abs2(ws.U("z w")) * (1.0 / (g * ws.Lam * h * ws.Eta)), ws)
    grad_z = ws.u("z z w") - sigma_z * u_zw
    grad_w = ws.u("z w w") - sigma_w * u_zw
    grad_sq = V * (
        (beta / (g * lam)) * np.abs(grad_z) ** 2
        + (1.0 / (h * eta)) * np.abs(grad_w) ** 2
    )
    del grad_z, grad_w
    h_logdet = heat_residual(
        np.log(g) + log(ws.Lam) + np.log(h) + log(ws.Eta), ws)
    mixed_sq = V * np.abs(u_zw) ** 2
    pairing = 2.0 * (V * psi * np.conj(u_zw)).real
    rhs = -dbar_sq - grad_sq - mixed_sq * h_logdet + pairing
    out.append(_result("B18", h_mixed, rhs, tol, beta, ws.grid))
    del rhs, dbar_sq, grad_sq, h_logdet, pairing, psi

    # B23: endpoint growth inequality with conservative constants
    if constants_report is not None:
        cr = constants_report
        s = np.sqrt(mixed_sq)
        bracket = (
            -(beta**2) * (1.0 - cr.delta)
            + math.sqrt(beta) * (1.0 - beta) * s
            - (1.0 + beta - cr.epsilon) * s**2
        )
        third = (1.0 / (h * eta)) * np.abs(lam_w / lam + g_w / g) ** 2 + (
            1.0 / (g * lam)
        ) * np.abs(eta_z / eta + h_z / h) ** 2
        rhs = (
            cr.c8 * (1.0 / cr.epsilon + 1.0 / cr.delta - beta**2)
            + cr.c3 * s
            + cr.c6 * s**2
            + cr.c7
            * (
                np.abs(eta_w / eta) ** 2 / (h * eta**2)
                + np.abs(lam_z / lam) ** 2 / (g * lam**2)
            )
            + bracket * third
        )
        lhs_ineq = h_mixed.real
        margin = float(np.min(rhs - lhs_ineq))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        passed = margin >= -tol * scale
        out.append(
            IdentityResult(
                "B23", -margin / scale if margin < 0 else 0.0, tol, passed,
                "inequality", beta, ws.grid.shape,
                note=f"min margin {margin:.3e}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# third identity group: the local equation and the transform matrix


def verify_C(phi: RealField, a: float, b: float, beta: float,
             tol: float = 1e-8) -> list[IdentityResult]:
    """Evolution identities of the local flow and the subsolution property
    of the transform matrix, on the quadratic-plus-periodic slice."""
    ws = LocalSlice(phi, a, b, beta)
    lam, eta = ws.lam, ws.eta
    lam_z, lam_w = ws.d("lam", "z"), ws.d("lam", "w")
    eta_z, eta_w = ws.d("eta", "z"), ws.d("eta", "w")
    c = ws.u("z wb")
    cbar = np.conj(c)
    u_zzwb = ws.u("z z wb")
    u_wwzb = ws.u("w w zb")
    u_zwbwb = ws.u("z wb wb")
    out = []
    grid = ws.grid

    # C27 family: pure second derivatives obey the same quadratic source
    for i, j in (("z", "zb"), ("z", "w"), ("z", "wb"), ("w", "wb")):
        op = f"{i} {j}"
        lhs = heat_residual(ws.U(op), ws)
        rhs = (
            -beta * ws.d("lam", i) * ws.d("lam", j) / lam**2
            + ws.d("eta", i) * ws.d("eta", j) / eta**2
        )
        out.append(_result(f"C27[{i}{j}]", lhs, rhs, tol, beta, grid))
        del lhs, rhs

    # C28 / C30: the traces themselves
    lhs = heat_residual(ws.Lam, ws)
    rhs = -beta * np.abs(lam_z / lam) ** 2 + np.abs(eta_z / eta) ** 2
    out.append(_result("C28", lhs, rhs, tol, beta, grid))
    del lhs, rhs

    lhs = heat_residual(ws.U("z wb"), ws)
    rhs = (
        -beta * lam_z * np.conj(lam_w) / lam**2
        + eta_z * np.conj(eta_w) / eta**2
    )
    out.append(_result("C29", lhs, rhs, tol, beta, grid))
    del lhs, rhs

    lhs = heat_residual(ws.Eta, ws)
    rhs = beta * np.abs(lam_w / lam) ** 2 - np.abs(eta_w / eta) ** 2
    out.append(_result("C30", lhs, rhs, tol, beta, grid))
    del lhs, rhs

    # C31: reciprocal of eta is a subsolution in closed form
    rhs31 = (
        -(beta / eta**2) * np.abs(lam_w / lam) ** 2
        - (2.0 * beta / (lam * eta)) * np.abs(eta_z / eta) ** 2
        - (1.0 / eta**2) * np.abs(eta_w / eta) ** 2
    )
    lhs = heat_residual(1.0 / ws.Eta, ws)
    out.append(_result("C31", lhs, rhs31, tol, beta, grid))
    del lhs

    # C32: squared modulus of the skew second derivative
    lhs = heat_residual(abs2(ws.U("z wb")), ws)
    rhs = (
        -(2.0 * beta / lam**2) * (cbar * lam_z * np.conj(lam_w)).real
        + (2.0 / eta**2) * (cbar * eta_z * np.conj(eta_w)).real
        - (beta / lam) * (np.abs(lam_w) ** 2 + np.abs(u_zzwb) ** 2)
        - (1.0 / eta) * (np.abs(u_wwzb) ** 2 + np.abs(eta_z) ** 2)
    )
    out.append(_result("C32", lhs, rhs, tol, beta, grid))
    del lhs, rhs

    # C33: product-rule form for |u_zwb|^2 / eta
    absc = (c * cbar).real
    absc_z, absc_w = ws.derivs(absc, "z", "w")
    inveta_z, inveta_w = ws.derivs(1.0 / eta, "z", "w")
    lhs = heat_residual(abs2(ws.U("z wb")) / ws.Eta, ws)
    rhs = (
        (2.0 / eta**3) * (cbar * eta_z * np.conj(eta_w)).real
        - (beta / (lam * eta)) * (np.abs(lam_w) ** 2 + np.abs(u_zzwb) ** 2)
        - (1.0 / eta**2) * (np.abs(u_wwzb) ** 2 + np.abs(eta_z) ** 2)
        + absc * rhs31
        - (2.0 * beta / (lam**2 * eta)) * (cbar * lam_z * np.conj(lam_w)).real
        - (2.0 * beta / lam)
        * (absc_z * np.conj(inveta_z)).real
        - (2.0 / eta)
        * (absc_w * np.conj(inveta_w)).real
    )
    out.append(_result("C33", lhs, rhs, tol, beta, grid))
    del rhs, absc_z, absc_w, inveta_z, inveta_w

    # C34: same statement with the product derivatives substituted
    rhs = (
        -(beta / (lam * eta)) * (np.abs(lam_w) ** 2 + np.abs(u_zzwb) ** 2)
        - (1.0 / eta**2) * (np.abs(u_wwzb) ** 2 + np.abs(eta_z) ** 2)
        + absc * rhs31
        - (2.0 * beta / (lam**2 * eta)) * (cbar * lam_z * np.conj(lam_w)).real
        + (2.0 / eta**3) * (cbar * eta_z * np.conj(eta_w)).real
        + (2.0 * beta / lam)
        * ((cbar * u_zzwb + lam_w * c) * np.conj(eta_z) / eta**2).real
        + (2.0 / eta)
        * ((c * u_wwzb - cbar * eta_z) * np.conj(eta_w) / eta**2).real
    )
    out.append(_result("C34", lhs, rhs, tol, beta, grid))
    del lhs, rhs, absc

    # C35: completed-square form for the first diagonal transform entry.
    # All three factor-weighted squares carry beta; the derivation fixes
    # the weight of the second square, which balances only with beta.
    sq1 = np.abs(lam_z / lam + c * lam_w / (lam * eta)) ** 2
    sq2 = np.abs(lam_w / np.sqrt(lam * eta) - cbar * eta_z / np.sqrt(lam * eta**3)) ** 2
    sq3 = np.abs(u_zzwb / np.sqrt(lam * eta) - c * eta_z / np.sqrt(lam * eta**3)) ** 2
    sq4 = np.abs(u_wwzb / eta - cbar * eta_w / eta**2) ** 2
    rhs35 = -beta * sq1 - beta * sq2 - beta * sq3 - sq4
    lhs = heat_residual(ws.Lam + abs2(ws.U("z wb")) / ws.Eta, ws)
    out.append(_result("C35", lhs, rhs35, tol, beta, grid))
    del lhs, sq1, sq2, sq3, sq4

    # C36: off-diagonal entry, product-rule form
    lhs36 = heat_residual(ws.U("z wb") / ws.Eta, ws)
    rhs = (
        -beta * lam_z * np.conj(lam_w) / (lam**2 * eta)
        + eta_z * np.conj(eta_w) / eta**3
        + c * rhs31
        + (beta / lam)
        * (np.conj(lam_w) * eta_z / eta**2 + np.conj(eta_z) * u_zzwb / eta**2)
        + (1.0 / eta) * (u_zwbwb * eta_w / eta**2 - eta_z * np.conj(eta_w) / eta**2)
    )
    out.append(_result("C36", lhs36, rhs, tol, beta, grid))
    del rhs

    # C37: off-diagonal entry, regrouped into the pairing blocks
    t37 = (
        beta * (np.conj(eta_z) / np.sqrt(lam * eta**3))
        * (u_zzwb / np.sqrt(lam * eta) - c * eta_z / np.sqrt(lam * eta**3))
        + (u_zwbwb / eta - c * np.conj(eta_w) / eta**2) * (eta_w / eta**2)
        - beta * (lam_z / lam + c * lam_w / (lam * eta)) * (np.conj(lam_w) / (lam * eta))
        + beta * (np.conj(lam_w) / np.sqrt(lam * eta)
                  - c * np.conj(eta_z) / np.sqrt(lam * eta**3))
        * (eta_z / np.sqrt(lam * eta**3))
    )
    out.append(_result("C37", lhs36, t37, tol, beta, grid))
    del lhs36

    # quadratic form: direct heat residual equals the block expansion and
    # the expansion is pointwise nonpositive
    quads = w_quads(ws.Lam + abs2(ws.U("z wb")) / ws.Eta,
                    ws.U("z wb") / ws.Eta, 1.0 / ws.Eta)
    for va, vb in W_VECTORS:
        lhs = heat_residual(next(quads), ws)
        expansion = (
            abs(va) ** 2 * rhs35
            + 2.0 * (va * np.conj(vb) * t37).real
            + abs(vb) ** 2 * rhs31
        )
        tag = f"HW[{va:.2f},{vb:.2f}]"
        out.append(_result(tag, lhs, expansion, tol, beta, grid))
        del lhs
        top = float(np.max(expansion))
        scale = max(1.0, float(np.max(np.abs(expansion))))
        out.append(
            IdentityResult(
                tag + "<=0", max(top, 0.0) / scale, 1e-10,
                top <= 1e-10 * scale, "inequality", beta, grid.shape,
                note=f"max value {top:.3e}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# reproducible band-limited test data


def random_test_field(
    grid: TorusGrid,
    seed: int,
    amplitude: float,
    band,
    bg: Background | None = None,
    beta: float = 0.5,
) -> RealField:
    """Reproducible zero-mean band-limited random field with sup-norm
    equal to amplitude.  band is an int (max integer wavenumber per
    direction) or an iterable of allowed shell indices max_i |k_i|.

    When a background is supplied, admissibility of the field as a
    potential is checked and a violation raises; the check takes the
    factor Laplacians, no transform, and does not depend on beta.
    """
    if amplitude < 0:
        raise ConfigurationError("amplitude must be nonnegative")
    if isinstance(band, int):
        shells = set(range(1, band + 1))
    else:
        shells = set(int(s) for s in band)
    if not shells or min(shells) < 1:
        raise ConfigurationError("band must contain positive shell indices")
    rng = np.random.default_rng(seed)
    hat = np.zeros(grid.shape, dtype=complex)
    kmax = max(shells)
    n1, n2, n3, n4 = grid.shape
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            for k3 in range(-kmax, kmax + 1):
                for k4 in range(-kmax, kmax + 1):
                    shell = max(abs(k1), abs(k2), abs(k3), abs(k4))
                    if shell not in shells:
                        continue
                    idx = (k1 % n1, k2 % n2, k3 % n3, k4 % n4)
                    hat[idx] = rng.standard_normal() + 1j * rng.standard_normal()
    u = np.fft.ifftn(hat).real
    u -= u.mean()
    sup = np.max(np.abs(u))
    if amplitude == 0.0 or sup == 0.0:
        return RealField.zeros(grid)
    u *= amplitude / sup
    out = RealField(grid, u)
    if bg is not None:
        lambda_eta(out, bg)  # raises AdmissibilityLost if invalid
    return out
