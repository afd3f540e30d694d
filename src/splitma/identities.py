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

The chain rule is forward-mode differentiation: each functional is built
as a Dual, so one evaluation of the expression gives both halves of
H(expr).  The fields derived from the potential take their factor
Laplacians from L's matrices (_SliceBase.d), but the potential takes
all its derivatives from its one complex spectrum: it needs that spectrum
for its mixed derivatives anyway, and taking its Laplacians from the
matrices raises most fine-grid residuals about tenfold, past the
identity recipe's 1e-11 convergence floor.

Map: the slices (_SliceBase; ManifoldSlice, LocalSlice, StateSlice);
Dual; the identity groups verify_A, verify_B and verify_C, whose
pointwise work runs on blocks of grid_field.BLOCK points (_checker,
heat_residual); random_test_field.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import add, attrgetter

import numpy as np

from . import _backend as fft
from .errors import AdmissibilityLost, ConfigurationError
from .flow import Linearised, flow_speed, lambda_eta
from .geometry import Background, verify_pluriclosed
from .grid_field import (RealField, TorusGrid, _map_blocks, _on_pool_thread,
                         _part, _spectral_deriv, factor_laplacian, on_blocks)

_FACTOR_LAPLACIANS = {"z zb": "z", "w wb": "w"}
_CONJUGATES = {"zb": "z", "wb": "w"}

# ---------------------------------------------------------------------------
# evaluation workspaces


class _SliceBase:
    """Spectral evaluation of one admissible time slice with the traces
    lambda = a + u_zzb/g and eta = b - u_wwb/h, and L = flow.Linearised at
    them.  The base fields are "u", "lam", "eta" and the speed "spd".

    A slice keeps only what is reused: at 32^4 each complex field is 16
    MiB, and the live arrays bound the grid the suite can reach.  It keeps
    the potential's spectrum, and the derivatives of the base fields until
    the last identity that reads them (d); not u_zzb and u_wwb, nor the
    fields an identity differentiates once (derivs).  _GROUPS lists, for a
    base field other than the potential, the ops computed together from
    its one spectrum, which lives for that request; an op outside the
    group gets a spectrum of its own."""

    _GROUPS: dict = {"lam": ("z", "w"), "eta": ("z", "w")}
    _sl = None      # the block of points a copy made by at() reads
    _pool = False   # whether at() made the copy on a slab pool thread

    def __init__(self, u: RealField, g, h, a: float, b: float, beta: float,
                 floor: float):
        self.grid = u.grid
        self.beta = beta
        self.g, self.h = g, h
        self._u_hat = fft.fftn(u.data)
        self._derivs: dict = {}
        lam = a + _spectral_deriv(self.grid, self._u_hat, "z zb").real / g
        eta = b - _spectral_deriv(self.grid, self._u_hat, "w wb").real / h
        if float(lam.min()) <= floor or float(eta.min()) <= floor:
            raise AdmissibilityLost(f"{type(self).__name__} is not admissible")
        self.lam, self.eta = lam, eta
        self._bases: dict = {"u": u.data, "lam": lam, "eta": eta,
                             "spd": flow_speed(lam, eta, beta)}
        self.L = Linearised(self.grid, g, h, lam, eta, beta)

    def at(self, sl: slice) -> "_SliceBase":
        """The slice on the block sl of its flattened points, sharing the
        cache; a derivative not cached yet is taken on the whole grid, but
        on a pool thread, which may enter no function of the package and
        takes no transform, it raises."""
        p = copy.copy(self)
        p._sl, p._pool = sl, _on_pool_thread()
        p.g, p.h, p.lam, p.eta = map(p.part, (p.g, p.h, p.lam, p.eta))
        return p

    def part(self, a):
        """The points of a whole field that this slice reads."""
        return a if self._sl is None else _part(a, self._sl)

    def base(self, key: str) -> np.ndarray:
        return self.part(self._bases[key])

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
            if self._pool:
                raise RuntimeError(
                    f"derivative {op!r} of {key!r} is not cached: a block on "
                    "a pool thread takes no transform")
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
        return self.part(self._derivs[ck])

    def derivs(self, arr: np.ndarray, *ops: str) -> list[np.ndarray]:
        """Spectral derivatives of a field, all from one spectrum, which is
        then dropped; nothing is cached."""
        hat = fft.fftn(arr)
        return [_spectral_deriv(self.grid, hat, op) for op in ops]

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
    """A kept flow state: the stored traces, g and h and derivs = {("u" or
    "spd", op): array} from the derivative kernels, so it takes no
    transform; at(sl) gives a block of its points."""

    def __init__(self, grid: TorusGrid, g, h, lam, eta, beta: float,
                 derivs: dict):
        self.grid, self.beta, self.g, self.h = grid, beta, g, h
        self.lam, self.eta, self._derivs = lam, eta, derivs
        self._bases = {"g": g, "h": h}
        self.L = Linearised(grid, g, h, lam, eta, beta)


# ---------------------------------------------------------------------------
# dual numbers: a functional and its time derivative


class Dual:
    """A slice functional as (value v, time derivative d); either is a
    scalar where it is constant in space.  +, -, * and / apply the sum,
    product and quotient rules; an operand that is not a Dual is constant
    in time.  A product of two Duals drops a term whose derivative is the
    scalar 0.  log, abs2 and real are methods, not module functions, so a
    block evaluated on a pool thread enters no traced function."""

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

    def log(self) -> "Dual":
        return Dual(np.log(self.v), self.d / self.v)

    def abs2(self) -> "Dual":
        """|f|^2, real."""
        cv = np.conj(self.v)
        return Dual((self.v * cv).real, 2.0 * (cv * self.d).real)

    def real(self) -> "Dual":
        return Dual(self.v.real, self.d.real)


def _whole(ws, fn) -> list[np.ndarray]:
    """Whole fields whose points on each block p = ws.at(sl) are fn(p)."""
    return on_blocks(lambda sl: fn(ws.at(sl)), ws.grid.shape)


def heat_residual(ws, f) -> np.ndarray:
    """H f = df/dt - L f on the whole grid, for a Dual f of whole fields, or
    a function f of a slice to a Dual, then evaluated on blocks of points."""
    if callable(f):
        f = Dual(*_whole(ws, lambda p, fn=f: attrgetter("v", "d")(fn(p))))
    return ws.L(f.v, f.d)


def material_derivative(expr, u: RealField, bg: Background, beta: float):
    """Time derivative of a slice functional along the flow, evaluated by
    the chain-rule substitution; expr maps a ManifoldSlice to a Dual (e.g.
    lambda ws: ws.Lam.log()).  Returns the raw array."""
    return expr(ManifoldSlice(u, bg, beta)).d


# direction vectors (v_z, v_w) of the quadratic forms W(v, vbar) tested
W_VECTORS = ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2)))


def _w_quads(w11: Dual, w12: Dual, w22: Dual):
    """Yield W(v, vbar) as a Dual for each v in W_VECTORS, from the
    entries of W."""
    for va, vb in W_VECTORS:  # no term of zero weight, no product by 1
        wts = (abs(va) ** 2, 2.0 * va * np.conj(vb), abs(vb) ** 2)
        yield reduce(add, [x if w == 1 else w * x
                           for w, x in zip(wts, (w11, w12.real(), w22)) if w])


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


def _maxima(ws, fn) -> np.ndarray:
    """The max over ws's points of each array of fn(p), block by block."""
    return np.max(_map_blocks(lambda sl: [np.max(x) for x in fn(ws.at(sl))],
                              ws.grid.shape), axis=0)


def _checker(ws, rows, tol):
    """check(name, *fields, tol, note, kind): the result of the identity
    name, whose (lhs, rhs) on a block p is rows(p)[name] of the points p of
    the whole fields: max|lhs - rhs| / max(max|lhs|, max|rhs|, 1)."""
    def check(name, *fields, tol=tol, note="", kind="equality"):
        def absmax(p):
            lhs, rhs = rows(p)[name](*map(p.part, fields))
            return [np.abs(lhs), np.abs(rhs), np.abs(lhs - rhs)]
        top_lhs, top_rhs, top = _maxima(ws, absmax)
        r = float(top) / max(float(top_lhs), float(top_rhs), 1.0)
        return IdentityResult(name, r, tol, r <= tol, kind, ws.beta,
                              ws.grid.shape, note)
    return check


# ---------------------------------------------------------------------------
# first identity group: traces and their logs/reciprocals


def verify_A(u: RealField, bg: Background, beta: float,
             tol: float = 1e-8, ws: ManifoldSlice | None = None
             ) -> list[IdentityResult]:
    """Evolution identities of the traces on a pluriclosed background."""
    if ws is None:
        ws = ManifoldSlice(u, bg, beta)

    def rows(p):  # each identity's (lhs, rhs) on a block p, from its args
        g, h, lam, eta = p.g, p.h, p.lam, p.eta
        lam_z, lam_w = p.d("lam", "z"), p.d("lam", "w")
        eta_z, eta_w = p.d("eta", "z"), p.d("eta", "w")
        g_w, h_z = p.d("g", "w"), p.d("h", "z")
        g_wwb, h_zzb = p.d("g", "w wb").real, p.d("h", "z zb").real
        return {
            # A1: action of the linearised operator on the potential itself
            "A1": lambda lu: (lu, 1.0 / eta - beta / lam + (beta - 1.0)),
            # A2: heat operator on the potential
            "A2": lambda H: (
                H, p.base("spd") + beta / lam - 1.0 / eta + (1.0 - beta)),
            # A3: the flowed form stays pluriclosed; the sup of the sum
            # against 0
            "A3": lambda sup: (sup, 0.0),
            # A4: heat operator on lambda
            "A4": lambda H: (H, (
                -(beta / g) * np.abs(lam_z / lam) ** 2
                + (2.0 / (h * eta)) * (g_w * np.conj(lam_w) / g).real
                + (1.0 / g) * np.abs(eta_z / eta) ** 2
                + (2.0 / g) * (h_z * np.conj(eta_z) / (h * eta)).real
                + (g_wwb / (g * h)) * (lam / eta)
                + h_zzb / (g * h))),
            # A5: heat operator on eta
            "A5": lambda H: (H, (
                (beta / h) * np.abs(lam_w / lam) ** 2
                + (2.0 * beta / h) * (g_w * np.conj(lam_w) / (g * lam)).real
                + (2.0 * beta / (g * lam)) * (h_z * np.conj(eta_z) / h).real
                - (1.0 / h) * np.abs(eta_w / eta) ** 2
                + beta * (h_zzb / (g * h)) * (eta / lam)
                + beta * g_wwb / (g * h))),
            # A6: heat operator on log lambda
            "A6": lambda H: (H, (
                np.abs(lam_w / lam + g_w / g) ** 2 / (h * eta)
                + np.abs(eta_z / eta + h_z / h) ** 2 / (g * lam)
                + (h_zzb / h - np.abs(h_z / h) ** 2) / (g * lam)
                + (g_wwb / g - np.abs(g_w / g) ** 2) / (h * eta))),
            # A7: the two log traces evolve proportionally
            "A7": lambda H, h_loglam: (H, beta * h_loglam),
            # A8: heat operator on 1/lambda.  The torsion cross term enters
            # with half weight relative to a naive completed square; the
            # form below is the one that balances A4 exactly (it coincides
            # with the completed square when the torsion vanishes).
            "A8": lambda H: (H, (
                -(beta / (g * lam**2)) * np.abs(lam_z / lam) ** 2
                - (2.0 / (h * lam * eta))
                * (np.abs(lam_w / lam) ** 2
                   + ((lam_w / lam) * np.conj(g_w) / g).real)
                - np.abs(eta_z / eta + h_z / h) ** 2 / (g * lam**2)
                - (h_zzb / h - np.abs(h_z / h) ** 2) / (g * lam**2)
                - (g_wwb / g) / (h * lam * eta))),
            # A9: heat operator on 1/eta (same half-weight structure on the
            # z-factor cross term)
            "A9": lambda H: (H, (
                -(beta / (h * eta**2)) * np.abs(lam_w / lam + g_w / g) ** 2
                - (beta / (h * eta**2)) * (g_wwb / g - np.abs(g_w / g) ** 2)
                - (2.0 * beta / (g * lam * eta))
                * (np.abs(eta_z / eta) ** 2
                   + ((eta_z / eta) * np.conj(h_z) / h).real)
                - (beta / (g * lam * eta)) * (h_zzb / h)
                - (1.0 / (h * eta**2)) * np.abs(eta_w / eta) ** 2)),
            # sanity: the speed itself solves the linearised heat equation,
            # by construction of the substitution
            "L16": lambda H: (H, 0.0),
        }

    check = _checker(ws, rows, tol)
    out = [check("A1", ws.L(ws.u())),
           check("A2", heat_residual(ws, ws.U())),
           check("A3", verify_pluriclosed(bg, ws.lam, ws.eta),
                 note="(g lam)_wwb + (h eta)_zzb = 0"),
           check("A4", heat_residual(ws, ws.Lam)),
           check("A5", heat_residual(ws, ws.Eta))]
    h_loglam = heat_residual(ws, lambda p: p.Lam.log())
    out += [check("A6", h_loglam),
            check("A7", heat_residual(ws, lambda p: p.Eta.log()), h_loglam)]
    del h_loglam
    out += [check("A8", heat_residual(ws, lambda p: 1.0 / p.Lam)),
            check("A9", heat_residual(ws, lambda p: 1.0 / p.Eta)),
            check("L16", heat_residual(
                ws, lambda p: beta * p.Lam.log() - p.Eta.log()), tol=1e-13,
                kind="sanity", note="H(du/dt) = 0 by construction")]
    del ws._derivs["g", "w wb"], ws._derivs["h", "z zb"]  # read by A alone
    return out


# ---------------------------------------------------------------------------
# second identity group: mixed derivative and its Bochner formula


def verify_B(u: RealField, bg: Background, beta: float, tol: float = 1e-8,
             constants_report=None, ws: ManifoldSlice | None = None
             ) -> list[IdentityResult]:
    """Mixed-derivative evolution: rough heat flow source, connection
    consistency, the norm Bochner identity, and the endpoint growth
    inequality."""
    if ws is None:
        ws = ManifoldSlice(u, bg, beta)
    cr = constants_report

    def rows(p):  # each identity's (lhs, rhs) on a block p, from its args
        g, h, lam, eta = p.g, p.h, p.lam, p.eta
        lam_z, lam_w = p.d("lam", "z"), p.d("lam", "w")
        eta_z, eta_w = p.d("eta", "z"), p.d("eta", "w")
        g_z, g_w = p.d("g", "z"), p.d("g", "w")
        h_z, h_w = p.d("h", "z"), p.d("h", "w")
        u_zw = p.u("z w")
        V = (beta / (g * lam)) * (1.0 / (h * eta))

        def sigma():
            return (g_z / g + lam_z / lam + h_z / h + eta_z / eta,
                    g_w / g + lam_w / lam + h_w / h + eta_w / eta)

        def psi():  # source term of the rough heat flow of the mixed form
            g_zw, h_zw = p.d("g", "z w"), p.d("h", "z w")
            return (
                (h_zw - h_z * h_w / h - h_z * g_w / g) * (eta - 1.0) / (h * eta)
                + beta * (-g_zw + g_z * g_w / g + h_z * g_w / h) * (lam - 1.0)
                / (g * lam)
                + (beta - 1.0) * eta_z * g_w / (g * eta)
                - beta * eta_z * g_w / (g * lam * eta)
                + h_z * eta_w / (h * eta**2)
                + (beta - 1.0) * h_z * lam_w / (h * lam)
                - beta * lam_z * g_w / (g * lam**2)
                + h_z * lam_w / (h * lam * eta)
                + (beta - 1.0) * eta_z * lam_w / (eta * lam))

        def dbar_sq():  # anti-holomorphic derivative norm of the mixed form
            return V * ((beta / (g * lam)) * np.abs(p.u("z w zb")) ** 2
                        + (1.0 / (h * eta)) * np.abs(p.u("z w wb")) ** 2)

        def grad_sq():
            sigma_z, sigma_w = sigma()
            grad_z = p.u("z z w") - sigma_z * u_zw
            grad_w = p.u("z w w") - sigma_w * u_zw
            return V * ((beta / (g * lam)) * np.abs(grad_z) ** 2
                        + (1.0 / (h * eta)) * np.abs(grad_w) ** 2)

        def b11(H, psi):  # the rough heat flow of u_zw equals the source
            sigma_z, sigma_w = sigma()
            return (H + (beta / (g * lam)) * sigma_z * p.u("z w zb")
                    + (1.0 / (h * eta)) * sigma_w * p.u("z w wb"), psi)

        def b23(h_mixed):  # the endpoint growth inequality: (-margin, |rhs|)
            s = np.sqrt(V * np.abs(u_zw) ** 2)
            bracket = (-(beta**2) * (1.0 - cr.delta)
                       + math.sqrt(beta) * (1.0 - beta) * s
                       - (1.0 + beta - cr.epsilon) * s**2)
            third = ((1.0 / (h * eta)) * np.abs(lam_w / lam + g_w / g) ** 2
                     + (1.0 / (g * lam)) * np.abs(eta_z / eta + h_z / h) ** 2)
            rhs = (cr.c8 * (1.0 / cr.epsilon + 1.0 / cr.delta - beta**2)
                   + cr.c3 * s + cr.c6 * s**2
                   + cr.c7 * (np.abs(eta_w / eta) ** 2 / (h * eta**2)
                              + np.abs(lam_z / lam) ** 2 / (g * lam**2))
                   + bracket * third)
            return [-(rhs - h_mixed.real), np.abs(rhs)]

        return {
            "psi": psi,
            "B11": b11,
            # B25: anti-holomorphic derivative norm in closed form
            "B25": lambda: (dbar_sq(), (beta**2 / (h * eta)) * np.abs(
                lam_w / lam + g_w / g - g_w / (g * lam)) ** 2
                + (beta / (g * lam)) * np.abs(
                    eta_z / eta + h_z / h - h_z / (h * eta)) ** 2),
            # B18: Bochner identity for the squared norm of the mixed form
            "B18": lambda H, h_logdet, psi: (
                H, -dbar_sq() - grad_sq() - V * np.abs(u_zw) ** 2 * h_logdet
                + 2.0 * (V * psi * np.conj(u_zw)).real),
            "B23": b23,
        }

    check = _checker(ws, rows, tol)
    psi, = _whole(ws, lambda p: [rows(p)["psi"]()])
    del ws._derivs["g", "z w"], ws._derivs["h", "z w"]  # read by psi alone
    out = [check("B11", heat_residual(ws, ws.U("z w")), psi)]

    # B12: connection coefficients agree with log-derivatives of the
    # adjusted metric coefficients
    res = []
    for coef, trace in (("g", "lam"), ("h", "eta")):
        logs = ws.derivs(np.log(ws.base(coef) * ws.base(trace)), "z", "w")
        res.append(_maxima(ws, lambda p: [
            np.abs((p.d(coef, op) / p.base(coef) + p.d(trace, op)
                    / p.base(trace)) - p.part(log_d))
            for op, log_d in zip(("z", "w"), logs)]))
        del logs
    res = float(np.max(res))
    out += [IdentityResult("B12", res, tol, res <= tol, "equality", beta,
                           ws.grid.shape, note="connection coefficients vs "
                           "log-derivatives"),
            check("B25")]

    h_mixed = heat_residual(ws, lambda p: beta * p.U("z w").abs2() * (
        1.0 / (p.g * p.Lam * p.h * p.Eta)))
    out.append(check("B18", h_mixed, heat_residual(
        ws, lambda p: np.log(p.g) + p.Lam.log() + np.log(p.h) + p.Eta.log()),
        psi))
    del psi
    for op in ("z z w", "z w w", "z w zb", "z w wb"):  # read last by B18
        del ws._derivs["u", op]

    # B23: endpoint growth inequality with conservative constants
    if cr is not None:
        neg, top = _maxima(ws, lambda p: rows(p)["B23"](p.part(h_mixed)))
        margin, scale = -float(neg), max(1.0, float(top))
        out.append(IdentityResult(
            "B23", -margin / scale if margin < 0 else 0.0, tol,
            margin >= -tol * scale, "inequality", beta, ws.grid.shape,
            note=f"min margin {margin:.3e}"))
    ws._derivs.clear()  # group B is the slice's last reader
    return out


# ---------------------------------------------------------------------------
# third identity group: the local equation and the transform matrix


def verify_C(phi: RealField, a: float, b: float, beta: float,
             tol: float = 1e-8) -> list[IdentityResult]:
    """Evolution identities of the local flow and the subsolution property
    of the transform matrix, on the quadratic-plus-periodic slice."""
    ws = LocalSlice(phi, a, b, beta)
    pairs = (("z", "zb"), ("z", "w"), ("z", "wb"), ("w", "wb"))

    def rows(p):  # each identity's (lhs, rhs) on a block p, from its args
        lam, eta = p.lam, p.eta
        lam_z, lam_w = p.d("lam", "z"), p.d("lam", "w")
        eta_z, eta_w = p.d("eta", "z"), p.d("eta", "w")
        c = p.u("z wb")
        cbar = np.conj(c)
        u_zzwb, u_wwzb = p.u("z z wb"), p.u("w w zb")

        def rhs31():  # reciprocal of eta is a subsolution in closed form
            return (
                -(beta / eta**2) * np.abs(lam_w / lam) ** 2
                - (2.0 * beta / (lam * eta)) * np.abs(eta_z / eta) ** 2
                - (1.0 / eta**2) * np.abs(eta_w / eta) ** 2)

        def rhs35():
            # completed-square form for the first diagonal transform entry.
            # All three factor-weighted squares carry beta; the derivation
            # fixes the weight of the second square, which balances only
            # with beta.
            sq1 = np.abs(lam_z / lam + c * lam_w / (lam * eta)) ** 2
            sq2 = np.abs(lam_w / np.sqrt(lam * eta)
                         - cbar * eta_z / np.sqrt(lam * eta**3)) ** 2
            sq3 = np.abs(u_zzwb / np.sqrt(lam * eta)
                         - c * eta_z / np.sqrt(lam * eta**3)) ** 2
            sq4 = np.abs(u_wwzb / eta - cbar * eta_w / eta**2) ** 2
            return -beta * sq1 - beta * sq2 - beta * sq3 - sq4

        def t37():  # off-diagonal entry, regrouped into the pairing blocks
            return (
                beta * (np.conj(eta_z) / np.sqrt(lam * eta**3))
                * (u_zzwb / np.sqrt(lam * eta)
                   - c * eta_z / np.sqrt(lam * eta**3))
                + (p.u("z wb wb") / eta - c * np.conj(eta_w) / eta**2)
                * (eta_w / eta**2)
                - beta * (lam_z / lam + c * lam_w / (lam * eta))
                * (np.conj(lam_w) / (lam * eta))
                + beta * (np.conj(lam_w) / np.sqrt(lam * eta)
                          - c * np.conj(eta_z) / np.sqrt(lam * eta**3))
                * (eta_z / np.sqrt(lam * eta**3)))

        return {
            "rhs31": rhs31, "rhs35": rhs35, "t37": t37,
            "absc": lambda: (c * cbar).real,
            # C27 family: pure second derivatives obey the same quadratic
            # source
            **{f"C27[{i}{j}]": lambda H, i=i, j=j: (H, (
                -beta * p.d("lam", i) * p.d("lam", j) / lam**2
                + p.d("eta", i) * p.d("eta", j) / eta**2)) for i, j in pairs},
            # C28 / C30: the traces themselves
            "C28": lambda H: (
                H, -beta * np.abs(lam_z / lam) ** 2 + np.abs(eta_z / eta) ** 2),
            "C29": lambda H: (H, (
                -beta * lam_z * np.conj(lam_w) / lam**2
                + eta_z * np.conj(eta_w) / eta**2)),
            "C30": lambda H: (
                H, beta * np.abs(lam_w / lam) ** 2 - np.abs(eta_w / eta) ** 2),
            "C31": lambda H, rhs31: (H, rhs31),
            # C32: squared modulus of the skew second derivative
            "C32": lambda H: (H, (
                -(2.0 * beta / lam**2) * (cbar * lam_z * np.conj(lam_w)).real
                + (2.0 / eta**2) * (cbar * eta_z * np.conj(eta_w)).real
                - (beta / lam) * (np.abs(lam_w) ** 2 + np.abs(u_zzwb) ** 2)
                - (1.0 / eta) * (np.abs(u_wwzb) ** 2 + np.abs(eta_z) ** 2))),
            # C33: product-rule form for |u_zwb|^2 / eta
            "C33": lambda H, rhs31, absc_z, absc_w, inveta_z, inveta_w: (H, (
                (2.0 / eta**3) * (cbar * eta_z * np.conj(eta_w)).real
                - (beta / (lam * eta)) * (np.abs(lam_w) ** 2 + np.abs(u_zzwb) ** 2)
                - (1.0 / eta**2) * (np.abs(u_wwzb) ** 2 + np.abs(eta_z) ** 2)
                + (c * cbar).real * rhs31
                - (2.0 * beta / (lam**2 * eta)) * (cbar * lam_z * np.conj(lam_w)).real
                - (2.0 * beta / lam)
                * (absc_z * np.conj(inveta_z)).real
                - (2.0 / eta)
                * (absc_w * np.conj(inveta_w)).real)),
            # C34: same statement with the product derivatives substituted
            "C34": lambda H, rhs31: (H, (
                -(beta / (lam * eta)) * (np.abs(lam_w) ** 2 + np.abs(u_zzwb) ** 2)
                - (1.0 / eta**2) * (np.abs(u_wwzb) ** 2 + np.abs(eta_z) ** 2)
                + (c * cbar).real * rhs31
                - (2.0 * beta / (lam**2 * eta)) * (cbar * lam_z * np.conj(lam_w)).real
                + (2.0 / eta**3) * (cbar * eta_z * np.conj(eta_w)).real
                + (2.0 * beta / lam)
                * ((cbar * u_zzwb + lam_w * c) * np.conj(eta_z) / eta**2).real
                + (2.0 / eta)
                * ((c * u_wwzb - cbar * eta_z) * np.conj(eta_w) / eta**2).real
            )),
            "C35": lambda H, rhs35: (H, rhs35),
            # C36: off-diagonal entry, product-rule form
            "C36": lambda H, rhs31: (H, (
                -beta * lam_z * np.conj(lam_w) / (lam**2 * eta)
                + eta_z * np.conj(eta_w) / eta**3
                + c * rhs31
                + (beta / lam)
                * (np.conj(lam_w) * eta_z / eta**2
                   + np.conj(eta_z) * u_zzwb / eta**2)
                + (1.0 / eta) * (p.u("z wb wb") * eta_w / eta**2
                                 - eta_z * np.conj(eta_w) / eta**2))),
            # C37: off-diagonal entry, regrouped into the pairing blocks
            "C37": lambda H, t37: (H, t37),
            # quadratic form W(v, vbar): its expansion in the blocks
            "HW": lambda va, vb, rhs35, t37, rhs31: (
                abs(va) ** 2 * rhs35
                + 2.0 * (va * np.conj(vb) * t37).real
                + abs(vb) ** 2 * rhs31
            ),
            **{f"HW[{va:.2f},{vb:.2f}]": lambda H, e: (H, e)
               for va, vb in W_VECTORS},
        }

    check = _checker(ws, rows, tol)
    out = []
    # the C27 rows alone read u_zzb, u_zw, u_wwb and spd_zw
    c27_only = {("u", "z zb"), ("u", "z w"), ("u", "w wb"), ("spd", "z w")}
    for i, j in pairs:
        op = f"{i} {j}"
        out.append(check(f"C27[{i}{j}]", heat_residual(ws, ws.U(op))))
        for k in c27_only & {("u", op), ("spd", op)}:
            del ws._derivs[k]
    out += [check("C28", heat_residual(ws, ws.Lam)),
            check("C29", heat_residual(ws, ws.U("z wb"))),
            check("C30", heat_residual(ws, ws.Eta))]

    rhs31, = _whole(ws, lambda p: [rows(p)["rhs31"]()])
    out += [check("C31", heat_residual(ws, lambda p: 1.0 / p.Eta), rhs31),
            check("C32", heat_residual(ws, lambda p: p.U("z wb").abs2()))]
    h33 = heat_residual(ws, lambda p: p.U("z wb").abs2() / p.Eta)
    absc, = _whole(ws, lambda p: [rows(p)["absc"]()])
    out.append(check("C33", h33, rhs31, *ws.derivs(absc, "z", "w"),
                     *ws.derivs(1.0 / ws.eta, "z", "w")))
    del absc
    out.append(check("C34", h33, rhs31))
    del h33
    rhs35, t37 = _whole(ws, lambda p: [rows(p)[k]() for k in ("rhs35", "t37")])
    out.append(check("C35", heat_residual(
        ws, lambda p: p.Lam + p.U("z wb").abs2() / p.Eta), rhs35))
    lhs36 = heat_residual(ws, lambda p: p.U("z wb") / p.Eta)
    out += [check("C36", lhs36, rhs31), check("C37", lhs36, t37)]
    del lhs36

    # quadratic form: direct heat residual equals the block expansion and
    # the expansion is pointwise nonpositive
    def quad(p, k):  # the k-th form; the ones before it are single entries
        return next(islice(_w_quads(p.Lam + p.U("z wb").abs2() / p.Eta,
                                   p.U("z wb") / p.Eta, 1.0 / p.Eta), k, None))

    for k, (va, vb) in enumerate(W_VECTORS):
        tag = f"HW[{va:.2f},{vb:.2f}]"
        e, = _whole(ws, lambda p: [rows(p)["HW"](va, vb, *map(
            p.part, (rhs35, t37, rhs31)))])
        top, scale = float(np.max(e)), max(1.0, float(np.max(np.abs(e))))
        out += [check(tag, heat_residual(ws, lambda p: quad(p, k)), e),
                IdentityResult(tag + "<=0", max(top, 0.0) / scale, 1e-10,
                               top <= 1e-10 * scale, "inequality", beta,
                               ws.grid.shape, note=f"max value {top:.3e}")]
    return out


# ---------------------------------------------------------------------------
# reproducible band-limited test data


def random_test_field(
    grid: TorusGrid,
    seed: int,
    amplitude: float,
    band,
    bg: Background | None = None,
) -> RealField:
    """Reproducible zero-mean band-limited random field with sup-norm
    equal to amplitude.  band is an int (max integer wavenumber per
    direction) or an iterable of allowed shell indices max_i |k_i|.

    When a background is supplied, admissibility of the field as a
    potential is checked and a violation raises; the check takes the
    factor Laplacians and no transform.
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
    kmax = max(shells)
    n1, n2, n3, n4 = grid.shape
    # the spectrum on the lines that can hold a mode: along axes 0-2 only
    # the indices k % n, |k| <= kmax, at position pos of idx
    idx = [sorted({k % n for k in range(-kmax, kmax + 1)})
           for n in grid.shape[:3]]
    pos = [{i: j for j, i in enumerate(ix)} for ix in idx]
    spec = np.zeros((*map(len, idx), n4), dtype=complex)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            for k3 in range(-kmax, kmax + 1):
                for k4 in range(-kmax, kmax + 1):
                    shell = max(abs(k1), abs(k2), abs(k3), abs(k4))
                    if shell not in shells:
                        continue
                    at = (pos[0][k1 % n1], pos[1][k2 % n2], pos[2][k3 % n3],
                          k4 % n4)
                    spec[at] = rng.standard_normal() + 1j * rng.standard_normal()
    # np.fft.ifftn of the dense spectrum, .real: the same inverses along
    # axes 3, 2, 1 and 0 in turn, each in place and only on the lines that
    # can hold a mode (every other line is zero and stays zero), the last
    # one x2 index at a time into one buffer, so no dense complex field is
    # made
    np.fft.ifft(spec, axis=3, out=spec)
    for ax in (2, 1):
        full = np.zeros(spec.shape[:ax] + (grid.shape[ax],)
                        + spec.shape[ax + 1:], dtype=complex)
        full[(slice(None),) * ax + (idx[ax],)] = spec
        spec = np.fft.ifft(full, axis=ax, out=full)
    u = np.empty(grid.shape)
    line = np.zeros((n1, n3, n4), dtype=complex)
    buf = np.empty_like(line)
    for j in range(n2):
        line[idx[0]] = spec[:, j]
        u[:, j] = np.fft.ifft(line, axis=0, out=buf).real
    u -= u.mean()
    sup = max(float(u.max()), -float(u.min()))  # max |u|, with no |u| field
    if amplitude == 0.0 or sup == 0.0:
        return RealField.zeros(grid)
    u *= amplitude / sup
    out = RealField(grid, u)
    if bg is not None:
        lambda_eta(out, bg)  # raises AdmissibilityLost if invalid
    return out
