"""Uniform periodic 4D grid, spectral complex derivatives, factor
Laplacians and their Poisson inversion, field statistics, and field file
I/O.

The grid carries two complex coordinates built from the four real
directions, z = x1 + i*x2 on the first factor and w = x3 + i*x4 on the
second.  Complex derivatives follow the convention

    dz  = (d/dx1 - i d/dx2)/2        dzb = (d/dx1 + i d/dx2)/2
    dw  = (d/dx3 - i d/dx4)/2        dwb = (d/dx3 + i d/dx4)/2

so that u_{z zb} = (d1^2 + d2^2) u / 4 and u_{w wb} = (d3^2 + d4^2) u / 4.

Differentiation is purely spectral (Fourier multipliers); the Nyquist mode
of each first-derivative multiplier is zeroed (symmetric convention, keeps
derivatives of real fields real).  General operators (deriv_data) are
products of first-order multipliers applied to the full complex 4D
spectrum, so every identity between operator compositions holds exactly on
the band-limited subspace.

The factor Laplacians u_{z zb}, u_{w wb} and their pseudo-inverses act on
one factor only.  They take real data through a real transform over just
that factor's two axes, (x1, x2) or (x3, x4), multiply the half spectrum
by one real multiplier per factor (same Nyquist convention) and transform
back; the other factor's axes are never transformed.

Storage order is x4-fastest (C order on arrays of shape (n1,n2,n3,n4));
the field file format fixes this order bit-exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from . import _backend as fft
from .errors import ConfigurationError, FieldFormatError, PoissonDataError

_Z_TOKENS = ("z", "zb")
_W_TOKENS = ("w", "wb")
_ALL_TOKENS = _Z_TOKENS + _W_TOKENS
_FACTOR_AXES = {"z": (0, 1), "w": (2, 3)}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a product of two real 2-tori."""

    shape: tuple[int, int, int, int]
    periods: tuple[float, float, float, float]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def npoints(self) -> int:
        n1, n2, n3, n4 = self.shape
        return n1 * n2 * n3 * n4

    @property
    def spacings(self) -> tuple[float, float, float, float]:
        return tuple(L / n for n, L in zip(self.shape, self.periods))

    def axis_coord(self, axis: int) -> np.ndarray:
        """1D coordinate array for one real direction (starts at 0)."""
        n, L = self.shape[axis], self.periods[axis]
        return np.arange(n) * (L / n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (x1, x2, x3, x4)."""
        out = []
        for ax in range(4):
            c = self.axis_coord(ax)
            shp = [1, 1, 1, 1]
            shp[ax] = self.shape[ax]
            out.append(c.reshape(shp))
        return tuple(out)

    def wavenumbers(self, axis: int, zero_nyquist: bool = True) -> np.ndarray:
        """Angular wavenumbers along one axis.

        zero_nyquist drops the unpaired highest mode, the convention used
        by every first-derivative multiplier.
        """
        key = ("k", axis, zero_nyquist)
        if key not in self._cache:
            n, L = self.shape[axis], self.periods[axis]
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
            if zero_nyquist:
                k = k.copy()
                k[n // 2] = 0.0
            self._cache[key] = k
        return self._cache[key]

    def _token_multiplier(self, token: str) -> np.ndarray:
        """Broadcastable multiplier for one first-order complex derivative."""
        key = ("tok", token)
        if key not in self._cache:
            if token not in _ALL_TOKENS:
                raise ConfigurationError(f"unknown derivative token {token!r}")
            a, b = _FACTOR_AXES[token[0]]
            ka = self.wavenumbers(a)
            kb = self.wavenumbers(b)
            shp_a = [1, 1, 1, 1]
            shp_a[a] = self.shape[a]
            shp_b = [1, 1, 1, 1]
            shp_b[b] = self.shape[b]
            ka = ka.reshape(shp_a)
            kb = kb.reshape(shp_b)
            sign = +1.0 if token in ("z", "w") else -1.0
            self._cache[key] = 0.5 * (1j * ka + sign * kb)
        return self._cache[key]

    def multiplier_parts(self, op: str):
        """Factor-wise multiplier arrays for a composite derivative.

        Returns (z_part, w_part); either may be None.  Keeping the factors
        separate avoids materialising a full 4D multiplier array.
        """
        key = ("op", op)
        if key not in self._cache:
            tokens = op.split()
            if not tokens:
                raise ConfigurationError("empty derivative op")
            zpart = None
            wpart = None
            for tok in tokens:
                if tok not in _ALL_TOKENS:
                    raise ConfigurationError(
                        f"unknown derivative token {tok!r} in op {op!r}"
                    )
                m = self._token_multiplier(tok)
                if tok in _Z_TOKENS:
                    zpart = m if zpart is None else zpart * m
                else:
                    wpart = m if wpart is None else wpart * m
            self._cache[key] = (zpart, wpart)
        return self._cache[key]


class FieldStats(NamedTuple):
    min: float
    max: float
    sup: float
    mean: float


@dataclass
class RealField:
    """Real scalar sampled on a TorusGrid (data shape == grid.shape)."""

    grid: TorusGrid
    data: np.ndarray

    @classmethod
    def create(cls, grid: TorusGrid, data) -> "RealField":
        arr = np.asarray(data, dtype=np.float64)
        if arr.shape != grid.shape:
            raise ConfigurationError(
                f"field shape {arr.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("field contains non-finite entries")
        return cls(grid, arr)

    @classmethod
    def from_function(cls, grid: TorusGrid, fn: Callable) -> "RealField":
        x1, x2, x3, x4 = grid.mesh()
        return cls.create(grid, np.broadcast_to(fn(x1, x2, x3, x4), grid.shape))

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "RealField":
        return cls(grid, np.zeros(grid.shape))

    def copy(self) -> "RealField":
        return RealField(self.grid, self.data.copy())


@dataclass
class ComplexField:
    """Complex scalar sampled on a TorusGrid."""

    grid: TorusGrid
    data: np.ndarray

    @classmethod
    def create(cls, grid: TorusGrid, data) -> "ComplexField":
        arr = np.asarray(data, dtype=np.complex128)
        if arr.shape != grid.shape:
            raise ConfigurationError(
                f"field shape {arr.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("field contains non-finite entries")
        return cls(grid, arr)

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.data.copy())


Field = Union[RealField, ComplexField]


def make_grid(dims, periods) -> TorusGrid:
    """Build a grid; dims must be powers of two >= 8, periods positive."""
    dims = tuple(int(n) for n in dims)
    periods = tuple(float(L) for L in periods)
    if len(dims) != 4 or len(periods) != 4:
        raise ConfigurationError("grid needs four point counts and four periods")
    for n in dims:
        if n < 8 or not _is_power_of_two(n):
            raise ConfigurationError(
                f"points per direction must be a power of two >= 8, got {n}"
            )
    for L in periods:
        if not (L > 0.0) or not np.isfinite(L):
            raise ConfigurationError(f"periods must be positive, got {L}")
    return TorusGrid(dims, periods)


# ---------------------------------------------------------------------------
# spectral derivatives


def deriv_data(grid: TorusGrid, data: np.ndarray, op: str) -> np.ndarray:
    """Spectral derivative of a raw array; op is a space-separated token
    string over {z, zb, w, wb}, e.g. "z zb" or "z w wb"."""
    zp, wp = grid.multiplier_parts(op)
    hat = fft.fftn(data)
    if zp is not None:
        hat = hat * zp
    if wp is not None:
        hat = hat * wp
    return fft.ifftn(hat)


def derivative(f: Field, op: str) -> ComplexField:
    """Spectral derivative of the band-limited interpolant of f."""
    return ComplexField(f.grid, deriv_data(f.grid, f.data, op))


def real_part(f: ComplexField, tol: float = 1e-12) -> RealField:
    """Real part of a field that is mathematically real; raises if the
    imaginary part exceeds tol relative to the field scale."""
    scale = float(np.max(np.abs(f.data))) or 1.0
    imax = float(np.max(np.abs(f.data.imag)))
    if imax > tol * scale:
        raise ConfigurationError(
            f"field is not real: |imag| = {imax:.3e} vs scale {scale:.3e}"
        )
    return RealField(f.grid, np.ascontiguousarray(f.data.real))


def _factor_axes(factor: str) -> tuple[int, int]:
    if factor not in _FACTOR_AXES:
        raise ConfigurationError(f"factor must be 'z' or 'w', got {factor!r}")
    return _FACTOR_AXES[factor]


def _factor_multiplier(grid: TorusGrid, factor: str, inverse: bool) -> np.ndarray:
    """Real multiplier of the quarter-Laplacian on one factor (or its
    pseudo-inverse, zero on the kernel), shaped for the half spectrum of
    a real transform over that factor's two axes."""
    key = ("factor_lap", factor, inverse)
    if key not in grid._cache:
        a, b = _factor_axes(factor)
        nb = grid.shape[b] // 2 + 1
        # the first nb zeroed-Nyquist wavenumbers are the rfft half spectrum
        ka = grid.wavenumbers(a)[:, None]
        kb = grid.wavenumbers(b)[None, :nb]
        m = -0.25 * (ka**2 + kb**2)
        if inverse:
            m = np.divide(1.0, m, out=np.zeros_like(m), where=m != 0.0)
        shp = [1, 1, 1, 1]
        shp[a], shp[b] = grid.shape[a], nb
        grid._cache[key] = m.reshape(shp)
    return grid._cache[key]


def _apply_factor(grid: TorusGrid, data: np.ndarray, factor: str,
                  inverse: bool = False) -> np.ndarray:
    a, b = _factor_axes(factor)
    hat = fft.rfftn(data, (a, b))
    hat *= _factor_multiplier(grid, factor, inverse)
    return fft.irfftn(hat, (grid.shape[a], grid.shape[b]), (a, b))


def factor_laplacian(grid: TorusGrid, data: np.ndarray, factor: str) -> np.ndarray:
    """u_zzb (factor "z") or u_wwb (factor "w") of real data, transforming
    only that factor's two axes; equals deriv_data(..., "z zb" / "w wb")
    to rounding."""
    return _apply_factor(grid, data, factor)


def factor_laplacians(grid: TorusGrid, data: np.ndarray):
    """(u_zzb, u_wwb) for real data; hot path of the flow integrator."""
    return factor_laplacian(grid, data, "z"), factor_laplacian(grid, data, "w")


def exponential_filter(grid: TorusGrid, data: np.ndarray,
                       alpha: float = 36.0, order: int = 16) -> np.ndarray:
    """Optional high-order exponential damping of the top of the spectrum,
    for long runs where slow spectral blocking would otherwise accumulate.
    sigma(k) = exp(-alpha (|k|/k_nyq)^order) per direction; the lower half
    of the spectrum is untouched to near rounding, the Nyquist mode is
    damped by exp(-alpha)."""
    key = ("expfilt", alpha, order)
    if key not in grid._cache:
        sig = 1.0
        for ax in range(4):
            n = grid.shape[ax]
            k = np.abs(np.fft.fftfreq(n) * n) / (n // 2)
            s = np.exp(-alpha * k**order)
            shp = [1, 1, 1, 1]
            shp[ax] = n
            sig = sig * s.reshape(shp)
        grid._cache[key] = sig
    hat = fft.fftn(data) * grid._cache[key]
    return fft.ifftn(hat).real


# ---------------------------------------------------------------------------
# factor Poisson inversion


def poisson_solve_factor(
    rhs: RealField, factor: str, mean_tol: float = 1e-10
) -> RealField:
    """Solve u_{z zb} = rhs (factor "z") or u_{w wb} = rhs (factor "w").

    For each fixed point of the other factor, the slice mean of rhs over
    the solved factor must vanish (below mean_tol * sup|rhs|); the returned
    solution has zero slice mean.  The discrete operator is inverted
    exactly on its range, so composing with the matching derivative is the
    identity on zero-slice-mean band-limited fields.
    """
    sup = float(np.max(np.abs(rhs.data)))
    worst = float(np.max(np.abs(rhs.data.mean(axis=_factor_axes(factor)))))
    if worst > mean_tol * sup:
        raise PoissonDataError(
            "incompatible Poisson data: slice mean "
            f"{worst:.3e} exceeds {mean_tol:.1e} * sup {sup:.3e}"
        )
    u = _apply_factor(rhs.grid, rhs.data, factor, inverse=True)
    return RealField(rhs.grid, u)


# ---------------------------------------------------------------------------
# statistics


def stats(f: RealField) -> FieldStats:
    """Exact extrema and mean over grid points."""
    if not isinstance(f, RealField):
        raise ConfigurationError("stats expects a RealField")
    d = f.data
    if d.size == 0 or not np.all(np.isfinite(d)):
        raise ConfigurationError("stats on empty or non-finite field")
    mn = float(d.min())
    mx = float(d.max())
    return FieldStats(mn, mx, max(abs(mn), abs(mx)), float(d.mean()))


def sup_norm(f: Field) -> float:
    return float(np.max(np.abs(f.data)))


# ---------------------------------------------------------------------------
# field I/O: one JSON header line, then raw little-endian data, x4-fastest


_MAGIC = "torus-field"


def write_field(f: Field, path: str | os.PathLike) -> None:
    if isinstance(f, RealField):
        dtype = "<f8"
        payload = np.ascontiguousarray(f.data, dtype="<f8").tobytes()
    else:
        dtype = "<c16"
        payload = np.ascontiguousarray(f.data, dtype="<c16").tobytes()
    header = {
        "format": _MAGIC,
        "version": 1,
        "dims": list(f.grid.shape),
        "periods": list(f.grid.periods),
        "dtype": dtype,
        "order": "x4-fastest",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(payload)


def read_field(path: str | os.PathLike, grid: TorusGrid | None = None) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FieldFormatError("corrupt header: no header line")
    try:
        header = json.loads(raw[:nl].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"corrupt header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise FieldFormatError("corrupt header: wrong format tag")
    try:
        dims = tuple(int(n) for n in header["dims"])
        periods = tuple(float(L) for L in header["periods"])
        dtype = header["dtype"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFormatError(f"corrupt header: {exc}") from exc
    if dtype not in ("<f8", "<c16"):
        raise FieldFormatError(f"corrupt header: unsupported dtype {dtype!r}")
    if len(dims) != 4:
        raise FieldFormatError("corrupt header: dims must have length 4")
    payload = raw[nl + 1 :]
    itemsize = np.dtype(dtype).itemsize
    expected = itemsize * int(np.prod(dims))
    if len(payload) != expected:
        raise FieldFormatError(
            f"length mismatch: payload {len(payload)} bytes, expected {expected}"
        )
    if grid is not None:
        if grid.shape != dims or not np.allclose(grid.periods, periods):
            raise FieldFormatError("header grid does not match requested grid")
        g = grid
    else:
        g = make_grid(dims, periods)
    data = np.frombuffer(payload, dtype=dtype).reshape(dims)
    if not np.all(np.isfinite(data)):
        raise FieldFormatError("payload contains non-finite entries")
    if dtype == "<f8":
        return RealField(g, data.astype(np.float64))
    return ComplexField(g, data.astype(np.complex128))
