"""Uniform periodic 4D grid (TorusGrid) and its fields; spectral complex
derivatives (deriv_data, on _backend's transforms); the transform-free
factor Laplacians and mixed derivatives (_slab_pass); the factor Poisson
solve; pointwise algebra on blocks of points (on_blocks); field
statistics; field file I/O.

The grid carries two complex coordinates built from the four real
directions, z = x1 + i*x2 on the first factor and w = x3 + i*x4 on the
second.  Complex derivatives follow the convention

    dz  = (d/dx1 - i d/dx2)/2        dzb = (d/dx1 + i d/dx2)/2
    dw  = (d/dx3 - i d/dx4)/2        dwb = (d/dx3 + i d/dx4)/2

so that u_{z zb} = (d1^2 + d2^2) u / 4 and u_{w wb} = (d3^2 + d4^2) u / 4.
Every derivative is a product of first-order Fourier multipliers, the
Nyquist mode of each zeroed (symmetric convention, keeps derivatives of
real fields real), so every identity between operator compositions holds
exactly on the band-limited subspace, whichever path computes it.

Work on whole fields is split between the threads of a module pool
(_over).  A pool thread runs numpy only, never a function of this
package, and each chunk or block is computed as on one thread, so no
result depends on the thread count (bit for bit).

Storage order is x4-fastest (C order on arrays of shape (n1,n2,n3,n4));
the field file format fixes this order bit-exactly.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

import numpy as np

from . import _backend as fft
from .errors import ConfigurationError, FieldFormatError, PoissonDataError

_TOKEN_SIGNS = {"z": 1.0, "zb": -1.0, "w": 1.0, "wb": -1.0}
_FACTOR_AXES = {"z": (0, 1), "w": (2, 3)}
_ALL_AXES = (0, 1, 2, 3)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _along(axis: int, values: np.ndarray) -> np.ndarray:
    """The 1D array values shaped to broadcast along one axis of a field."""
    shp = [1, 1, 1, 1]
    shp[axis] = values.size
    return values.reshape(shp)


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
        return tuple(_along(ax, self.axis_coord(ax)) for ax in _ALL_AXES)

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Angular wavenumbers along one axis, with the unpaired highest
        mode zeroed: the convention of every multiplier."""
        key = ("k", axis)
        if key not in self._cache:
            n, L = self.shape[axis], self.periods[axis]
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
            k[n // 2] = 0.0
            self._cache[key] = k
        return self._cache[key]

    def multiplier_parts(self, op: str):
        """Factor-wise multiplier arrays for a composite derivative: the
        product, in token order, of each token's 0.5 (i k_a + s k_b) over
        its factor's axes (a, b), s = +1 for z, w and -1 for zb, wb.

        Returns (z_part, w_part); either may be None.  Keeping the factors
        separate avoids materialising a full 4D multiplier array.
        """
        key = ("op", op)
        if key not in self._cache:
            tokens = op.split()
            if not tokens:
                raise ConfigurationError("empty derivative op")
            parts = {"z": None, "w": None}
            for tok in tokens:
                if tok not in _TOKEN_SIGNS:
                    raise ConfigurationError(
                        f"unknown derivative token {tok!r} in op {op!r}")
                a, b = _FACTOR_AXES[tok[0]]
                m = 0.5 * (1j * _along(a, self.wavenumbers(a))
                           + _TOKEN_SIGNS[tok] * _along(b, self.wavenumbers(b)))
                part = parts[tok[0]]
                parts[tok[0]] = m if part is None else part * m
            self._cache[key] = (parts["z"], parts["w"])
        return self._cache[key]


def _checked(grid: TorusGrid, data, dtype) -> np.ndarray:
    """data as an array of dtype, checked to be finite and of grid's shape."""
    arr = np.asarray(data, dtype=dtype)
    if arr.shape != grid.shape:
        raise ConfigurationError(
            f"field shape {arr.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("field contains non-finite entries")
    return arr


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
        return cls(grid, _checked(grid, data, np.float64))

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
        return cls(grid, _checked(grid, data, np.complex128))

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


def _spectral_deriv(grid: TorusGrid, hat: np.ndarray, op: str) -> np.ndarray:
    """Derivative op of the data whose full complex spectrum is hat; hat
    itself is left untouched (an identity slice reuses one spectrum).  The
    multiplier is applied on chunks of x1 rows on the slab threads
    (_over), each chunk's product by the z part then by the w part while
    it is in cache."""
    zp, wp = grid.multiplier_parts(op)
    out = np.empty(hat.shape, np.complex128)

    def chunk(k, rows):
        o = out[rows]
        np.multiply(hat[rows], wp if zp is None else zp[rows], out=o)
        if zp is not None and wp is not None:
            o *= wp

    with _SLAB_LOCK:
        _over(grid.shape[0], *_row_chunks(grid), chunk)
    return fft.ifftn(out)


def deriv_data(grid: TorusGrid, data: np.ndarray, op: str) -> np.ndarray:
    """Spectral derivative of a raw array; op is a space-separated token
    string over {z, zb, w, wb}, e.g. "z zb" or "z w wb".

    Complex data takes the full complex spectrum.  Real data takes one
    half spectrum: the multiplier m of op satisfies m(-k) = (-1)^order m(k)
    (each token's is odd in k, the Nyquist modes being zeroed), so on even
    orders Re m and Im m, and on odd orders i Im m and -i Re m, are
    Hermitian.  The real and imaginary parts of the derivative are then
    one real inverse each.  The multiplier is real when each factor has as
    many conjugate tokens as plain ones ("z zb", "w wb"); the imaginary
    part, rounding only, is then zero and takes no inverse."""
    if np.iscomplexobj(data):
        return _spectral_deriv(grid, fft.fftn(data), op)
    zp, wp = grid.multiplier_parts(op)
    if wp is not None:
        wp = wp[..., :grid.shape[3] // 2 + 1]
    m = wp if zp is None else zp if wp is None else zp * wp
    tokens = op.split()
    if len(tokens) % 2:
        parts = ((m.imag, 1j), (m.real, -1j))
    elif all(tokens.count(t) == tokens.count(t + "b") for t in ("z", "w")):
        parts = ((m.real, 1),)
    else:
        parts = ((m.real, 1), (m.imag, 1))
    hat = fft.rfftn(data, _ALL_AXES)
    buf = np.empty_like(hat)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for dst, (mult, unit) in zip((out.real, out.imag), parts):
        np.multiply(hat, mult, out=buf)
        if unit != 1:
            buf *= unit
        dst[...] = fft.irfftn(buf, grid.shape, _ALL_AXES)
    return out


def derivative(f: Field, op: str) -> ComplexField:
    """Spectral derivative of the band-limited interpolant of f."""
    return ComplexField(f.grid, deriv_data(f.grid, f.data, op))


def _factor_axes(factor: str) -> tuple[int, int]:
    if factor not in _FACTOR_AXES:
        raise ConfigurationError(f"factor must be 'z' or 'w', got {factor!r}")
    return _FACTOR_AXES[factor]


def _axis_matrix(grid: TorusGrid, axis: int, order: int) -> np.ndarray:
    """The n x n circulant matrix of the zeroed-Nyquist multiplier
    (i k/2)^order along one axis: half the first derivative (order 1) or a
    quarter of the second (order 2).  Its first column is the multiplier's
    inverse transform."""
    key = ("dx", axis, order)
    if key not in grid._cache:
        n = grid.shape[axis]
        half_k = 0.5 * grid.wavenumbers(axis)
        mult = -half_k**2 if order == 2 else 1j * half_k
        col = np.fft.ifft(mult).real
        i = np.arange(n)
        grid._cache[key] = col[(i[:, None] - i[None, :]) % n]
    return grid._cache[key]


# Bytes of one chunk of x1 rows in the slab pass: a chunk's blocks and
# their products stay in L2 (2 MiB a core) while its rows are finished.
_CHUNK_BYTES = 256 * 1024
# Field bytes per slab thread: below it, handing work to a second thread
# costs more than the thread saves.
_THREAD_BYTES = 1 << 20

# The pools and the scratch are shared by every caller in the process: a
# pass on the pool threads holds _SLAB_LOCK throughout.
_POOLS: dict = {}       # (pid, thread count) -> ThreadPoolExecutor
_SCRATCH: list = []     # per thread: (block, term) flat buffers
_SLAB_LOCK = threading.Lock()
_POOL_THREAD = threading.local()    # .on is set on the pool's threads


def _slab_threads(shape) -> int:
    """Threads of a pass over a field of shape: one per _THREAD_BYTES of
    field, at most get_workers(); one where BLAS cannot be pinned to one
    thread per caller (threads that each run a multi-threaded BLAS gain
    nothing)."""
    if fft.blas_thread_pin() is None:
        return 1
    return max(1, min(fft.get_workers(),
                      8 * math.prod(shape) // _THREAD_BYTES))


def _pool_thread_init(pin) -> None:
    """Marks a new pool thread (_on_pool_thread) and pins its BLAS to one
    thread; pin is looked up on the calling thread, which alone may enter
    a function of this package."""
    _POOL_THREAD.on = True
    if pin is not None:
        pin(1)


def _on_pool_thread() -> bool:
    """Whether the calling thread is one of the slab pool's."""
    return getattr(_POOL_THREAD, "on", False)


def _run_parts(parts):
    """Results of the callables in parts, each run on its own pool thread
    (every pool thread has its BLAS pinned to one thread); a single part
    runs in the calling thread, with its BLAS pinned to one thread for the
    call, as a split BLAS is far slower on products this small.  Waits
    for all before raising."""
    if len(parts) == 1:
        pin = fft.blas_thread_pin()
        if pin is None:
            return [parts[0]()]
        before = pin(1)
        try:
            return [parts[0]()]
        finally:
            pin(before)
    # imported with the first pool, which one-thread runs never start
    import concurrent.futures

    key = (os.getpid(), len(parts))  # a forked child has no pool threads
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS[key] = concurrent.futures.ThreadPoolExecutor(
            len(parts), thread_name_prefix="splitma-slab",
            initializer=_pool_thread_init, initargs=(fft.blas_thread_pin(),))
    futures = [pool.submit(part) for part in parts]
    concurrent.futures.wait(futures)
    return [f.result() for f in futures]


def _row_chunks(grid: TorusGrid) -> tuple[int, int]:
    """(threads, step) of a pass over the x1 rows of grid: its
    _slab_threads, and step rows a chunk, about _CHUNK_BYTES, at least one
    row and at most one thread's share."""
    threads, n0 = _slab_threads(grid.shape), grid.shape[0]
    row = 8 * grid.npoints // n0
    return threads, max(1, min(_CHUNK_BYTES // row, -(-n0 // threads)))


def _over(n: int, threads: int, step: int, fn) -> list:
    """fn(k, sl) for chunks sl of at most step indices of range(n), the
    indices cut into threads contiguous shares of near-equal length, thread
    k running the chunks of its share in order (_run_parts); returns the
    results in index order.  The caller holds _SLAB_LOCK."""
    def part(k):
        stop = n * (k + 1) // threads
        return [fn(k, slice(i, min(i + step, stop)))
                for i in range(n * k // threads, stop, step)]
    return [r for rs in _run_parts([functools.partial(part, k)
                                    for k in range(threads)]) for r in rs]


def _scratch(threads: int, size: int):
    """threads (block, term) pairs of flat buffers of at least size
    doubles: allocated once, from the calling thread, and grown when a
    larger grid needs more."""
    if len(_SCRATCH) < threads or _SCRATCH[0][0].size < size:
        size = max(size, _SCRATCH[0][0].size if _SCRATCH else 0)
        _SCRATCH[:] = [(np.empty(size), np.empty(size))
                       for _ in range(max(threads, len(_SCRATCH)))]
    return _SCRATCH


def _slab_pass(grid: TorusGrid, data: np.ndarray, zz, ww, finish=None,
               order: int = 2):
    """The products of data with each axis's order-th derivative matrix
    (_axis_matrix), factor z's into zz and factor w's into ww (either may
    be None, skipping that factor), over x1-slabs on the _slab_threads
    of grid's shape, in two phases:

    A. along x1 (factor z only): one (x1, x3 x4) block per x2 index, the
       x2 indices split between the threads;
    B. per chunk of x1 rows (_row_chunks), the rows split between the
       threads: the x2 product, one (x2, x3 x4) block per row, into the
       scratch buffer term and, in order 2, added onto zz; the x3 product
       of each row's (x2, x3, x4) block into ww and its x4 product added
       on; then finish(rows, term, spare), rows being the chunk's slice of
       x1 and spare a free scratch buffer of the chunk's shape, as term is
       once order 2 is done with it.

    So order 2 gives u_zzb and u_wwb, and order 1 keeps the x1 term (in
    zz) apart from the x2 term (in term).  ww may be data itself: a row of
    data is read before ww's row is written.  Every block is first shifted
    by the data at the factor's origin, so data constant over the factor
    gives exactly zero, as the multiplier does.  The blocks and products
    are those of one thread and one row at a time, so the result does not
    depend on the thread count (bit for bit).  Returns finish's results in
    row order.  finish runs on pool threads: it may call numpy only, never
    a function of this package.  zz and ww are C-ordered fields."""
    n0, n1, n2, n3 = grid.shape
    m = n2 * n3
    threads, step = _row_chunks(grid)
    d0, d1, d2, d3 = (_axis_matrix(grid, ax, order) for ax in _ALL_AXES)
    if zz is not None:
        src = data.reshape(n0, n1, m)
        origin = src[0, 0].copy()  # data may be overwritten (ww is data)
    with _SLAB_LOCK:
        bufs = _scratch(threads, max(step * n1, n0) * m)
        if zz is not None:
            dst = zz.reshape(n0, n1, m)

            def phase_a(k, cols):
                blk = bufs[k][0][:n0 * m].reshape(n0, m)
                for j in range(cols.start, cols.stop):
                    np.subtract(src[:, j], origin, out=blk)
                    np.matmul(d0, blk, out=dst[:, j])
            _over(n1, threads, n1, phase_a)

        def phase_b(k, rows):
            c = rows.stop - rows.start
            blk, term = (b[:c * n1 * m].reshape(c, n1, n2, n3) for b in bufs[k])
            if zz is not None:
                blk3, term3 = blk.reshape(c, n1, m), term.reshape(c, n1, m)
                np.subtract(src[rows], origin, out=blk3)
                np.matmul(d1, blk3, out=term3)
                if order == 2:
                    np.add(dst[rows], term3, out=dst[rows])
            if ww is not None:
                np.subtract(data[rows], data[rows, :, :1, :1], out=blk)
                out_w = ww[rows]
                np.matmul(d2, blk, out=out_w)
                np.matmul(blk.reshape(c * n1 * n2, n3), d3.T,
                          out=term.reshape(c * n1 * n2, n3))
                out_w += term
            if finish is not None:
                return finish(rows, term, blk)

        return _over(n0, threads, step, phase_b)


def factor_laplacian(grid: TorusGrid, data: np.ndarray, factor: str) -> np.ndarray:
    """u_zzb (factor "z") or u_wwb (factor "w") of real data, from one
    order-2 _slab_pass with no transform; equals deriv_data(..., "z zb" /
    "w wb") to rounding."""
    _factor_axes(factor)  # rejects an unknown factor
    out = np.empty(grid.shape)
    _slab_pass(grid, data, *((out, None) if factor == "z" else (None, out)))
    return out


def factor_laplacians(grid: TorusGrid, data: np.ndarray, finish=None):
    """(u_zzb, u_wwb) for real data, in one slab pass.  With finish,
    finish(rows, zz, ww) runs on each chunk of x1 rows once the chunk's
    rows of both are done, while they are in cache; it runs on the pool
    threads, so it may call numpy only."""
    zz, ww = np.empty(grid.shape), np.empty(grid.shape)
    _slab_pass(grid, data, zz, ww, finish and (
        lambda rows, term, blk: finish(rows, zz, ww)))
    return zz, ww


# The sign s of the mixed derivatives, u = (p3 + s q4) + i (s p4 - q3)
_MIXED = {"z w": -1.0, "z wb": 1.0}


def mixed_derivatives(grid: TorusGrid, data: np.ndarray, *ops: str,
                      reduce=None):
    """u_zw ("z w") and u_zwb ("z wb") of real data, one complex array per
    op in the order given; equal to deriv_data(..., op) to rounding.

    With the half first derivatives p = d1 u / 2 and q = d2 u / 2 and
    subscripts 3, 4 for half derivatives along x3, x4,

        u_zw  = (p3 - q4) - i (p4 + q3),   u_zwb = (p3 + q4) + i (p4 - q3).

    p and q come from an order-1 slab pass (_slab_pass), which finishes
    each chunk of x1 rows with the x3 and x4 products of its p and q rows,
    each shifted first by its value at the w factor's origin; so data
    constant over either factor gives exactly zero.  No transform is
    taken.

    With reduce, no derivative field is made: each chunk's derivatives go
    to arrays of the chunk's shape and reduce(rows, *derivs), rows being
    the chunk's slice of x1, reduces them while they are in cache.  It runs
    on the pool threads, so it may call numpy only.  The results are
    returned in row order."""
    for op in ops:
        if op not in _MIXED:
            raise ConfigurationError(f"no mixed-derivative kernel for {op!r}")
    _, n1, n2, n3 = grid.shape
    d2, d3 = _axis_matrix(grid, 2, 1), _axis_matrix(grid, 3, 1)
    signs = [_MIXED[op] for op in ops]
    outs = [] if reduce else [np.empty(grid.shape, np.complex128) for _ in ops]
    p = np.empty(grid.shape)

    def finish(rows, q, spare):
        k = (rows.stop - rows.start) * n1 * n2
        f = p[rows]
        for a in (f, q):  # the copy spares numpy's copy of the whole chunk
            a -= a[..., :1, :1].copy()
        chunk = ([np.empty(f.shape, np.complex128) for _ in ops] if reduce
                 else [o[rows] for o in outs])
        re, im = [o.real for o in chunk], [o.imag for o in chunk]
        np.matmul(d2, f, out=spare)                                  # p3
        for r in re:
            r[...] = spare
        np.matmul(f.reshape(k, n3), d3.T, out=spare.reshape(k, n3))  # p4
        for s, i in zip(signs, im):
            np.multiply(spare, s, out=i)
        np.matmul(d2, q, out=f)                                      # q3
        for i in im:
            i -= f
        np.matmul(q.reshape(k, n3), d3.T, out=spare.reshape(k, n3))  # q4
        for s, r in zip(signs, re):
            r += np.multiply(spare, s, out=f)
        return reduce(rows, *chunk) if reduce else None

    done = _slab_pass(grid, data, p, None, finish, order=1)
    return done if reduce else outs


def exponential_filter(grid: TorusGrid, data: np.ndarray) -> np.ndarray:
    """Optional high-order exponential damping of the top of the spectrum,
    for long runs where slow spectral blocking would otherwise accumulate.
    sigma(k) = exp(-36 (|k|/k_nyq)^16) per direction; the lower half of
    the spectrum is untouched to near rounding, the Nyquist mode is damped
    by exp(-36)."""
    key = ("expfilt",)
    if key not in grid._cache:
        sig = 1.0
        for ax in range(4):
            n = grid.shape[ax]
            # the last axis carries the half spectrum of the real transform
            freq = np.fft.rfftfreq(n) if ax == 3 else np.fft.fftfreq(n)
            k = np.abs(freq * n) / (n // 2)
            sig = sig * _along(ax, np.exp(-36.0 * k**16))
        grid._cache[key] = sig
    hat = fft.rfftn(data, _ALL_AXES)
    hat *= grid._cache[key]
    return fft.irfftn(hat, grid.shape, _ALL_AXES)


# ---------------------------------------------------------------------------
# factor Poisson inversion


def _poisson_multiplier(grid: TorusGrid, factor: str) -> np.ndarray:
    """Real multiplier of the pseudo-inverse of the quarter-Laplacian on
    one factor, 1/(-(k_a^2 + k_b^2)/4) and zero on its kernel, shaped for
    the half spectrum of a real transform over that factor's two axes.
    It is not separable, so unlike the forward Laplacian it keeps a
    transform."""
    key = ("factor_inv", factor)
    if key not in grid._cache:
        a, b = _factor_axes(factor)
        nb = grid.shape[b] // 2 + 1
        # the first nb zeroed-Nyquist wavenumbers are the rfft half spectrum
        ka = _along(a, grid.wavenumbers(a))
        kb = _along(b, grid.wavenumbers(b)[:nb])
        m = -0.25 * (ka**2 + kb**2)
        grid._cache[key] = np.divide(1.0, m, out=np.zeros_like(m),
                                     where=m != 0.0)
    return grid._cache[key]


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
    sup = max(float(rhs.data.max()), -float(rhs.data.min()))
    worst = float(np.max(np.abs(rhs.data.mean(axis=_factor_axes(factor)))))
    if worst > mean_tol * sup:
        raise PoissonDataError(
            "incompatible Poisson data: slice mean "
            f"{worst:.3e} exceeds {mean_tol:.1e} * sup {sup:.3e}"
        )
    grid = rhs.grid
    a, b = _factor_axes(factor)
    hat = fft.rfftn(rhs.data, (a, b))
    hat *= _poisson_multiplier(grid, factor)
    return RealField(grid, fft.irfftn(hat, (grid.shape[a], grid.shape[b]),
                                      (a, b)))


# ---------------------------------------------------------------------------
# pointwise algebra on blocks of points

BLOCK = 8192    # points per block
POOL_BLOCKS = 4     # blocks per call of _map_blocks's fn on a pool thread


def blocks(shape) -> list[slice]:
    """Slices of BLOCK consecutive points covering a field of shape."""
    return [slice(s, s + BLOCK) for s in range(0, int(np.prod(shape)), BLOCK)]


def _part(a, sl: slice):
    """The points sl of a contiguous field, flattened; a scalar is itself."""
    return a if np.ndim(a) == 0 else a.reshape(-1)[sl]


def block_max(fn, *fields) -> float:
    """The max over the blocks of points of fn(*parts), a number per block,
    parts being the block's points of each of fields (C-ordered fields of
    one shape, or scalars, passed whole).  A NaN of any block is the
    result, as np.max of the whole field would give."""
    return float(np.max([fn(*(_part(f, sl) for f in fields))
                         for sl in blocks(np.shape(fields[0]))]))


def _map_blocks(fn, shape) -> list:
    """fn(sl) over the blocks of blocks(shape), in point order.  The first
    block runs on the calling thread, so whatever fn computes once and
    caches is computed there.  On one slab thread (_slab_threads) the
    others follow there, one block a call, so fn's temporaries stay one
    block's; on more they are split between the pool threads (_over), sl
    spanning POOL_BLOCKS blocks, the last of a thread's share fewer: the
    threads contend for the GIL between numpy calls, and longer calls
    contend less.  fn then runs on pool threads: it may call numpy only.
    fn is pointwise, so no result depends on the thread count."""
    sls = blocks(shape)
    first, rest = fn(sls[0]), sls[1:]
    threads = min(_slab_threads(shape), len(rest))
    if threads <= 1:
        return [first] + [fn(sl) for sl in rest]

    def run(k, span):
        return fn(slice(rest[span.start].start, rest[span.stop - 1].stop))
    with _SLAB_LOCK:
        return [first] + _over(len(rest), threads, POOL_BLOCKS, run)


def on_blocks(fn, shape, out: list | None = None) -> list[np.ndarray]:
    """Fields of shape whose points sl are fn(sl), a list of arrays, for
    the blocks sl of blocks(shape): the fields of out, or fields made on
    the first block with the dtypes of its arrays.  The blocks run through
    _map_blocks, so past the first block fn may call numpy only, and sl
    may span several blocks."""
    out = [] if out is None else out

    def put(sl):
        vals = fn(sl)
        out.extend(np.empty(shape, np.result_type(v)) for v in vals[len(out):])
        for f, v in zip(out, vals):
            f.reshape(-1)[sl] = v
    _map_blocks(put, shape)
    return out


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


@contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "w"):
    """Open a file for writing that replaces path only when the block
    exits cleanly: the data goes to a temporary file in the same directory,
    which os.replace then moves over path.  If the block raises, the
    temporary file is removed and path is left as it was.  There is no
    fsync: this guards against an interrupted writer, not a power loss."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field(f: Field, path: str | os.PathLike) -> None:
    dtype = "<f8" if isinstance(f, RealField) else "<c16"
    # the array's own buffer is written, without a bytes copy
    payload = memoryview(np.ascontiguousarray(f.data, dtype=dtype)).cast("B")
    header = {
        "format": _MAGIC,
        "version": 1,
        "dims": list(f.grid.shape),
        "periods": list(f.grid.periods),
        "dtype": dtype,
        "order": "x4-fastest",
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(payload)


def read_field(path: str | os.PathLike, grid: TorusGrid | None = None) -> Field:
    """The field in path; the payload is read straight into its array."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise FieldFormatError("corrupt header: no header line")
        try:
            header = json.loads(line[:-1].decode("ascii"))
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
        size = os.fstat(fh.fileno()).st_size - len(line)
        expected = np.dtype(dtype).itemsize * int(np.prod(dims))
        if size != expected:
            raise FieldFormatError(
                f"length mismatch: payload {size} bytes, expected {expected}"
            )
        if grid is not None:
            if grid.shape != dims or not np.allclose(grid.periods, periods):
                raise FieldFormatError("header grid does not match requested grid")
            g = grid
        else:
            g = make_grid(dims, periods)
        data = np.empty(dims, dtype=dtype)
        if fh.readinto(memoryview(data).cast("B")) != expected:
            raise FieldFormatError("length mismatch: payload changed while read")
    if not np.all(np.isfinite(data)):
        raise FieldFormatError("payload contains non-finite entries")
    if dtype == "<f8":
        return RealField(g, data.astype(np.float64, copy=False))
    return ComplexField(g, data.astype(np.complex128, copy=False))
