"""Tests for the grid, spectral derivatives, Poisson inversion, stats, I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitma import (
    ComplexField,
    ConfigurationError,
    FieldFormatError,
    PoissonDataError,
    RealField,
    derivative,
    make_grid,
    poisson_solve_factor,
    read_field,
    stats,
    write_field,
)
from splitma.grid_field import (_spectral_deriv, deriv_data,
                                factor_laplacian, factor_laplacians,
                                mixed_derivatives, on_blocks)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return make_grid((16, 16, 8, 8), (1, 1, 1, 1))


class TestMakeGrid:
    def test_uniform(self):
        g = make_grid((16, 16, 16, 16), (1, 1, 1, 1))
        assert g.spacings == (1 / 16,) * 4

    def test_anisotropic(self):
        g = make_grid((32, 32, 8, 8), (1, 1, 2, 2))
        assert g.spacings == (1 / 32, 1 / 32, 1 / 4, 1 / 4)

    @pytest.mark.parametrize(
        "dims,periods",
        [
            ((10, 16, 16, 16), (1, 1, 1, 1)),  # not a power of two
            ((4, 16, 16, 16), (1, 1, 1, 1)),  # too small
            ((16, 16, 16, 16), (1, 0, 1, 1)),  # nonpositive period
            ((16, 16, 16, 16), (1, -2, 1, 1)),
        ],
    )
    def test_rejects_bad_configs(self, dims, periods):
        with pytest.raises(ConfigurationError):
            make_grid(dims, periods)


class TestDerivative:
    def test_zzb_of_sine(self, grid):
        x1, _, _, _ = grid.mesh()
        u = RealField.from_function(grid, lambda a, b, c, d: np.sin(TWO_PI * a))
        out = derivative(u, "z zb")
        expect = -np.pi**2 * np.sin(TWO_PI * x1)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_constant_has_zero_derivative(self, grid):
        u = RealField.create(grid, np.full(grid.shape, 3.7))
        for op in ("z", "zb", "w", "wb", "z zb", "z w"):
            assert np.max(np.abs(derivative(u, op).data)) < 1e-12

    def test_zw_of_cos_cos(self, grid):
        x1, _, x3, _ = grid.mesh()
        u = RealField.from_function(
            grid, lambda a, b, c, d: np.cos(TWO_PI * a) * np.cos(TWO_PI * c)
        )
        out = derivative(u, "z w")
        expect = np.pi**2 * np.sin(TWO_PI * x1) * np.sin(TWO_PI * x3)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_first_derivative_symbolic(self, grid):
        # dz of sin(2 pi x1) = pi cos(2 pi x1); dz of sin(2 pi x2) = -i pi cos
        x1, x2, _, _ = grid.mesh()
        u1 = RealField.from_function(grid, lambda a, b, c, d: np.sin(TWO_PI * a))
        out1 = derivative(u1, "z")
        assert np.max(np.abs(out1.data - np.pi * np.cos(TWO_PI * x1))) < 1e-12
        u2 = RealField.from_function(grid, lambda a, b, c, d: np.sin(TWO_PI * b))
        out2 = derivative(u2, "z")
        assert np.max(np.abs(out2.data + 1j * np.pi * np.cos(TWO_PI * x2))) < 1e-12

    def test_third_derivative_composition(self, grid):
        # z z wb of sin(2 pi x1) sin(2 pi x3): dz^2 -> -pi^2 sin,
        # dwb -> pi cos(2 pi x3), total -pi^3 sin(2 pi x1) cos(2 pi x3)
        x1, _, x3, _ = grid.mesh()
        u = RealField.from_function(
            grid, lambda a, b, c, d: np.sin(TWO_PI * a) * np.sin(TWO_PI * c)
        )
        out = derivative(u, "z z wb")
        expect = -np.pi**3 * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x3)
        assert np.max(np.abs(out.data - expect)) < 2e-11

    def test_zzb_of_real_is_real(self, grid):
        rng = np.random.default_rng(7)
        u = RealField.create(grid, rng.normal(size=grid.shape))
        out = derivative(u, "z zb")
        scale = np.max(np.abs(out.data))
        assert np.max(np.abs(out.data.imag)) < 1e-13 * scale

    def test_fast_laplacians_match_general_path(self, grid):
        rng = np.random.default_rng(3)
        u = rng.normal(size=grid.shape)
        lz, lw = factor_laplacians(grid, u)
        ref_z = derivative(RealField(grid, u), "z zb").data.real
        ref_w = derivative(RealField(grid, u), "w wb").data.real
        assert np.max(np.abs(lz - ref_z)) < 1e-12 * max(1, np.max(np.abs(ref_z)))
        assert np.max(np.abs(lw - ref_w)) < 1e-12 * max(1, np.max(np.abs(ref_w)))

    def test_laplacians_take_no_transform(self, grid, monkeypatch):
        """The factor Laplacians apply matrices; only the Poisson solve
        transforms."""
        from splitma import _backend

        def forbidden(*args, **kwargs):
            raise AssertionError("backend transform taken")

        x1, _, x3, _ = grid.mesh()
        rhs = RealField(grid, np.cos(TWO_PI * x1) * np.sin(TWO_PI * x3)
                        * np.ones(grid.shape))
        u = poisson_solve_factor(rhs, "z")
        with monkeypatch.context() as m:
            for name in ("fftn", "ifftn", "rfftn", "irfftn"):
                m.setattr(_backend, name, forbidden)
            lz, lw = factor_laplacians(grid, u.data)
            with pytest.raises(AssertionError, match="transform"):
                poisson_solve_factor(rhs, "z")
        assert np.max(np.abs(lz - rhs.data)) < 1e-13
        assert np.max(np.abs(lw + np.pi**2 * u.data)) < 1e-12

    def test_one_laplacian_holds_at_most_one_and_a_half_fields(
            self, traced_peak):
        """The output and a few cache-sized blocks: about 1.25 fields at
        16^4, where a real transform pair holds about 2.1."""
        g16 = make_grid((16, 16, 16, 16), (1, 1, 1, 1))
        u = np.random.default_rng(5).normal(size=g16.shape)
        factor_laplacians(g16, u)  # build the cached matrices
        for factor in ("z", "w"):
            peak = traced_peak(lambda: factor_laplacian(g16, u, factor))
            assert peak <= 1.5 * u.nbytes, peak / u.nbytes

    def test_rejects_unknown_token(self, grid):
        u = RealField.zeros(grid)
        with pytest.raises(ConfigurationError):
            derivative(u, "z q")

    @pytest.mark.parametrize("op", ["z", "wb", "z zb", "w wb", "z w", "z wb",
                                    "zb w", "z w wb", "z zb w", "zb zb wb"])
    def test_real_data_on_half_spectra(self, grid, op):
        """The half-spectrum path of real data matches the full complex
        spectrum for ops of order 1 to 3."""
        from splitma import _backend

        u = np.random.default_rng(41).normal(size=grid.shape)
        ref = _spectral_deriv(grid, _backend.fftn(u), op)
        got = deriv_data(grid, u, op)
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        if op in ("z zb", "w wb"):  # real multipliers: a real derivative
            assert not np.any(got.imag)

    @pytest.mark.parametrize("op", ["z", "wb", "z zb", "w wb", "z w",
                                    "zb w", "z w wb", "zb zb wb"])
    def test_spectral_deriv_leaves_its_spectrum(self, grid, op):
        """An identity slice takes every derivative of its potential from
        one cached spectrum, so a derivative must leave the spectrum bit
        for bit as it was, for ops of order 1 to 3 on one or both
        factors."""
        from splitma import _backend

        hat = _backend.fftn(np.random.default_rng(43).normal(size=grid.shape))
        before = hat.tobytes()
        _spectral_deriv(grid, hat, op)
        assert hat.tobytes() == before


def _constant_over(grid, axes, seed):
    """Random data that varies only over the given axes."""
    shape = [1, 1, 1, 1]
    for ax in axes:
        shape[ax] = grid.shape[ax]
    rng = np.random.default_rng(seed)
    return np.broadcast_to(rng.normal(size=shape), grid.shape)


class TestMixedDerivatives:
    """u_zw and u_zwb by per-axis matrices against the spectral path."""

    @pytest.fixture(scope="class", params=[
        ((16, 16, 16, 16), (1, 1, 1, 1)), ((8, 16, 32, 8), (1, 2, 0.5, 1.5))],
        ids=["16", "anisotropic"])
    def mgrid(self, request):
        return make_grid(*request.param)

    def test_match_spectral_path(self, mgrid):
        u = np.random.default_rng(43).normal(size=mgrid.shape)
        outs = mixed_derivatives(mgrid, u, "z w", "z wb")
        for out, op in zip(outs, ("z w", "z wb")):
            ref = deriv_data(mgrid, u, op)
            assert out.shape == mgrid.shape and out.dtype == np.complex128
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        alone = mixed_derivatives(mgrid, u, "z wb")
        assert len(alone) == 1 and np.array_equal(alone[0], outs[1])

    @pytest.mark.parametrize("axes", [(0, 1), (2, 3)], ids=["z", "w"])
    def test_constant_over_a_factor_gives_zero(self, mgrid, axes):
        u = _constant_over(mgrid, axes, 47)
        for out in mixed_derivatives(mgrid, u, "z w", "z wb"):
            assert not np.any(out)

    def test_take_no_transform(self, mgrid, monkeypatch):
        from splitma import _backend

        def forbidden(*args, **kwargs):
            raise AssertionError("backend transform taken")

        u = np.random.default_rng(53).normal(size=mgrid.shape)
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(_backend, name, forbidden)
        mixed_derivatives(mgrid, u, "z w", "z wb")

    def test_rejects_other_ops(self, grid):
        with pytest.raises(ConfigurationError):
            mixed_derivatives(grid, np.zeros(grid.shape), "z zb")

    @pytest.mark.parametrize("n", [16, 32])
    def test_holds_the_outputs_and_one_field(self, n, traced_peak):
        """Two complex outputs (four fields) and the x1 derivative p (one
        field); every chunk works in the slab pass's scratch buffers."""
        g = make_grid((n,) * 4, (1,) * 4)
        u = np.random.default_rng(59).normal(size=g.shape)
        mixed_derivatives(g, u, "z w", "z wb")  # build matrices and scratch
        peak = traced_peak(lambda: mixed_derivatives(g, u, "z w", "z wb"))
        assert peak <= 5.6 * u.nbytes, peak / u.nbytes


class TestPoisson:
    def test_cosine(self, grid):
        x1, _, _, _ = grid.mesh()
        rhs = RealField.from_function(grid, lambda a, b, c, d: np.cos(TWO_PI * a))
        u = poisson_solve_factor(rhs, "z")
        expect = -np.cos(TWO_PI * x1) / np.pi**2
        assert np.max(np.abs(u.data - expect)) < 1e-14
        # residual of the defining equation
        res = derivative(u, "z zb").data.real - rhs.data
        assert np.max(np.abs(res)) < 1e-12

    def test_zero_rhs(self, grid):
        u = poisson_solve_factor(RealField.zeros(grid), "z")
        assert np.all(u.data == 0.0)

    def test_nonzero_mean_rejected(self, grid):
        rhs = RealField.create(grid, np.ones(grid.shape))
        with pytest.raises(PoissonDataError):
            poisson_solve_factor(rhs, "z")

    def test_w_factor(self, grid):
        x3 = grid.mesh()[2]
        rhs = RealField.from_function(grid, lambda a, b, c, d: np.sin(2 * TWO_PI * c))
        u = poisson_solve_factor(rhs, "w")
        expect = -np.sin(2 * TWO_PI * x3) / (4 * np.pi**2)
        assert np.max(np.abs(u.data - expect)) < 1e-14

    def test_roundtrip_identity_on_zero_slice_mean(self, grid):
        # derivative then solve recovers the field minus its slice means,
        # for band-limited input
        rng = np.random.default_rng(11)
        hat = np.zeros(grid.shape, dtype=complex)
        for k in ((1, 0, 2, 0), (2, 1, 0, 1), (1, 1, 1, 1), (0, 2, 1, 0)):
            hat[k] = rng.normal() + 1j * rng.normal()
        v = np.fft.ifftn(hat).real
        v = v / np.max(np.abs(v))
        rhs = derivative(RealField(grid, v), "z zb").data
        assert np.max(np.abs(rhs.imag)) <= 1e-10 * np.max(np.abs(rhs))
        back = poisson_solve_factor(RealField(grid, rhs.real), "z")
        v_zeroed = v - v.mean(axis=(0, 1), keepdims=True)
        assert np.max(np.abs(back.data - v_zeroed)) < 1e-12


class TestAnisotropicFactorKernel:
    """Distinct sizes and periods per axis, so a swapped axis or a wrong
    half-spectrum axis in the factor-local transforms shows."""

    @pytest.fixture(scope="class")
    def agrid(self):
        return make_grid((8, 16, 32, 8), (1, 2, 0.5, 1.5))

    def test_laplacians_match_general_path(self, agrid):
        u = RealField(agrid, np.random.default_rng(23).normal(size=agrid.shape))
        lz, lw = factor_laplacians(agrid, u.data)
        for out, op in ((lz, "z zb"), (lw, "w wb")):
            ref = derivative(u, op).data
            assert out.shape == agrid.shape and out.dtype == np.float64
            assert np.max(np.abs(out - ref.real)) < 1e-12 * np.max(np.abs(ref))

    def test_laplacian_of_mode(self, agrid):
        # u = cos(2 pi x2 / L2) sin(2 pi 3 x3 / L3): u_zzb = -(pi/L2)^2 u,
        # u_wwb = -(3 pi/L3)^2 u
        _, x2, x3, _ = agrid.mesh()
        L = agrid.periods
        u = np.cos(TWO_PI * x2 / L[1]) * np.sin(3 * TWO_PI * x3 / L[2])
        u = np.broadcast_to(u, agrid.shape)
        lz, lw = factor_laplacians(agrid, u)
        assert np.max(np.abs(lz + (np.pi / L[1]) ** 2 * u)) < 1e-12
        assert np.max(np.abs(lw + (3 * np.pi / L[2]) ** 2 * u)) < 1e-10

    @pytest.mark.parametrize("factor, axes", [("z", (2, 3)), ("w", (0, 1))])
    def test_constant_over_factor_has_zero_laplacian(self, agrid, factor,
                                                     axes):
        """Data that varies only over the other factor's axes has an
        exactly zero Laplacian on this one."""
        u = _constant_over(agrid, axes, 31)
        assert not np.any(factor_laplacian(agrid, u, factor))

    def test_poisson_roundtrip_w_factor(self, agrid):
        rng = np.random.default_rng(29)
        hat = np.zeros(agrid.shape, dtype=complex)
        for k in ((1, 0, 2, 0), (2, 1, 0, 1), (1, 3, 5, 1), (0, 2, 1, 3)):
            hat[k] = rng.normal() + 1j * rng.normal()
        v = np.fft.ifftn(hat).real
        v = v / np.max(np.abs(v))
        rhs = derivative(RealField(agrid, v), "w wb").data
        assert np.max(np.abs(rhs.imag)) <= 1e-10 * np.max(np.abs(rhs))
        back = poisson_solve_factor(RealField(agrid, rhs.real), "w")
        v_zeroed = v - v.mean(axis=(2, 3), keepdims=True)
        assert np.max(np.abs(back.data - v_zeroed)) < 1e-12

    def test_unknown_factor_rejected(self, agrid):
        rhs = RealField.zeros(agrid)
        with pytest.raises(ConfigurationError):
            poisson_solve_factor(rhs, "x")


class TestStats:
    def test_constant(self, grid):
        s = stats(RealField.create(grid, np.full(grid.shape, 2.5)))
        assert s.min == s.max == s.mean == 2.5

    def test_sine_extrema_on_grid(self, grid):
        u = RealField.from_function(grid, lambda a, b, c, d: np.sin(TWO_PI * a))
        s = stats(u)
        # n1 = 16: the nodes x1 = 1/4, 3/4 realise the exact extrema
        assert s.min == -1.0 and s.max == 1.0
        assert abs(s.mean) < 1e-15
        assert s.sup == 1.0

    def test_invalid_field_errors(self, grid):
        bad = RealField(grid, np.full(grid.shape, np.nan))
        with pytest.raises(ConfigurationError):
            stats(bad)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_ordering_property(self, seed):
        g = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        data = np.random.default_rng(seed).normal(size=g.shape)
        s = stats(RealField(g, data))
        assert s.min <= s.mean <= s.max


class TestComplexTransforms:
    """The complex transforms take one worker per available CPU; their
    output must not depend on the count.  ifftn writes over its input, so
    it is given a copy."""

    @pytest.mark.parametrize("dims", [(16, 16, 16, 16), (8, 16, 32, 8)],
                             ids=["16^4", "8x16x32x8"])
    def test_backend_matches_one_worker(self, dims):
        import os

        import scipy.fft

        from splitma import _backend

        assert _backend.get_workers() == len(os.sched_getaffinity(0))
        rng = np.random.default_rng(17)
        real = rng.normal(size=dims)
        for a in (real, real + 1j * rng.normal(size=dims)):
            for ours, theirs in ((_backend.fftn, scipy.fft.fftn),
                                 (_backend.ifftn, scipy.fft.ifftn)):
                one = theirs(a, workers=1)
                assert np.array_equal(ours(a.copy()), one)
                # and on more workers than this machine may have
                assert np.array_equal(theirs(a, workers=4), one)


class TestBlasThreads:
    """The factor Laplacians, the flow's trace passes and the identity
    suite's blocks, multiplier products and L run on one slab thread per
    available CPU; neither that count nor BLAS's own thread count may
    change a bit of their output."""

    SCRIPT = """
import hashlib
import os
import sys

cpus = sorted(os.sched_getaffinity(0))[:int(sys.argv[1])]
os.sched_setaffinity(0, cpus)
import numpy as np
from splitma import FlowParams, kahler_product_background, make_grid, run
from splitma import random_test_field
from splitma.geometry import pluriclosed_background
from splitma.grid_field import (RealField, _slab_threads, _spectral_deriv,
                                factor_laplacians, mixed_derivatives)
from splitma.identities import ManifoldSlice, _maxima, heat_residual
h = hashlib.sha256()
for dims, periods in (((16,) * 4, (1,) * 4), ((32,) * 4, (1,) * 4),
                      ((8, 16, 32, 8), (1, 2, 0.5, 1.5))):
    grid = make_grid(dims, periods)
    u = np.random.default_rng(13).normal(size=dims)
    for out in factor_laplacians(grid, u):
        h.update(out.tobytes())
grid = make_grid((32,) * 4, (1,) * 4)
u = np.random.default_rng(13).normal(size=grid.shape)
for out in mixed_derivatives(grid, u, "z w", "z wb"):
    h.update(out.tobytes())
prof = (1.0 + 0.2 * np.cos(2 * np.pi * np.arange(32) / 32))[:, None]
bg = kahler_product_background(grid, prof * np.ones(32), prof * np.ones(32))
x1, _, x3, _ = grid.mesh()
forcing = RealField(grid, 0.1 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x3)
                    * np.ones(grid.shape))
traj = run(bg, random_test_field(grid, 5, 0.01, 1),
           FlowParams(beta=0.5, t_end=1e-4, snapshot_stride=1000),
           forcing=forcing)
final = traj.snapshots[-1]
assert abs(final.t - 1e-4) < 1e-12 and len(traj.snapshots) == 2
for f in (final.u, final.lam, final.eta, final.du_dt):
    h.update(f.data.tobytes())
# the identity suite's work on the slab threads
bgp = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])
ws = ManifoldSlice(random_test_field(grid, 3, 0.01, 1, bg=bgp), bgp, 0.7)
heat = heat_residual(ws, lambda p: p.Lam.log())  # on_blocks, then L in-pass
for out in (_spectral_deriv(grid, ws._u_hat, "z w wb"), ws.L(ws.u()), heat,
            _maxima(ws, lambda p: [np.abs(p.d("lam", "z") / p.lam),
                                   p.part(heat)])):
    h.update(out.tobytes())
print(_slab_threads(grid.shape), h.hexdigest())
"""

    def test_laplacians_do_not_depend_on_blas_threads(self):
        """factor_laplacians at three grids, u_zw and u_zwb at 32^4, a
        short forced 32^4 run's final u, lambda, eta and speed, and on a
        32^4 identity slice a spectral derivative, L, an on_blocks heat
        residual and the blockwise maxima of a check, on one and two CPUs
        (one and two slab threads at 32^4) and one and two BLAS threads:
        the same bits."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from splitma import _backend

        src = str(Path(__file__).resolve().parent.parent / "src")
        digests, workers = set(), {}
        for threads in ("1", "2"):
            for cpus in (1, 2):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=src)
                proc = subprocess.run(
                    [sys.executable, "-c", self.SCRIPT, str(cpus)], env=env,
                    capture_output=True, text=True, timeout=300, check=True)
                count, digest = proc.stdout.split()
                workers[cpus] = int(count)
                digests.add(digest)
        assert len(digests) == 1 and len(digests.pop()) == 64
        assert workers[1] == 1
        if (len(os.sched_getaffinity(0)) >= 2
                and _backend.blas_thread_pin() is not None):
            assert workers[2] == 2  # the pool did run


class TestSlabCallers:
    def test_concurrent_callers_get_the_same_bits(self):
        """The slab pool and its chunk buffers are shared by the process:
        four threads (more than this machine's CPUs) that take factor
        Laplacians, trace factors, mixed derivatives, a block map and a
        complex derivative's multiplier product at once, with the
        interpreter switching threads every microsecond, each get the bits
        of a lone call."""
        import hashlib
        import sys
        import threading

        from splitma.flow import lambda_eta
        from splitma.geometry import flat_background
        from splitma.identities import random_test_field

        g32 = make_grid((32, 32, 32, 32), (1, 1, 1, 1))
        bg = flat_background(g32)
        fields = [random_test_field(g32, s, 0.01, 1).data for s in range(4)]
        hats = [np.fft.fftn(u) for u in fields]

        def digest(k):
            u, h = fields[k], hashlib.sha256()
            for out in (*factor_laplacians(g32, u),
                        *(f.data for f in lambda_eta(RealField(g32, u), bg)),
                        *mixed_derivatives(g32, u, "z w", "z wb"),
                        *on_blocks(lambda sl: [np.exp(u.reshape(-1)[sl])],
                                   g32.shape),
                        _spectral_deriv(g32, hats[k], "z w")):
                h.update(out.tobytes())
            return h.digest()

        want = [digest(k) for k in range(4)]
        bad = []

        def caller(k):
            for _ in range(3):
                if digest(k) != want[k]:
                    bad.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestMapBlocks:
    """The block map on pool threads: the first block on the calling
    thread, then runs of up to POOL_BLOCKS blocks on each pool thread."""

    @pytest.mark.parametrize("npoints", [16**4, 16**4 - 5])
    def test_spans_tile_the_points_in_order(self, npoints, monkeypatch):
        """With two threads forced, the spans that fn sees cover every point
        once, in point order: the first block alone on the calling thread,
        every other span at most POOL_BLOCKS blocks on a pool thread, each
        starting on a block boundary."""
        import threading

        from splitma import grid_field

        monkeypatch.setattr(grid_field, "_slab_threads", lambda shape: 2)
        seen = []

        def fn(sl):
            seen.append((sl, threading.current_thread()))
            return sl

        got = grid_field._map_blocks(fn, (npoints,))
        blocks = grid_field.blocks((npoints,))
        assert got[0] == blocks[0] and seen[0][1] is threading.current_thread()
        assert [sl.start for sl in got] == sorted(sl.start for sl, _ in seen)
        assert all(t is not threading.current_thread() for _, t in seen[1:])
        for prev, sl in zip(got, got[1:]):
            assert sl.start == prev.stop and sl.start % grid_field.BLOCK == 0
            assert sl.stop - sl.start <= grid_field.POOL_BLOCKS * grid_field.BLOCK
        assert got[-1].stop >= npoints > got[-1].start
        assert len(got) > 2  # the rest was cut into runs

    def test_on_blocks_on_pool_threads_changes_no_bit(self, monkeypatch):
        """on_blocks of a pointwise numpy expression with two threads forced
        equals the whole-field expression to the bit."""
        from splitma import grid_field

        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 16, 16, 8, 8))
        want = [np.exp(a) * b + np.log1p(a * a), np.abs(a + 1j * b)]
        monkeypatch.setattr(grid_field, "_slab_threads", lambda shape: 2)

        def fn(sl):
            x, y = a.reshape(-1)[sl], b.reshape(-1)[sl]
            return [np.exp(x) * y + np.log1p(x * x), np.abs(x + 1j * y)]

        got = on_blocks(fn, a.shape)
        assert [f.tobytes() for f in got] == [f.tobytes() for f in want]


class TestFieldIO:
    def test_roundtrip_bit_exact(self, grid, tmp_path):
        rng = np.random.default_rng(5)
        u = RealField.create(grid, rng.normal(size=grid.shape))
        p = tmp_path / "u.field"
        write_field(u, p)
        back = read_field(p)
        assert isinstance(back, RealField)
        assert back.grid.shape == grid.shape
        assert np.array_equal(back.data, u.data)

    def test_complex_roundtrip(self, grid, tmp_path):
        rng = np.random.default_rng(6)
        c = ComplexField.create(
            grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        )
        p = tmp_path / "c.field"
        write_field(c, p)
        back = read_field(p)
        assert np.array_equal(back.data, c.data)

    def test_truncated_payload(self, grid, tmp_path):
        u = RealField.zeros(grid)
        p = tmp_path / "u.field"
        write_field(u, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(FieldFormatError, match="length mismatch"):
            read_field(p)

    def test_corrupt_header(self, tmp_path):
        p = tmp_path / "bad.field"
        p.write_bytes(b"not json\n" + b"\x00" * 64)
        with pytest.raises(FieldFormatError, match="corrupt header"):
            read_field(p)

    @pytest.mark.parametrize("dtype", ["<f8", "<c16"])
    def test_non_finite_payload_rejected(self, grid, tmp_path, dtype):
        u = RealField.zeros(grid) if dtype == "<f8" else ComplexField(
            grid, np.zeros(grid.shape, dtype=complex))
        p = tmp_path / "u.field"
        write_field(u, p)
        raw = bytearray(p.read_bytes())
        itemsize = np.dtype(dtype).itemsize
        bad = np.array([np.nan, np.inf], dtype=dtype).tobytes()
        raw[len(raw) - 2 * itemsize:] = bad
        p.write_bytes(bytes(raw))
        with pytest.raises(FieldFormatError, match="non-finite"):
            read_field(p)

    def test_long_payload(self, grid, tmp_path):
        p = tmp_path / "u.field"
        write_field(RealField.zeros(grid), p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(FieldFormatError, match="length mismatch"):
            read_field(p)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_io_transients(self, tmp_path, traced_peak, complex_):
        """At 16^4 write_field copies nothing and read_field allocates the
        returned array only (and isfinite's boolean mask); going through
        bytes copies takes one (write) and three (read) payloads."""
        g16 = make_grid((16, 16, 16, 16), (1, 1, 1, 1))
        data = np.random.default_rng(7).normal(size=g16.shape)
        f = (ComplexField(g16, data - 0.5j * data) if complex_
             else RealField(g16, data))
        p = tmp_path / "u.field"
        write_field(f, p)  # warm the header and file paths
        field = 16**4 * 8
        assert traced_peak(lambda: write_field(f, p)) <= 0.25 * field
        assert traced_peak(lambda: read_field(p)) <= f.data.nbytes + 0.25 * field
        assert np.array_equal(read_field(p).data, f.data)

    def test_mismatched_grid(self, grid, tmp_path):
        u = RealField.zeros(grid)
        p = tmp_path / "u.field"
        write_field(u, p)
        other = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        with pytest.raises(FieldFormatError):
            read_field(p, grid=other)


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        import os

        from splitma.experiments import _write_json
        from splitma.grid_field import atomic_write

        path = tmp_path / "summary.json"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        with pytest.raises(TypeError):
            _write_json(path, {"not serialisable": object()})
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["summary.json"]

    def test_failed_field_write_keeps_the_old_file(self, tmp_path,
                                                   monkeypatch):
        import json
        import os

        def boom(*a, **k):
            raise RuntimeError("interrupted")

        grid = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        path = tmp_path / "u.field"
        write_field(RealField(grid, np.ones(grid.shape)), path)
        before = path.read_bytes()
        monkeypatch.setattr(json, "dumps", boom)  # fails after the open
        with pytest.raises(RuntimeError):
            write_field(RealField(grid, np.zeros(grid.shape)), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["u.field"]
