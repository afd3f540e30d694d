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
from splitma.grid_field import factor_laplacians, real_part

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
        real_part(out)  # must not raise

    def test_fast_laplacians_match_general_path(self, grid):
        rng = np.random.default_rng(3)
        u = rng.normal(size=grid.shape)
        lz, lw = factor_laplacians(grid, u)
        ref_z = derivative(RealField(grid, u), "z zb").data.real
        ref_w = derivative(RealField(grid, u), "w wb").data.real
        assert np.max(np.abs(lz - ref_z)) < 1e-12 * max(1, np.max(np.abs(ref_z)))
        assert np.max(np.abs(lw - ref_w)) < 1e-12 * max(1, np.max(np.abs(ref_w)))

    def test_rejects_unknown_token(self, grid):
        u = RealField.zeros(grid)
        with pytest.raises(ConfigurationError):
            derivative(u, "z q")


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
        rhs = derivative(RealField(grid, v), "z zb")
        back = poisson_solve_factor(real_part(rhs, tol=1e-10), "z")
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

    def test_poisson_roundtrip_w_factor(self, agrid):
        rng = np.random.default_rng(29)
        hat = np.zeros(agrid.shape, dtype=complex)
        for k in ((1, 0, 2, 0), (2, 1, 0, 1), (1, 3, 5, 1), (0, 2, 1, 3)):
            hat[k] = rng.normal() + 1j * rng.normal()
        v = np.fft.ifftn(hat).real
        v = v / np.max(np.abs(v))
        rhs = derivative(RealField(agrid, v), "w wb")
        back = poisson_solve_factor(real_part(rhs, tol=1e-10), "w")
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


class TestParallelMode:
    def test_parallel_agrees_with_deterministic(self, grid):
        from splitma import _backend

        rng = np.random.default_rng(17)
        u = RealField.create(grid, rng.normal(size=grid.shape))
        base = derivative(u, "z zb").data
        try:
            _backend.set_workers(4)
            par = derivative(u, "z zb").data
        finally:
            _backend.set_workers(1)
        scale = np.max(np.abs(base))
        assert np.max(np.abs(par - base)) <= 1e-13 * scale


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

    def test_mismatched_grid(self, grid, tmp_path):
        u = RealField.zeros(grid)
        p = tmp_path / "u.field"
        write_field(u, p)
        other = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        with pytest.raises(FieldFormatError):
            read_field(p, grid=other)
