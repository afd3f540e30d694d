"""Tests for the slice identity checker and its dual-number chain rule."""

import itertools

import numpy as np
import pytest

from splitma import AdmissibilityLost, ConfigurationError, make_grid
from splitma import _backend, grid_field, identities
from splitma.config import ExperimentConfig
from splitma.experiments import cmd_check_identities
from splitma.geometry import (
    PLURICLOSED_GENERAL,
    constants,
    flat_background,
    make_background,
    pluriclosed_background,
    torsion,
)
from splitma.grid_field import (RealField, _spectral_deriv, deriv_data,
                                factor_laplacian)
from splitma.identities import (
    Dual,
    LocalSlice,
    ManifoldSlice,
    material_derivative,
    random_test_field,
    verify_A,
    verify_B,
    verify_C,
)

TWO_PI = 2.0 * np.pi


def general_background(grid, a=0.5):
    """Pluriclosed background that depends on all four directions, so
    z/zb and w/wb derivatives of g and h differ: g = 1 + a p Q and
    h = 1 - a P q with P_zzb = p and Q_wwb = q, hence g_wwb + h_zzb = 0."""
    x1, x2, x3, x4 = grid.mesh()
    L1, L2, L3, L4 = grid.periods
    p = np.cos(TWO_PI * (x1 / L1 + x2 / L2) + 0.3)
    q = np.cos(TWO_PI * (x3 / L3 - x4 / L4) + 1.1)
    P = -p / (np.pi**2 * (1 / L1**2 + 1 / L2**2))
    Q = -q / (np.pi**2 * (1 / L3**2 + 1 / L4**2))
    return make_background(grid, 1 + a * p * Q, 1 - a * P * q, PLURICLOSED_GENERAL)


def cosine_background(grid):
    return pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])


BACKGROUNDS = [cosine_background, general_background]


@pytest.fixture(scope="module")
def grid16():
    return make_grid((16, 16, 16, 16), (1, 1, 1, 1))


@pytest.fixture(scope="module")
def bgp16(grid16):
    return cosine_background(grid16)


@pytest.fixture(scope="module")
def u16(grid16, bgp16):
    return random_test_field(grid16, seed=42, amplitude=0.02, band=1, bg=bgp16)


class TestMaterialDerivative:
    def test_lambda_rule(self, grid16, bgp16, u16):
        beta = 0.5
        ws = ManifoldSlice(u16, bgp16, beta)
        got = ws.Lam.d
        expect = ws.d("spd", "z zb") / bgp16.g.data
        assert np.max(np.abs(got - expect)) == 0.0

    def test_log_chain_rule(self, grid16, bgp16, u16):
        ws = ManifoldSlice(u16, bgp16, 0.5)
        got = ws.Lam.log().d
        expect = ws.Lam.d / ws.lam
        assert np.max(np.abs(got - expect)) < 1e-15

    def test_abs2_rule(self, grid16, bgp16, u16):
        ws = ManifoldSlice(u16, bgp16, 0.5)
        got = ws.U("z wb").abs2().d
        expect = 2.0 * (np.conj(ws.u("z wb")) * ws.d("spd", "z wb")).real
        assert np.max(np.abs(got - expect)) < 1e-15

    def test_public_wrapper(self, grid16, bgp16, u16):
        out = material_derivative(lambda ws: ws.Eta, u16, bgp16, 0.7)
        ws = ManifoldSlice(u16, bgp16, 0.7)
        assert np.max(np.abs(out - (-ws.d("spd", "w wb") / bgp16.h.data))) == 0.0

    def test_product_and_quotient_rules(self, grid16, bgp16, u16):
        ws = ManifoldSlice(u16, bgp16, 0.5)
        dt = (ws.Lam * ws.Eta / (1.0 + ws.Lam)).d
        lam, eta = ws.lam, ws.eta
        dl, de = ws.Lam.d, ws.Eta.d
        expect = ((dl * eta + lam * de) * (1 + lam) - lam * eta * dl) / (1 + lam) ** 2
        assert np.max(np.abs(dt - expect)) < 1e-13

    def test_array_operand_is_constant_in_time(self, grid16, bgp16, u16):
        """ndarray op Dual calls the Dual's method, not an elementwise
        object-array loop: the array is a time-constant factor."""
        ws = ManifoldSlice(u16, bgp16, 0.5)
        g, lam = bgp16.g.data, ws.Lam
        for got, v, d in ((g * lam, g * lam.v, lam.d * g),
                          (g + lam, g + lam.v, lam.d),
                          (g - lam, g - lam.v, -lam.d),
                          (g / lam, g / lam.v, -g * lam.d / (lam.v * lam.v))):
            assert isinstance(got, Dual)
            assert np.array_equal(got.v, v) and np.array_equal(got.d, d)

    def test_product_drops_a_term_of_zero_derivative(self):
        """A factor constant in time adds no term, so the product of two
        such factors keeps the scalar 0 as its derivative."""
        a = Dual(np.array([2.0, 3.0]), np.array([1.0, -1.0]))
        c = Dual(np.array([5.0, 7.0]))
        assert np.array_equal((a * c).d, [5.0, -7.0])
        cc = (c * c).d
        assert cc == 0.0 and not isinstance(cc, np.ndarray)


class TestFactorKernelSlice:
    """The slice's L (flow.Linearised) and its factor Laplacians of
    derived fields go through the factor-local real kernel.  The grid has
    distinct sizes and periods per axis, so a swapped axis shows."""

    @pytest.fixture(scope="class")
    def ws(self):
        gr = make_grid((8, 16, 32, 8), (1, 2, 0.5, 1.5))
        phi = random_test_field(gr, seed=13, amplitude=0.002, band=1)
        return LocalSlice(phi, 1.0, 1.0, 0.7)

    def _composite(self, ws, arr):
        return (ws.L.a * deriv_data(ws.grid, arr, "z zb")
                + ws.L.b * deriv_data(ws.grid, arr, "w wb"))

    def test_L_of_real_input(self, ws):
        arr = np.random.default_rng(31).normal(size=ws.grid.shape)
        got = ws.L(arr)
        ref = self._composite(ws, arr)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_L_of_complex_input(self, ws):
        rng = np.random.default_rng(37)
        arr = rng.normal(size=ws.grid.shape) + 1j * rng.normal(size=ws.grid.shape)
        got = ws.L(arr)
        ref = self._composite(ws, arr)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dt_uses_the_kernel_of_L(self, ws):
        spd = ws.base("spd")
        assert np.array_equal(ws.d("spd", "z zb"),
                              factor_laplacian(ws.grid, spd, "z"))
        assert np.array_equal(ws.d("spd", "w wb"),
                              factor_laplacian(ws.grid, spd, "w"))

    def test_potential_keeps_its_full_spectrum(self, ws):
        """The potential's Laplacians come from its complex spectrum, not
        the factor kernel."""
        phi = ws.base("u")
        hat = _backend.fftn(phi)
        for op in ("z zb", "w wb"):
            assert np.array_equal(ws.d("u", op),
                                  _spectral_deriv(ws.grid, hat, op))


class TestSliceCache:
    """A slice keeps the derivatives of its base fields only, takes the
    conjugate ops of a real base field without a transform, drops each
    derivative after the last group that reads it, and the identity
    recipe stays within its memory budget."""

    @pytest.fixture()
    def slices(self, grid16, bgp16, u16):
        phi = random_test_field(grid16, seed=5, amplitude=0.005, band=2)
        return [ManifoldSlice(u16, bgp16, 0.7), LocalSlice(phi, 1.0, 1.0, 0.7)]

    def test_conjugate_ops_of_real_base_fields(self, slices, monkeypatch):
        calls = []
        real_ifftn = _backend.ifftn
        monkeypatch.setattr(_backend, "ifftn",
                            lambda a: calls.append(1) or real_ifftn(a))
        for ws in slices:
            for key in ws._bases:
                f = ws.base(key)
                for op in ("zb", "wb"):
                    ws.d(key, op[0])
                    n = len(calls)
                    got = ws.d(key, op)
                    assert len(calls) == n, (key, op)
                    direct = _spectral_deriv(ws.grid, _backend.fftn(f), op)
                    err = np.max(np.abs(got - direct))
                    assert err <= 1e-14 * np.max(np.abs(direct)), (key, op, err)

    def test_helper_fields_leave_nothing_in_the_slice(self, grid16, bgp16,
                                                      u16, monkeypatch):
        """No helper field and no derivative past its last use stays in a
        slice: group A leaves what group B reads, B leaves nothing, and
        verify_C's slice ends with what its last rows read.  No derivative
        is taken twice: the groups take as many transforms as when a slice
        kept every derivative to its end (17 in A, 13 in B and 25 in C)."""
        cr = constants(bgp16, 0.7, c0=3.0)
        count = []
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(_backend, name, lambda a, f=getattr(
                _backend, name): count.append(1) or f(a))
        ws = ManifoldSlice(u16, bgp16, 0.7)
        verify_A(u16, bgp16, 0.7, ws=ws)
        assert len(count) == 17
        assert set(ws._derivs) == {
            ("lam", "z"), ("lam", "w"), ("eta", "z"), ("eta", "w"),
            ("g", "z"), ("g", "w"), ("g", "z w"), ("h", "z"), ("h", "w"),
            ("h", "z w"), ("spd", "z zb"), ("spd", "w wb")}
        verify_B(u16, bgp16, 0.7, constants_report=cr, ws=ws)
        assert ws._derivs == {} and len(count) == 17 + 13
        bases = {"u", "lam", "eta", "spd"}
        assert set(ws._bases) == bases | {"g", "h"}
        local = []

        class Recorded(LocalSlice):
            def __init__(self, *args):
                super().__init__(*args)
                local.append(self)

        monkeypatch.setattr(identities, "LocalSlice", Recorded)
        x1, _, x3, _ = grid16.mesh()
        phi = RealField(grid16, 0.01 * np.sin(TWO_PI * x1)
                        * np.sin(TWO_PI * x3) * np.ones(grid16.shape))
        verify_C(phi, 1.0, 1.0, 0.7)
        assert set(local[0]._bases) == bases
        assert set(local[0]._derivs) == {
            ("lam", "z"), ("lam", "w"), ("eta", "z"), ("eta", "w"),
            ("u", "z wb"), ("u", "z z wb"), ("u", "w w zb"),
            ("u", "z wb wb"), ("spd", "z zb"), ("spd", "z wb"),
            ("spd", "w wb")}
        assert len(count) == 17 + 13 + 25

    def test_pool_thread_block_raises_on_a_cache_miss(self, grid16, bgp16,
                                                      u16):
        """A block copy made on a slab pool thread reads the cache but
        takes no transform: a derivative not cached yet raises there and
        is not cached, while the calling thread's copy computes it."""
        ws = ManifoldSlice(u16, bgp16, 0.7)
        sl = grid_field.blocks(grid16.shape)[1]
        lam_z = ws.d("lam", "z")
        got = grid_field._run_parts([lambda: ws.at(sl).d("lam", "zb"),
                                     lambda: ws.at(sl).d("lam", "z")])
        assert np.array_equal(got[0], np.conj(lam_z.reshape(-1)[sl]))
        assert np.array_equal(got[1], lam_z.reshape(-1)[sl])
        with pytest.raises(RuntimeError, match="not cached"):
            grid_field._run_parts([lambda: ws.at(sl).d("eta", "z"),
                                   lambda: None])
        assert ("eta", "z") not in ws._derivs
        assert np.array_equal(ws.at(sl).d("eta", "z"),
                              ws.d("eta", "z").reshape(-1)[sl])

    def test_identity_recipe_peak_memory(self, tmp_path, traced_peak):
        """The tracemalloc peak of the identity recipe on a 16^4
        pluriclosed config, after a warm-up call, is at most 23.6 MiB (47
        real 16^4 fields; it measured 23.58).  Whole-field right-hand sides
        and a slice that kept every derivative to its end peaked at 32.7,
        and a slice that kept every spectrum and derivative it computed at
        about 54."""
        cfg = ExperimentConfig(dims=(16,) * 4, bg_kind="pluriclosed_cos",
                               id_betas=(0.7,), id_seed=3)
        cmd_check_identities(cfg, tmp_path)  # imports and caches
        peak = traced_peak(lambda: cmd_check_identities(cfg, tmp_path))
        assert peak / 2**20 <= 23.6, peak / 2**20


class TestFieldBudget:
    """tracemalloc gates per group at 16^4, in real fields (0.5 MiB), on
    the identity recipe's background and potential, each after a warm-up
    call: the budget is the measured peak plus one field.  The counts do
    not depend on the grid.  Whole-field right-hand sides and a slice
    that kept every derivative to its end peaked at 41.1 (slice and A),
    28.1 (B), 60.1 (C) and 33.3 (constants)."""

    FIELD = 16**4 * 8

    @pytest.fixture(scope="class")
    def inputs(self, grid16, bgp16):
        x1, _, x3, _ = grid16.mesh()
        phi = RealField(grid16, 0.01 * np.sin(TWO_PI * x1)
                        * np.sin(TWO_PI * x3) * np.ones(grid16.shape))
        return random_test_field(grid16, 3, 0.01, 1), phi

    def peak(self, traced_peak, fn) -> float:
        fn()
        return traced_peak(fn) / self.FIELD

    def test_slice_and_group_A(self, bgp16, inputs, traced_peak):
        u, _ = inputs
        peak = self.peak(traced_peak, lambda: verify_A(
            u, bgp16, 0.7, ws=ManifoldSlice(u, bgp16, 0.7)))
        assert peak <= 36.3 + 1, peak

    def test_group_B(self, bgp16, inputs, traced_peak):
        """B starts from the slice that A leaves."""
        u, _ = inputs
        cr = constants(bgp16, 0.7, c0=3.0)

        def group_B():
            ws = ManifoldSlice(u, bgp16, 0.7)
            verify_A(u, bgp16, 0.7, ws=ws)
            return lambda: verify_B(u, bgp16, 0.7, constants_report=cr, ws=ws)

        group_B()()
        peak = traced_peak(group_B()) / self.FIELD
        assert peak <= 17.9 + 1, peak

    def test_group_C(self, inputs, traced_peak):
        _, phi = inputs
        peak = self.peak(traced_peak, lambda: verify_C(phi, 1.0, 1.0, 0.7))
        assert peak <= 39.4 + 1, peak

    def test_constants(self, bgp16, traced_peak):
        """The curvature and the torsion of the background."""
        peak = self.peak(traced_peak, lambda: constants(bgp16, 0.7, c0=3.0))
        assert peak <= 23.8 + 1, peak


class TestBlockSize:
    """The pointwise passes run on blocks of grid_field.BLOCK points: the
    residuals, the reports and the torsion are the same to the bit on one
    block of the whole field and on blocks that do not divide it."""

    @staticmethod
    def suite(grid16, bgp16, u16):
        phi = random_test_field(grid16, seed=5, amplitude=0.005, band=2)
        tors = torsion(bgp16)
        cr = constants(bgp16, 0.7, c0=3.0)
        ws = ManifoldSlice(u16, bgp16, 0.7)
        res = (verify_A(u16, bgp16, 0.7, ws=ws)
               + verify_B(u16, bgp16, 0.7, constants_report=cr, ws=ws)
               + verify_C(phi, 1.0, 1.0, 0.7))
        return res, cr, (tors.max_norm_sq, tors.max_grad,
                         tors.norm_sq.data.tobytes())

    @pytest.mark.parametrize("block", [16**4, 1000])
    def test_block_size_changes_no_bit(self, grid16, bgp16, u16, block,
                                       monkeypatch):
        ref = self.suite(grid16, bgp16, u16)
        monkeypatch.setattr(grid_field, "BLOCK", block)
        assert len(grid_field.blocks(grid16.shape)) == -(-16**4 // block)
        assert self.suite(grid16, bgp16, u16) == ref


class TestGroupA:
    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.0])
    def test_all_equalities_converge(self, beta):
        for make_bg in BACKGROUNDS:
            residuals = {}
            for n in (8, 16):
                gr = make_grid((n,) * 4, (1, 1, 1, 1))
                bgp = make_bg(gr)
                u = random_test_field(gr, seed=7, amplitude=0.01, band=1, bg=bgp)
                res = verify_A(u, bgp, beta, tol=1.0)
                residuals[n] = {r.name: r.residual for r in res}
            for name, r16 in residuals[16].items():
                r8 = residuals[8][name]
                assert r16 <= max(r8 / 5.0, 1e-12), (make_bg.__name__, name, r8, r16)

    def test_passes_at_16_with_loose_tol(self, u16, bgp16):
        res = verify_A(u16, bgp16, 0.5, tol=1e-3)
        for r in res:
            assert r.passed, (r.name, r.residual)

    def test_proportional_speed_identity_tight(self, u16, bgp16):
        res = {r.name: r for r in verify_A(u16, bgp16, 0.5)}
        # A7 compares two spectrally computed heat residuals: near exact
        assert res["A7"].residual < 1e-10
        assert res["L16"].residual < 1e-13
        assert res["A1"].residual < 1e-12
        assert res["A3"].residual < 1e-10


class TestGroupB:
    def test_equalities_converge(self):
        beta = 0.7
        for make_bg in BACKGROUNDS:
            residuals = {}
            for n in (8, 16):
                gr = make_grid((n,) * 4, (1, 1, 1, 1))
                bgp = make_bg(gr)
                u = random_test_field(gr, seed=11, amplitude=0.01, band=1, bg=bgp)
                res = verify_B(u, bgp, beta, tol=1.0)
                residuals[n] = {r.name: r.residual for r in res
                                if r.kind == "equality"}
            for name, r16 in residuals[16].items():
                r8 = residuals[8][name]
                assert r16 <= max(r8 / 5.0, 1e-12), (make_bg.__name__, name, r8, r16)

    def test_split_state_sides_vanish(self, grid16):
        bgf = flat_background(grid16)
        u = RealField.from_function(
            grid16,
            lambda a, b, c, d: 0.03 * np.sin(TWO_PI * a) + 0.03 * np.cos(TWO_PI * c),
        )
        res = {r.name: r for r in verify_B(u, bgf, 0.5)}
        # split data on a flat product: mixed derivative vanishes identically
        assert res["B11"].residual < 1e-10
        assert res["B18"].residual < 1e-10

    def test_growth_inequality_holds(self, grid16, bgp16, u16):
        cr = constants(bgp16, 0.5, c0=3.0)
        res = {r.name: r for r in verify_B(u16, bgp16, 0.5, constants_report=cr)}
        assert res["B23"].passed
        assert res["B23"].kind == "inequality"


class TestGroupC:
    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.0])
    def test_single_mode_fixture(self, beta):
        gr = make_grid((16,) * 4, (1, 1, 1, 1))
        x1, _, x3, _ = gr.mesh()
        phi = RealField(
            gr, 0.01 * np.sin(TWO_PI * x1) * np.sin(TWO_PI * x3) * np.ones(gr.shape)
        )
        res = verify_C(phi, 1.0, 1.0, beta, tol=1e-6)
        for r in res:
            assert r.passed, (r.name, r.residual, beta)

    def test_flat_slice_all_zero(self):
        gr = make_grid((8,) * 4, (1, 1, 1, 1))
        phi = RealField.zeros(gr)
        res = verify_C(phi, 1.0, 1.0, 0.5, tol=1e-13)
        for r in res:
            assert r.passed and r.residual < 1e-13

    def test_subsolution_values_nonpositive(self):
        gr = make_grid((16,) * 4, (1, 1, 1, 1))
        phi = random_test_field(gr, seed=5, amplitude=0.005, band=2)
        res = verify_C(phi, 1.0, 1.0, 0.5)
        signs = [r for r in res if r.kind == "inequality"]
        assert len(signs) == 3
        for r in signs:
            assert r.passed, (r.name, r.note)

    def test_inadmissible_combination_raises(self):
        gr = make_grid((8,) * 4, (1, 1, 1, 1))
        x1, _, x3, _ = gr.mesh()
        phi = RealField(
            gr, 0.2 * np.sin(TWO_PI * x1) * np.ones(gr.shape)
        )
        with pytest.raises(AdmissibilityLost):
            verify_C(phi, 0.5, 1.0, 0.5)

    def test_local_slice_rejects_low_order(self):
        gr = make_grid((8,) * 4, (1, 1, 1, 1))
        ws = LocalSlice(RealField.zeros(gr), 1.0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            ws.u("z")


class TestRandomTestField:
    @staticmethod
    def dense(grid, seed, amplitude, band):
        """The field from the dense spectrum: every mode in one complex 4D
        array, np.fft.ifftn, its real part, then mean and sup fixed."""
        shells = set(range(1, band + 1)) if isinstance(band, int) else set(band)
        rng, kmax = np.random.default_rng(seed), max(shells)
        hat = np.zeros(grid.shape, dtype=complex)
        for k in itertools.product(range(-kmax, kmax + 1), repeat=4):
            if max(map(abs, k)) in shells:
                hat[tuple(ki % n for ki, n in zip(k, grid.shape))] = (
                    rng.standard_normal() + 1j * rng.standard_normal())
        u = np.fft.ifftn(hat).real
        u -= u.mean()
        u *= amplitude / np.max(np.abs(u))
        return u

    @pytest.mark.parametrize("band", [1, 2, (1, 3)],
                             ids=["band1", "band2", "shells1,3"])
    @pytest.mark.parametrize("dims", [(16,) * 4, (32,) * 4, (8, 16, 32, 8)],
                             ids=["16^4", "32^4", "8x16x32x8"])
    def test_equals_the_dense_inverse(self, dims, band):
        """Inverting only the lines that can hold a mode gives the dense
        pipeline's field to the bit, for seeds 0-4."""
        grid = make_grid(dims, (1.0, 2.0, 0.5, 1.5))
        for seed in range(5):
            got = random_test_field(grid, seed, 0.03, band).data
            assert got.tobytes() == self.dense(grid, seed, 0.03,
                                               band).tobytes()

    def test_deterministic(self, grid16):
        a = random_test_field(grid16, seed=9, amplitude=0.05, band=2)
        b = random_test_field(grid16, seed=9, amplitude=0.05, band=2)
        assert np.array_equal(a.data, b.data)

    def test_zero_amplitude(self, grid16):
        z = random_test_field(grid16, seed=1, amplitude=0.0, band=1)
        assert np.all(z.data == 0.0)

    def test_normalised_and_zero_mean(self, grid16):
        u = random_test_field(grid16, seed=2, amplitude=0.07, band=2)
        assert abs(np.max(np.abs(u.data)) - 0.07) < 1e-14
        assert abs(u.data.mean()) < 1e-15

    def test_band_limited(self, grid16):
        u = random_test_field(grid16, seed=3, amplitude=0.05, band=1)
        hat = np.fft.fftn(u.data)
        hat[np.ix_([0, 1, -1], [0, 1, -1], [0, 1, -1], [0, 1, -1])] = 0.0
        assert np.max(np.abs(hat)) < 1e-10 * u.grid.npoints

    def test_admissibility_guard(self, grid16):
        bgf = flat_background(grid16)
        with pytest.raises(AdmissibilityLost):
            random_test_field(grid16, seed=4, amplitude=0.5, band=2, bg=bgf)
