"""Tests for backgrounds, torsion, curvature, and the bound constants."""

import numpy as np
import pytest

from splitma import ConfigurationError, make_grid
from splitma.errors import BelowBetaThreshold
from splitma.geometry import (
    BETA_MIN,
    Background,
    ConstantsReport,
    b_phi_coefficient,
    constants,
    curvature,
    flat_background,
    kahler_product_background,
    load_background,
    pluriclosed_background,
    save_background,
    select_epsilon_delta,
    torsion,
    verify_pluriclosed,
)
from splitma.grid_field import RealField, deriv_data
from splitma.identities import random_test_field
TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return make_grid((16, 16, 16, 16), (1, 1, 1, 1))


def cos_profile(n1, n2, eps, k=1):
    x = np.arange(n1) / n1
    return (1.0 + eps * np.cos(TWO_PI * k * x))[:, None] * np.ones((1, n2))


class TestKahlerProduct:
    def test_flat(self, grid):
        bg = flat_background(grid)
        assert bg.kind == "kahler_product"
        assert np.all(bg.g.data == 1.0) and np.all(bg.h.data == 1.0)
        assert verify_pluriclosed(bg) < 1e-14

    def test_cosine_profile_has_zero_torsion(self, grid):
        bg = kahler_product_background(grid, cos_profile(16, 16, 0.3), 1.0)
        rep = torsion(bg)
        assert rep.max_norm_sq < 1e-24
        assert rep.max_grad < 1e-12

    def test_nonpositive_profile_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            kahler_product_background(grid, cos_profile(16, 16, 1.2), 1.0)


class TestPluriclosed:
    def test_single_mode_matches_closed_form(self, grid):
        bg = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])
        x1, _, x3, _ = grid.mesh()
        cc = np.cos(TWO_PI * x1) * np.cos(TWO_PI * x3)
        assert np.max(np.abs(bg.g.data - (1.0 - cc / np.pi**2))) < 1e-13
        assert np.max(np.abs(bg.h.data - (1.0 + cc / np.pi**2))) < 1e-13
        assert verify_pluriclosed(bg) < 1e-12

    def test_no_modes_is_flat(self, grid):
        bg = pluriclosed_background(grid, 1.0, 1.0, [])
        assert np.all(bg.g.data == 1.0)
        assert verify_pluriclosed(bg) < 1e-15

    def test_large_amplitude_rejected(self, grid):
        # a = 2 pi^2 makes min g = 1 - 2 < 0
        with pytest.raises(ConfigurationError):
            pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 2 * np.pi**2)])


class TestVerifyPluriclosed:
    def test_violation_magnitude(self, grid):
        x3 = grid.mesh()[2]
        g = 1.0 + 0.1 * np.cos(TWO_PI * x3) * np.ones(grid.shape)
        bg = Background(grid, RealField(grid, g),
                        RealField(grid, np.ones(grid.shape)),
                        "pluriclosed_general")
        res = verify_pluriclosed(bg)
        assert abs(res - 0.1 * np.pi**2) < 1e-10

    def test_flowed_version_on_flat(self, grid):
        bg = flat_background(grid)
        x1, _, x3, _ = grid.mesh()
        # split traces: (g lam)_wwb = 0, (h eta)_zzb = 0
        lam = 1.0 + 0.1 * np.sin(TWO_PI * x1) * np.ones(grid.shape)
        eta = 1.0 + 0.1 * np.sin(TWO_PI * x3) * np.ones(grid.shape)
        assert verify_pluriclosed(bg, lam, eta) < 1e-12


class TestTorsion:
    def test_pluriclosed_mode_matches_symbolic(self, grid):
        bg = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])
        x1, _, x3, _ = grid.mesh()
        g = bg.g.data
        h = bg.h.data
        # g_w = dw(g) = (1/2)(d3 - i d4) g; g depends on x1, x3 only
        g_w = 0.5 * (TWO_PI / np.pi**2) * np.cos(TWO_PI * x1) * np.sin(TWO_PI * x3)
        h_z = -0.5 * (TWO_PI / np.pi**2) * np.sin(TWO_PI * x1) * np.cos(TWO_PI * x3)
        expect = (np.abs(g_w / g) ** 2) / h + (np.abs(h_z / h) ** 2) / g
        rep = torsion(bg)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(rep.norm_sq.data - expect)) < 1e-12 * scale
        assert rep.max_grad > 0.0

    def test_flat_is_torsion_free(self, grid):
        rep = torsion(flat_background(grid))
        assert rep.max_norm_sq == 0.0
        assert rep.max_grad == 0.0

    def test_shared_spectra_match_per_field_derivatives(self):
        """torsion takes the derivatives of a = -g_w and b = h_z from the
        spectra of g and h; transforming a and b themselves must give the
        same norms to rounding."""
        gr = make_grid((8, 16, 32, 8), (1, 2, 0.5, 1.5))
        # random phases in all four directions: no symmetry of the grid
        # can hide a swapped or dropped derivative op
        g = 1.0 + random_test_field(gr, seed=5, amplitude=0.3, band=1).data
        h = 1.0 + random_test_field(gr, seed=6, amplitude=0.3, band=1).data
        bg = Background(gr, RealField(gr, g), RealField(gr, h),
                        "pluriclosed_general")
        g_w, h_z = deriv_data(gr, g, "w"), deriv_data(gr, h, "z")
        g_z, h_w = deriv_data(gr, g, "z"), deriv_data(gr, h, "w")
        nsq = (np.abs(g_w / g) ** 2) / h + (np.abs(h_z / h) ** 2) / g
        cz, cw = g_z / g + h_z / h, g_w / g + h_w / h
        inv_dir = {"z": 1.0 / g, "zb": 1.0 / g, "w": 1.0 / h, "wb": 1.0 / h}
        grad_sq = np.zeros(gr.shape)
        for comp, weight, conn in (
            (-g_w, 1.0 / (g * g * h),
             {"z": cz, "w": cw, "zb": np.conj(g_z / g), "wb": np.conj(g_w / g)}),
            (h_z, 1.0 / (g * h * h),
             {"z": cz, "w": cw, "zb": np.conj(h_z / h), "wb": np.conj(h_w / h)}),
        ):
            for t in ("z", "zb", "w", "wb"):
                dc = deriv_data(gr, comp, t) - conn[t] * comp
                grad_sq = grad_sq + inv_dir[t] * np.abs(dc) ** 2 * weight
        rep = torsion(bg)
        max_nsq = float(np.max(nsq.real))
        max_grad = float(np.sqrt(np.max(grad_sq)))
        assert max_nsq > 0.0 and max_grad > 0.0
        assert abs(rep.max_norm_sq - max_nsq) <= 1e-12 * max_nsq
        assert abs(rep.max_grad - max_grad) <= 1e-12 * max_grad


class TestCurvature:
    def test_flat(self, grid):
        rep = curvature(flat_background(grid))
        assert rep.mixed_curvature_nonneg
        assert np.max(np.abs(rep.log_g_zzb.data)) < 1e-14

    def test_cross_factor_dependence_flips_flag(self, grid):
        x3 = grid.mesh()[2]
        g = np.exp(0.1 * np.cos(TWO_PI * x3)) * np.ones(grid.shape)
        bg = Background(grid, RealField(grid, g),
                        RealField(grid, np.ones(grid.shape)),
                        "pluriclosed_general")
        rep = curvature(bg)
        expect = -0.1 * np.pi**2 * np.cos(TWO_PI * x3) * np.ones(grid.shape)
        assert np.max(np.abs(rep.log_g_wwb.data - expect)) < 1e-10
        assert not rep.mixed_curvature_nonneg

    def test_curved_kahler_product_keeps_flag(self, grid):
        bg = kahler_product_background(grid, cos_profile(16, 16, 0.3), 1.0)
        rep = curvature(bg)
        assert np.max(np.abs(rep.log_g_wwb.data)) < 1e-12
        assert rep.mixed_curvature_nonneg


class TestConstants:
    def test_beta_min_value(self):
        assert abs(BETA_MIN - (2 * np.sqrt(3) - 3) / 3) < 1e-15
        assert abs(BETA_MIN - 0.15470053837925146) < 1e-12

    def test_b_phi_at_half(self):
        assert abs(b_phi_coefficient(0.5) - 96.0 / 11.0) < 1e-9
        assert abs(b_phi_coefficient(0.5) - 8.727272727) < 1e-8

    def test_b_phi_limits(self):
        assert abs(b_phi_coefficient(1.0) - 2.0) < 1e-14
        assert b_phi_coefficient(BETA_MIN + 1e-6) > 1e4
        with pytest.raises(BelowBetaThreshold):
            b_phi_coefficient(0.1)

    def test_kahler_collapse_exact(self, grid):
        bg = kahler_product_background(grid, cos_profile(16, 16, 0.3), 1.0)
        for beta in (0.3, 0.5, 0.9):
            rep = constants(bg, beta, c0=2.0)
            assert rep.c3 == 0.0
            assert rep.c7 == 0.0 and rep.c8 == 0.0
            assert rep.c6 == 2.0
            assert rep.a_psi == 0.0
            assert rep.c11 == 2.0
            assert rep.a_phi == 0.0
            assert rep.c14 == 2.0 * rep.b_phi

    def test_below_threshold_upper_constants(self, grid):
        bg = flat_background(grid)
        rep = constants(bg, 0.12, c0=2.0)
        assert rep.b_phi is None and rep.c14 is None
        with pytest.raises(BelowBetaThreshold, match="universal threshold"):
            constants(bg, 0.12, c0=2.0, require_upper=True)

    def test_epsilon_delta_level(self):
        for beta in (0.2, 0.5, 0.9, 0.99):
            eps, delta = select_epsilon_delta(beta)
            assert 0 < eps < 1 and 0 < delta < 1
            target = beta * (1 - 6 * beta - 3 * beta**2) / (8 * (1 + beta))
            level = -(beta**2) * (1 - delta) + beta * (1 - beta) ** 2 / (
                4 * (1 + beta - eps)
            )
            assert abs(level - target) <= 0.0101 * abs(target)

    def test_monotone_under_overestimation(self, grid):
        bg = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])
        lo = constants(bg, 0.5, c0=2.0, safety=1.0)
        hi = constants(bg, 0.5, c0=2.0, safety=2.0)
        for name in ("c", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8",
                      "c9", "c10", "c11", "c14"):
            assert getattr(hi, name) >= getattr(lo, name)

    def test_pluriclosed_constants_positive(self, grid):
        bg = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 1.0)])
        rep = constants(bg, 0.5, c0=3.0)
        assert rep.c > 0 and rep.c3 > 0 and rep.c7 > 0 and rep.c8 > 0
        assert rep.c6 >= 2.0
        assert rep.c14 is not None and rep.c14 > 0


class TestConstantsGolden:
    """Every field of constants() on flat, varying Kahler product and
    pluriclosed_cos backgrounds at 8^4, pinned as float.hex literals of
    the values the kind-branching constants formulas gave.  On both
    product backgrounds the constants do not depend on the metric, so
    they share one row."""

    CASES = [(0.12, 2.0, 1.0), (0.5, 3.0, 1.5), (0.7, 1.25, 2.0),
             (1.0, 2.5, 1.0)]
    # (row, beta, c0, safety): the fields of ConstantsReport but notes,
    # in declaration order
    GOLDEN = {
    ("product", 0.12, 2.0, 1.0): (
        "0x1.eb851eb851eb8p-4 0x1.3cd3a2c8198e0p-3 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 None None None None None None None"),
    ("product", 0.5, 3.0, 1.5): (
        "0x1.0000000000000p-1 0x1.3cd3a2c8198e0p-3 0x0.0p+0 "
        "0x1.8000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x1.1745d1745d174p+3 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x1.1745d1745d174p+4 0x1.460cbc7f5cf9ap-8 "
        "0x1.d4b24ef715a6ep-2"),
    ("product", 0.7, 1.25, 2.0): (
        "0x1.6666666666666p-1 0x1.3cd3a2c8198e0p-3 0x0.0p+0 "
        "0x1.4000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x1.0a42405f3a077p+2 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x1.0a42405f3a077p+3 0x1.460cbc7f5cf9ap-8 "
        "0x1.f34380a3065e4p-2"),
    ("product", 1.0, 2.5, 1.0): (
        "0x1.0000000000000p+0 0x1.3cd3a2c8198e0p-3 0x0.0p+0 "
        "0x1.4000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 "
        "0x1.0000000000000p+1 0x0.0p+0 0x1.0000000000000p+1 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+2 0x1.460cbc7f5cf9ap-8 "
        "0x1.fd73e68701461p-2"),
    ("pluriclosed_cos", 0.12, 2.0, 1.0): (
        "0x1.eb851eb851eb8p-4 0x1.3cd3a2c8198e0p-3 0x1.9e0d4f1bf2feep-3 "
        "0x1.0000000000000p+1 0x1.aa5340171f338p-1 0x1.aafb8a0941ff6p-1 "
        "0x1.adf87d100eb54p-1 0x1.ec79581ac5e2cp-3 0x1.ec79581ac5e2cp-2 "
        "0x1.3d8f2b0358bc6p+1 0x1.9ae6a7d009a6fp-6 0x1.8e693e3549615p-5 "
        "0x1.9e0d4f1bf2feep-1 0x1.00f2d7997dddcp-1 0x1.feec3aa3af861p+1 "
        "0x1.ac059978b4b89p-3 None None None None None None None"),
    ("pluriclosed_cos", 0.5, 3.0, 1.5): (
        "0x1.0000000000000p-1 0x1.3cd3a2c8198e0p-3 0x1.3689fb54f63f2p-2 "
        "0x1.8000000000000p+1 0x1.df9da81a0319fp+0 0x1.e15dde7fff0c8p+0 "
        "0x1.0070d8d5db0d4p+1 0x1.15cdcbb8a4a3cp-1 0x1.a0b4b194f6f5ap+0 "
        "0x1.d05a58ca7b7adp+1 0x1.0405f631a61bbp-3 0x1.f83d32bb70df3p-3 "
        "0x1.5d5b3abf95070p+1 0x1.d8b95f8fb9d14p-1 0x1.cfd7de0fa7148p+2 "
        "0x1.0405f631a61bbp-2 0x1.1745d1745d174p+3 0x1.1ba969aa86a9dp+1 "
        "0x1.8fb7a4a110b6ep+5 0x1.5d5b3abf95070p+1 0x1.eb3fb49c7bab1p+8 "
        "0x1.460cbc7f5cf9ap-8 0x1.d4b24ef715a6ep-2"),
    ("pluriclosed_cos", 0.7, 1.25, 2.0): (
        "0x1.6666666666666p-1 0x1.3cd3a2c8198e0p-3 0x1.9e0d4f1bf2feep-2 "
        "0x1.4000000000000p+0 0x1.0a74080e73803p+0 0x1.0b4532824f79fp+0 "
        "0x1.0f869a48692e9p+0 0x1.b3c1c1ca8b42ep-1 0x1.1059191e9709dp+0 "
        "0x1.882c8c8f4b84ep+1 0x1.4104331a878a7p-5 0x1.8512c6c009a91p-6 "
        "0x1.437a65cdd5d72p-1 0x1.1dd477dc9f3c0p-4 0x1.0eb2b82040d26p+2 "
        "0x1.ca98490153ea6p-5 0x1.0a42405f3a077p+2 0x1.dcf8ea6edc407p-3 "
        "0x1.33db18043bfaep+2 0x1.437a65cdd5d72p-1 0x1.2a8bf8adbb47fp+5 "
        "0x1.460cbc7f5cf9ap-8 0x1.f34380a3065e4p-2"),
    ("pluriclosed_cos", 1.0, 2.5, 1.0): (
        "0x1.0000000000000p+0 0x1.3cd3a2c8198e0p-3 0x1.9e0d4f1bf2feep-3 "
        "0x1.4000000000000p+1 0x1.0a74080e73803p+0 0x1.0a74080e73803p+0 "
        "0x1.22c5347a741acp+0 0x1.0ae46684896fep-1 0x1.4d9d8025abcbep+0 "
        "0x1.a6cec012d5e5fp+1 0x1.4104331a878a7p-5 0x1.8512c6c009a91p-4 "
        "0x1.437a65cdd5d72p+0 0x1.8512c6c009a91p-3 0x1.2b6c86ee4f77ap+2 "
        "0x1.4104331a878a7p-5 0x1.0000000000000p+1 0x1.4104331a878a7p-4 "
        "0x1.3304b4daa324ap+4 0x1.437a65cdd5d72p+0 0x1.7ad5b108b6ef3p+5 "
        "0x1.460cbc7f5cf9ap-8 0x1.fd73e68701461p-2"),
    }
    NOTES = {"product": "kahler product: torsion and mixed curvature vanish",
             "pluriclosed_cos": "general pluriclosed: conservative grid maxima"}

    @staticmethod
    def background(kind):
        grid = make_grid((8,) * 4, (1,) * 4)
        if kind == "flat":
            return flat_background(grid)
        if kind == "pluriclosed_cos":
            return pluriclosed_background(grid, 1.0, 1.5, [(1, 1, 0.3)])
        x = grid.axis_coord(0)[:, None] * np.ones((1, grid.shape[1]))
        return kahler_product_background(
            grid, 1.0 + 0.2 * np.cos(TWO_PI * x), 1.5 + 0.1 * np.sin(TWO_PI * x))

    @pytest.mark.parametrize("kind", ["flat", "kahler_product",
                                      "pluriclosed_cos"])
    def test_constants_reproduce_the_golden_values(self, kind):
        import dataclasses

        bg = self.background(kind)
        row = "pluriclosed_cos" if kind == "pluriclosed_cos" else "product"
        names = [f.name for f in dataclasses.fields(ConstantsReport)
                 if f.name != "notes"]
        for beta, c0, safety in self.CASES:
            rep = constants(bg, beta, c0=c0, safety=safety)
            got = ["None" if getattr(rep, n) is None
                   else float.hex(getattr(rep, n)) for n in names]
            want = self.GOLDEN[(row, beta, c0, safety)].split()
            assert dict(zip(names, got)) == dict(zip(names, want))
            assert rep.notes == {"safety": f"grid maxima scaled by {safety}",
                                 "kind": self.NOTES[row]}


class TestSerialization:
    def test_roundtrip(self, grid, tmp_path):
        bg = pluriclosed_background(grid, 1.0, 1.2, [(1, 2, 0.5)])
        save_background(bg, tmp_path / "bg")
        back = load_background(tmp_path / "bg")
        assert back.kind == bg.kind
        assert np.array_equal(back.g.data, bg.g.data)
        assert np.array_equal(back.h.data, bg.h.data)
