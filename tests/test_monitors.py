"""Tests for the a-priori bound monitors and their negative controls."""

import numpy as np
import pytest

from splitma import ConfigurationError, make_grid
from splitma.flow import FlowParams, make_state, run
from splitma.geometry import constants, flat_background, pluriclosed_background
from splitma.grid_field import RealField
from splitma.monitors import (
    DEFAULT_CHECKS,
    c0_series,
    check_det_w,
    check_legendre_subsolution,
    check_phi_subsolution,
    corrupt_trajectory,
    det_w_residual,
    evaluate,
    legendre_w,
    mixed_norm,
    mixed_norm_sups,
    trace_lower_bound_value,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return make_grid((8, 8, 8, 8), (1, 1, 1, 1))


@pytest.fixture(scope="module")
def bg(grid):
    return flat_background(grid)


def split_sine(grid, amp=0.05):
    return RealField.from_function(
        grid,
        lambda a, b, c, d: amp * np.sin(TWO_PI * a) + amp * np.sin(TWO_PI * c),
    )


def nonsplit_data(grid, amp=0.02):
    return RealField.from_function(
        grid,
        lambda a, b, c, d: amp * np.sin(TWO_PI * a)
        + amp * np.sin(TWO_PI * c)
        + amp * np.sin(TWO_PI * a) * np.sin(TWO_PI * c),
    )


@pytest.fixture(scope="module")
def split_traj(grid, bg):
    from splitma.flow import shift_min_zero

    u0 = shift_min_zero(split_sine(grid))
    params = FlowParams(beta=0.5, t_end=0.5, cfl=0.9, snapshot_stride=20)
    return run(bg, u0, params)


@pytest.fixture(scope="module")
def dense16():
    """Short, finely snapshotted run at a resolution where the spectral
    truncation error sits well below the finite-difference tolerance."""
    from splitma.flow import shift_min_zero

    g16 = make_grid((16, 16, 16, 16), (1, 1, 1, 1))
    b16 = flat_background(g16)
    u0 = shift_min_zero(nonsplit_data(g16, amp=0.01))
    params = FlowParams(
        beta=0.5, t_end=0.001, cfl=1.0, dt_max=5e-5, snapshot_stride=1,
        steady_tol=1e-30,
    )
    return run(b16, u0, params), b16


class TestScalarHelpers:
    def test_trace_lower_bound_reference(self):
        # flat background, zero data: G = 0, c = 0, max u0 = 0
        bound, delta = trace_lower_bound_value(0.5, 0.0, 0.0, 0.0, 0.0,
                                               delta_grid=[0.25])
        assert abs(bound - 0.0625) < 1e-15
        bound2, delta2 = trace_lower_bound_value(0.5, 0.0, 0.0, 0.0, 0.0)
        assert abs(bound2 - 0.45**2) < 1e-12  # best grid delta is 0.45
        assert abs(delta2 - 0.45) < 1e-12

    def test_second_branch_inactive_when_g_small(self):
        # |min G| < 1 - beta: only the first branch matters
        b_small, _ = trace_lower_bound_value(0.5, -0.2, 0.3, 0.1, 1.0,
                                             delta_grid=[0.25])
        a_coef = (1 + 1.25) / 0.25
        expect = (0.25 * np.exp(-0.3)) ** 2 * np.exp(-a_coef * 0.1)
        assert abs(b_small - expect) < 1e-14

    def test_c0_series_constant_state(self, grid, bg):
        from splitma.flow import FlowParams, run

        traj = run(bg, RealField.zeros(grid), FlowParams(beta=0.5, t_end=0.0))
        series, running = c0_series(traj)
        assert series == [2.0] and running == [2.0]

    def test_mixed_norm_symbolic(self, grid, bg):
        eps = 0.01
        u = RealField.from_function(
            grid, lambda a, b, c, d: eps * np.sin(TWO_PI * a) * np.sin(TWO_PI * c)
        )
        state = make_state(u, bg, 1.0, 0.0)
        x1, _, x3, _ = grid.mesh()
        u_zw = eps * np.pi**2 * np.cos(TWO_PI * x1) * np.cos(TWO_PI * x3)
        expect = np.abs(u_zw) ** 2 / (state.lam.data * state.eta.data)
        got = mixed_norm(state, bg, 1.0).data
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_mixed_norm_linear_in_beta(self, grid, bg):
        u = nonsplit_data(grid)
        state = make_state(u, bg, 1.0, 0.0)
        full = mixed_norm(state, bg, 1.0).data
        half = mixed_norm(state, bg, 0.5).data
        assert np.allclose(half, 0.5 * full)

    def test_split_data_zero_mixed_norm(self, grid, bg):
        state = make_state(split_sine(grid), bg, 0.5, 0.0)
        assert np.max(mixed_norm(state, bg, 0.5).data) < 1e-20


class TestLegendreW:
    def test_det_identity(self, grid, bg):
        state = make_state(nonsplit_data(grid), bg, 0.5, 0.0)
        assert det_w_residual(state, bg) < 1e-12

    def test_hermitian_quad_real(self, grid, bg):
        state = make_state(nonsplit_data(grid), bg, 0.5, 0.0)
        w = legendre_w(state, bg)
        q = w.quad(0.3 + 0.4j, 0.5 - 0.2j)
        assert np.all(np.isreal(q))

    def test_positive_definite_on_admissible(self, grid, bg):
        state = make_state(nonsplit_data(grid), bg, 0.5, 0.0)
        w = legendre_w(state, bg)
        assert float(w.w11.min()) > 0 and float(w.w22.min()) > 0
        assert float(w.det().min()) > 0

    def test_requires_constant_background(self, grid):
        x1 = grid.mesh()[0]
        gp = (1 + 0.3 * np.cos(TWO_PI * np.arange(8) / 8))[:, None] * np.ones((1, 8))
        from splitma.geometry import kahler_product_background

        bgc = kahler_product_background(grid, gp, 1.0)
        state = make_state(RealField.zeros(grid), bgc, 0.5, 0.0)
        from splitma.flow import FlowParams, Trajectory

        traj = Trajectory(grid=grid, beta=0.5,
                          params=FlowParams(beta=0.5, t_end=0.0))
        traj.snapshots = [state, state, state]
        traj.dts = [0.0, 0.0, 0.0]
        res = check_legendre_subsolution(traj, bgc)
        assert res.skipped is not None


class TestChecksPassOnCleanRuns:
    def test_default_suite_split_run(self, split_traj, bg):
        results = evaluate(split_traj, bg)
        for name, res in results.items():
            assert res.passed, (name, res.worst_margin, res.skipped)

    def test_time_difference_checks_dense_run(self, dense16):
        traj, b16 = dense16
        res = check_legendre_subsolution(traj, b16)
        assert res.passed and res.skipped is None
        assert res.worst_margin >= 0.0
        cr = constants(b16, 0.5, c0=max(c0_series(traj)[1]))
        res = check_phi_subsolution(traj, b16, cr)
        assert res.passed and res.skipped is None
        res = check_det_w(traj, b16)
        assert res.passed

    def test_skips_on_pluriclosed_background(self, grid):
        bgp = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 0.3)])
        from splitma.identities import random_test_field

        u0 = random_test_field(grid, 3, 0.01, 1, bg=bgp)
        from splitma.flow import shift_min_zero

        params = FlowParams(beta=0.5, t_end=0.01, cfl=0.9, snapshot_stride=5)
        traj = run(bgp, shift_min_zero(u0), params)
        results = evaluate(traj, bgp, enabled=list(DEFAULT_CHECKS) + ["legendre_subsolution"])
        assert results["trace_floor"].skipped is not None
        assert results["legendre_subsolution"].skipped is not None
        assert results["speed_consistency"].passed

    def test_beta_one_skips_lower_bound(self, grid, bg):
        u0 = split_sine(grid)
        from splitma.flow import shift_min_zero

        params = FlowParams(beta=1.0, t_end=0.01, cfl=0.9, snapshot_stride=5)
        traj = run(bg, shift_min_zero(u0), params)
        results = evaluate(traj, bg)
        assert results["trace_lower_bound"].skipped is not None
        assert results["trace_growth"].passed  # beta = 1 > threshold


class TestNegativeControls:
    @pytest.mark.parametrize(
        "check",
        [
            "speed_consistency",
            "speed_range",
            "potential_bounds",
            "trace_lower_bound",
            "trace_floor",
            "mixed_growth",
            "trace_growth",
            "split_preserved",
        ],
    )
    def test_default_checks_fail_on_corruption(self, split_traj, bg, check):
        bad = corrupt_trajectory(split_traj, check)
        res = evaluate(bad, bg, enabled=[check])[check]
        assert res.skipped is None
        assert not res.passed, check

    @pytest.mark.parametrize(
        "check", ["legendre_subsolution", "phi_subsolution", "det_w"]
    )
    def test_time_difference_checks_fail_on_corruption(self, dense16, check):
        traj, b16 = dense16
        bad = corrupt_trajectory(traj, check)
        res = evaluate(bad, b16, enabled=[check])[check]
        assert res.skipped is None
        assert not res.passed, check

    def test_clean_trajectory_unchanged_by_corruption(self, split_traj, bg):
        before = split_traj.snapshots[1].u.data.copy()
        corrupt_trajectory(split_traj, "potential_bounds")
        assert np.array_equal(split_traj.snapshots[1].u.data, before)


class TestDeterminism:
    def test_reevaluation_is_bit_identical(self, split_traj, bg):
        r1 = evaluate(split_traj, bg)
        r2 = evaluate(split_traj, bg)
        for name in r1:
            e1, e2 = r1[name].entries, r2[name].entries
            assert len(e1) == len(e2)
            for a, b in zip(e1, e2):
                assert a.margin == b.margin and a.observed == b.observed

    def test_supplied_sups_match_computed(self, split_traj, bg):
        sups = mixed_norm_sups(split_traj, bg)
        assert len(sups) == len(split_traj.snapshots)
        r1 = evaluate(split_traj, bg)
        r2 = evaluate(split_traj, bg, sups=sups)
        for name in ("mixed_growth", "trace_growth"):
            assert [e.margin for e in r1[name].entries] == [
                e.margin for e in r2[name].entries]
        with pytest.raises(ConfigurationError):
            evaluate(split_traj, bg, sups=sups[:-1])
