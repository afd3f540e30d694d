"""Tests for the reductions, the integrator, and the gauge step."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitma import AdmissibilityLost, ConfigurationError, make_grid
from splitma.errors import NumericalFailure
from splitma.flow import (
    FlowParams,
    FlowState,
    Linearised,
    dt_adaptive,
    flow_speed,
    gauge_out_f,
    integrate,
    lambda_eta,
    make_state,
    normalize_compat,
    normalize_exponents,
    run,
    shift_min_zero,
    spectral_radius_bounds,
    step_rk4,
    step_with_rejection,
)
from splitma.geometry import (flat_background, kahler_product_background,
                              pluriclosed_background)
from splitma.grid_field import RealField, derivative, factor_laplacians, sup_norm
from splitma.identities import random_test_field
from splitma.oracle2d import run_factor_flow

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return make_grid((16, 16, 16, 16), (1, 1, 1, 1))


@pytest.fixture(scope="module")
def bg(grid):
    return flat_background(grid)


@pytest.fixture(scope="module")
def kahler16(grid):
    """A 16^4 kahler_cos background (g_eps = h_eps = 0.2), random
    non-split data and a forcing that depends on both factors."""
    x = np.arange(16) / 16
    prof = (1.0 + 0.2 * np.cos(TWO_PI * x))[:, None] * np.ones((1, 16))
    x1, _, x3, _ = grid.mesh()
    forcing = 0.1 * np.cos(TWO_PI * x1) * np.cos(TWO_PI * x3)
    return (kahler_product_background(grid, prof, prof),
            random_test_field(grid, 5, 0.01, 1), forcing)


def split_sine(grid, amp_a=0.05, amp_b=0.05, k=1, m=1):
    x1, _, x3, _ = grid.mesh()
    return RealField.from_function(
        grid,
        lambda a, b, c, d: amp_a * np.sin(TWO_PI * k * a)
        + amp_b * np.sin(TWO_PI * m * c),
    )


class TestReductions:
    def test_normalize_exponents(self, grid):
        f = RealField.create(grid, np.full(grid.shape, 2.0))
        beta, f2, scale = normalize_exponents(2.0, 1.0, f)
        assert beta == 0.5 and scale == 2.0
        assert np.all(f2.data == 1.0)

    def test_normalize_identity(self, grid):
        beta, f2, scale = normalize_exponents(1.0, 1.0, None)
        assert beta == 1.0 and scale == 1.0 and f2 is None

    def test_normalize_rejects_beta_above_alpha(self):
        with pytest.raises(ConfigurationError):
            normalize_exponents(1.0, 2.0, None)

    def test_shift_min_zero(self, grid):
        u = RealField.create(grid, np.full(grid.shape, 5.0))
        assert np.all(shift_min_zero(u).data == 0.0)
        x1 = grid.mesh()[0]
        v = RealField.from_function(grid, lambda a, b, c, d: np.sin(TWO_PI * a))
        out = shift_min_zero(v)
        assert abs(out.data.min()) < 1e-15
        assert np.max(np.abs(out.data - (1.0 + np.sin(TWO_PI * x1)))) < 1e-15

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(-10, 10, allow_nan=False))
    def test_shift_idempotent(self, c):
        g = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        u = RealField.create(g, np.full(g.shape, c))
        once = shift_min_zero(u)
        twice = shift_min_zero(once)
        assert np.array_equal(once.data, twice.data)


class TestLambdaEta:
    def test_zero_potential(self, grid, bg):
        lam, eta = lambda_eta(RealField.zeros(grid), bg)
        assert np.all(lam.data == 1.0) and np.all(eta.data == 1.0)

    def test_sine_profile(self, grid, bg):
        eps = 0.03
        x1 = grid.mesh()[0]
        u = RealField.from_function(grid, lambda a, b, c, d: eps * np.sin(TWO_PI * a))
        lam, eta = lambda_eta(u, bg)
        expect = 1.0 - eps * np.pi**2 * np.sin(TWO_PI * x1)
        assert np.max(np.abs(lam.data - expect)) < 1e-12
        assert np.max(np.abs(eta.data - 1.0)) < 1e-12

    def test_admissibility_lost(self, grid, bg):
        # amplitude 1/pi^2 puts min lambda exactly at zero
        u = RealField.from_function(
            grid, lambda a, b, c, d: np.sin(TWO_PI * a) / np.pi**2
        )
        with pytest.raises(AdmissibilityLost):
            lambda_eta(u, bg)

    def test_flow_speed_values(self, grid):
        lam = np.full(grid.shape, np.e)
        eta = np.ones(grid.shape)
        s = flow_speed(lam, eta, 0.5)
        assert np.allclose(s, 0.5)


class TestDtAdaptive:
    def test_flat_reference_value(self, bg, grid):
        state = make_state(RealField.zeros(grid), bg, 1.0, 0.0)
        # two identical factor radii: rho = 2 * (1/4) * 2 * (16 pi)^2
        rho = 2 * 0.25 * 2 * (16 * np.pi) ** 2
        dt = dt_adaptive(state, 1.0, cfl=1.0, dt_max=10.0)
        assert abs(dt - 1.0 / rho) < 1e-15 / rho

    def test_reference_value_n32(self):
        g32 = make_grid((32, 32, 32, 32), (1, 1, 1, 1))
        b32 = flat_background(g32)
        state = make_state(RealField.zeros(g32), b32, 1.0, 0.0)
        dt = dt_adaptive(state, 1.0, cfl=1.0, dt_max=10.0)
        rho = 1024 * np.pi**2
        assert abs(rho - 10106.5) < 0.2
        assert abs(dt - 1.0 / rho) < 1e-18

    def test_cfl_linear(self, bg, grid):
        state = make_state(RealField.zeros(grid), bg, 1.0, 0.0)
        d1 = dt_adaptive(state, 1.0, cfl=1.0, dt_max=10.0)
        d2 = dt_adaptive(state, 1.0, cfl=0.5, dt_max=10.0)
        assert abs(d2 - 0.5 * d1) < 1e-18

    def test_lambda_scaling_monotone(self, grid, bg):
        u = split_sine(grid, 0.05, 0.0)
        s1 = make_state(RealField.zeros(grid), bg, 0.5, 0.0)
        s2 = make_state(u, bg, 0.5, 0.0)
        # min lambda < 1 increases the z-part of rho, shrinking dt
        assert dt_adaptive(s2, 0.5, 1.0, 10.0) < dt_adaptive(s1, 0.5, 1.0, 10.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_minima_give_the_quotient_maxima_bit_for_bit(self, grid, seed):
        """beta / min(g lam) is max(beta / (g lam)) to the last bit on
        random admissible fields, and likewise 1 / min(h eta)."""
        rng = np.random.default_rng(seed)
        n = grid.shape[0]
        kbg = kahler_product_background(grid, rng.uniform(0.1, 3.0, (n, n)),
                                        rng.uniform(0.1, 3.0, (n, n)))
        u = RealField.zeros(grid)
        lam, eta = (RealField(grid, rng.lognormal(0.0, 1.0, grid.shape))
                    for _ in range(2))
        metric_min = (float(np.min(kbg.g.data * lam.data)),
                      float(np.min(kbg.h.data * eta.data)))
        state = FlowState(u=u, t=0.0, lam=lam, eta=eta, du_dt=u,
                          metric_min=metric_min)
        beta, cfl = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        kz, kw = spectral_radius_bounds(grid)
        rho = (float(np.max(beta / (kbg.g.data * lam.data))) * kz
               + float(np.max(1.0 / (kbg.h.data * eta.data))) * kw)
        assert dt_adaptive(state, beta, cfl, 10.0) == cfl / rho


    def test_trace_pass_minima_give_the_same_step(self, kahler16):
        """The minima of g lam and h eta that the trace pass keeps, chunk
        by chunk, are the whole-field minima of the stored lam and eta, so
        they give the step that those give."""
        kbg, u0, f = kahler16
        state = make_state(u0, kbg, 0.5, 0.0, forcing=RealField(u0.grid, f))
        assert state.metric_min == (
            float(np.min(kbg.g.data * state.lam.data)),
            float(np.min(kbg.h.data * state.eta.data)))


class TestLinearised:
    """J v = a v_zzb + b v_wwb, a = beta/(g lam) and b = 1/(h eta), at the
    traces of a make_state state, on two varying backgrounds."""

    @pytest.fixture(scope="class", params=["kahler_cos", "pluriclosed"])
    def at_state(self, request, grid, kahler16):
        if request.param == "kahler_cos":
            bg, u, _ = kahler16
        else:
            bg = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 0.5)])
            u = random_test_field(grid, 7, 0.01, 1, bg)
        beta = 0.7
        s = make_state(u, bg, beta, 0.0)
        return Linearised(grid, bg.g.data, bg.h.data, s.lam.data, s.eta.data,
                          beta), s, beta

    def test_of_the_potential_is_identity_A1(self, at_state):
        """u_zzb = g (lam - 1) and u_wwb = h (1 - eta), so J u is
        1/eta - beta/lam + (beta - 1) from the stored traces."""
        J, s, beta = at_state
        ref = 1.0 / s.eta.data - beta / s.lam.data + (beta - 1.0)
        err = np.max(np.abs(J(s.u.data) - ref))
        assert err <= 1e-12 * (1.0 + np.max(np.abs(ref)))

    def test_residual_is_d_minus_J_v_bit_for_bit(self, at_state):
        """J(v, d) is d - J(v) to the last bit, for real v and d and, part
        by part, for complex ones."""
        J, s, _ = at_state
        rng = np.random.default_rng(41)
        v, d, vi, di = (rng.normal(size=s.u.grid.shape) for _ in range(4))
        assert np.array_equal(J(v, d), d - J(v))
        vc, dc = v + 1j * vi, d + 1j * di
        got = J(vc, dc)
        assert got.dtype == np.complex128
        assert np.array_equal(got, dc - J(vc))


class TestStepping:
    def test_stationary_point(self, grid, bg):
        u = np.zeros(grid.shape)
        out = step_rk4(u, bg, 0.5, 1e-3)
        assert np.max(np.abs(out)) < 1e-16

    def test_step_is_the_textbook_formula_bit_for_bit(self, grid, kahler16):
        """The in-place step keeps the operation order of the textbook
        RK4 step and of its trace factors and speed."""
        kbg, u0, f = kahler16
        beta, dt = 0.5, 2e-4

        def textbook_speed(v):
            u_zzb, u_wwb = factor_laplacians(grid, v)
            lam = 1.0 + u_zzb / kbg.g.data
            eta = 1.0 - u_wwb / kbg.h.data
            return lam, eta, flow_speed(lam, eta, beta, f)

        u = u0.data
        k1 = textbook_speed(u)[2]
        k2 = textbook_speed(u + 0.5 * dt * k1)[2]
        k3 = textbook_speed(u + 0.5 * dt * k2)[2]
        k4 = textbook_speed(u + dt * k3)[2]
        ref = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(step_rk4(u, kbg, beta, dt, forcing=f), ref)
        lam, eta = lambda_eta(u0, kbg)
        ref_lam, ref_eta, _ = textbook_speed(u)
        assert np.array_equal(lam.data, ref_lam)
        assert np.array_equal(eta.data, ref_eta)
        out, dt_used = step_with_rejection(u, kbg, beta, dt, 1e-10, f, 0.0,
                                           k1=k1)
        assert dt_used == dt
        for got, want in zip(out, (ref, *textbook_speed(ref))):
            assert np.array_equal(got, want)

    def test_split_data_stays_split(self, grid, bg):
        u0 = split_sine(grid)
        params = FlowParams(beta=0.5, t_end=0.02, cfl=0.9, snapshot_stride=10)
        traj = run(bg, u0, params)
        for snap in traj.snapshots:
            mixed = derivative(snap.u, "z w")
            assert sup_norm(mixed) < 1e-10

    def test_oversized_step_fails_loudly(self, grid, bg):
        u0 = split_sine(grid, 0.09, 0.09)
        with pytest.raises((AdmissibilityLost, NumericalFailure)):
            # dt far beyond the stability limit on rough data, no retries here
            step_rk4(u0.data, bg, 0.5, 5.0)

    def test_run_trivial_steady(self, grid, bg):
        params = FlowParams(beta=0.5, t_end=1.0)
        traj = run(bg, RealField.zeros(grid), params)
        assert traj.termination == "steady"
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_run_t_end_zero(self, grid, bg):
        params = FlowParams(beta=0.5, t_end=0.0)
        u0 = split_sine(grid)
        traj = run(bg, u0, params)
        assert len(traj.snapshots) == 1

    def test_speed_cache_consistency(self, grid, bg):
        u0 = split_sine(grid)
        params = FlowParams(beta=0.5, t_end=0.01, cfl=0.9, snapshot_stride=5)
        traj = run(bg, u0, params)
        for snap in traj.snapshots:
            expect = flow_speed(snap.lam.data, snap.eta.data, 0.5)
            assert np.max(np.abs(snap.du_dt.data - expect)) == 0.0

    def test_checkpoint_times_hit_exactly(self, grid, bg):
        u0 = split_sine(grid)
        params = FlowParams(beta=0.5, t_end=0.02, cfl=0.9, snapshot_stride=10**9)
        cps = [0.005, 0.01, 0.015]
        traj = run(bg, u0, params, checkpoint_times=cps)
        times = traj.times
        for c in cps:
            assert any(abs(t - c) < 1e-12 for t in times), (c, times)


class TestIntegrate:
    """The one run loop: its yields, its stops and its trace evaluations."""

    @pytest.fixture
    def small(self):
        g8 = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        return g8, flat_background(g8)

    @staticmethod
    def count_trace_evals(monkeypatch):
        import splitma.flow as flow

        calls = []
        real = flow._lambda_eta_data

        def counted(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(flow, "_lambda_eta_data", counted)
        return calls

    @pytest.mark.parametrize("filtered, per_step", [(False, 4), (True, 5)])
    def test_clean_run_trace_evals(self, small, monkeypatch, filtered,
                                   per_step):
        # k1 is the speed of the accepted state: four evaluations a step,
        # one more when the spectral filter re-evaluates the filtered state
        g8, b8 = small
        calls = self.count_trace_evals(monkeypatch)
        params = FlowParams(beta=0.5, t_end=0.01, cfl=0.9,
                            spectral_filter=filtered)
        traj = run(b8, split_sine(g8, 0.03, 0.03), params)
        steps = len(traj.snapshots) - 1
        assert traj.termination == "t_end" and steps >= 5
        assert len(calls) == 1 + per_step * steps

    def test_steady_run_evaluates_once(self, small, monkeypatch):
        g8, b8 = small
        calls = self.count_trace_evals(monkeypatch)
        traj = run(b8, RealField.zeros(g8), FlowParams(beta=0.5, t_end=1.0))
        assert traj.termination == "steady"
        assert len(calls) == 1

    def test_stops_and_end_are_flagged_once(self, small):
        g8, b8 = small
        cps = [0.005, 0.01, 0.015]
        params = FlowParams(beta=0.5, t_end=0.02, cfl=0.9)
        out = list(integrate(b8, split_sine(g8), params, stops=cps))
        assert out[0][0].t == 0.0 and out[0][1] == 0.0
        flagged = [s.t for s, _, at_stop in out if at_stop]
        assert len(flagged) == len(cps) + 1
        for t, c in zip(flagged, cps + [0.02]):
            assert abs(t - c) <= 1e-12, (t, c)
        assert flagged[-1] == out[-1][0].t

    def test_keep_streams_the_kept_states(self, small):
        """With a keep callback run hands over each kept state as it is
        produced, bit-identical to the stored run's snapshots, and its
        trajectory holds only the last one, also when it stops steady."""
        g8, b8 = small
        params = FlowParams(beta=0.5, t_end=0.01, cfl=0.9, snapshot_stride=3)
        stored = run(b8, split_sine(g8), params)
        kept = []

        def keep(traj):
            assert len(traj.snapshots) == len(traj.dts) == 1
            kept.append((traj.snapshots[-1], traj.dts[-1]))

        last = run(b8, split_sine(g8), params, keep=keep)
        assert len(kept) == len(stored.snapshots) >= 3
        for (s, dt), ref, ref_dt in zip(kept, stored.snapshots, stored.dts):
            assert s.t == ref.t and dt == ref_dt
            assert np.array_equal(s.u.data, ref.u.data)
        assert last.snapshots == [kept[-1][0]] and last.dts == [kept[-1][1]]
        assert last.termination == stored.termination == "t_end"
        steady = run(b8, RealField.zeros(g8), FlowParams(beta=0.5, t_end=1.0),
                     keep=keep)
        assert steady.termination == "steady" and len(steady.snapshots) == 1

    def test_run_drops_u0_once_a_later_state_is_kept(self, small):
        """Handed u0 without a reference of its caller's, run and integrate
        free it when the next kept state replaces the first."""
        g8, b8 = small
        params = FlowParams(beta=0.5, t_end=0.01, cfl=0.9, snapshot_stride=3)
        initial, alive = [], []

        def keep(traj):
            if not initial:
                initial.append(weakref.ref(traj.snapshots[0].u.data))
            else:
                alive.append(initial[0]() is not None)

        run(b8, split_sine(g8), params, keep=keep)
        assert alive and not any(alive), alive

    def test_t_end_zero_yields_once(self, small):
        g8, b8 = small
        out = list(integrate(b8, split_sine(g8), FlowParams(beta=0.5,
                                                            t_end=0.0)))
        assert len(out) == 1
        state, dt_used, at_stop = out[0]
        assert state.t == 0.0 and dt_used == 0.0 and at_stop


class TestMemory:
    """tracemalloc gates on the stepping layer's working set, in 16^4
    field units."""

    FIELD = 16**4 * 8

    def test_one_step_holds_at_most_six_fields(self, kahler16,
                                               traced_peak):
        # the stage buffer, k2's buffer as the accumulator and one k, then
        # the accepted state's lam, eta and speed: about 4.1 fields beyond
        # u and k1; a full lam and eta per stage took 5.1, and allocating
        # every intermediate takes 9.0
        kbg, u0, f = kahler16
        state = make_state(u0, kbg, 0.5, 0.0, forcing=RealField(u0.grid, f))
        dt = dt_adaptive(state, 0.5, cfl=1.0, dt_max=1.0)

        def step():
            _, dt_used = step_with_rejection(
                u0.data, kbg, 0.5, dt, 1e-10, f, 0.0, k1=state.du_dt.data)
            assert dt_used == dt

        step()  # warm the transform plans and the multiplier cache
        assert traced_peak(step) <= 6 * self.FIELD

    def test_rejected_step_holds_at_most_six_fields(self, kahler16,
                                                    traced_peak):
        # a step rejected five times holds no more than an accepted one,
        # about 4.1 fields; keeping the last rejection's traceback held
        # the failed attempt's arrays through each retry, 7.2
        kbg, u0, f = kahler16
        state = make_state(u0, kbg, 0.5, 0.0, forcing=RealField(u0.grid, f))
        dt = 4096 * dt_adaptive(state, 0.5, cfl=1.0, dt_max=1.0)

        def step():
            _, dt_used = step_with_rejection(
                u0.data, kbg, 0.5, dt, 1e-10, f, 0.0, k1=state.du_dt.data)
            assert dt_used <= dt / 4

        step()
        peak = traced_peak(step)
        assert peak <= 6 * self.FIELD, peak / self.FIELD

    @pytest.mark.parametrize("t_end, kept, bound", [
        (1e-5, 2, 10),      # one step
        (2.5e-4, 4, 11),    # keeps at steps 0, 10, 20 and 25
    ])
    def test_streamed_run_peak(self, kahler16, traced_peak, t_end, kept,
                               bound):
        """Between keeps a streamed run holds the current state, the kept
        potential and one step's working set: about 8.1 fields on one step
        and 10.1 once a later state is kept, where holding the whole kept
        state and allocating every intermediate takes 13.0 and 17.0."""
        kbg, u0, _ = kahler16
        params = FlowParams(beta=0.5, t_end=t_end, dt_max=1e-5,
                            snapshot_stride=10)
        times = []
        peak = traced_peak(lambda: run(
            kbg, u0, params, keep=lambda tr: times.append(tr.snapshots[-1].t)))
        assert len(times) == kept
        assert peak <= bound * self.FIELD, peak / self.FIELD

    def test_gauge_holds_at_most_six_and_a_half_fields(self, kahler16,
                                                       traced_peak):
        # a Poisson solve holds its right-hand side and u_inf but no new
        # coefficient: about 4.1 fields, returned u_inf, g_new and h_new
        # included; holding each new coefficient beside its right-hand
        # side took 6.1, and whole temporaries for both exponentials 7.0
        kbg, _, _ = kahler16
        grid = kbg.grid
        x1, _, x3, _ = grid.mesh()
        fp = RealField(grid, 0.1 * np.cos(TWO_PI * x1) * np.ones(grid.shape))
        fm = RealField(grid, 0.1 * np.sin(TWO_PI * x3) * np.ones(grid.shape))
        gauge_out_f(kbg, fp, fm, 0.5)  # warm the Poisson multipliers
        peak = traced_peak(lambda: gauge_out_f(kbg, fp, fm, 0.5))
        assert peak <= 6.5 * self.FIELD, peak / self.FIELD


class TestOracle2D:
    def test_split_flow_matches_factor_flows(self, grid, bg):
        amp = 0.04
        u0 = split_sine(grid, amp, amp)
        t_end = 0.2
        cps = [0.05, 0.1, 0.15, 0.2]
        params = FlowParams(beta=0.5, t_end=t_end, cfl=0.8, snapshot_stride=10**9)
        traj = run(bg, u0, params, checkpoint_times=cps)

        n1, n2, n3, n4 = grid.shape
        x1 = np.arange(n1) / n1
        x3 = np.arange(n3) / n3
        a0 = amp * np.sin(TWO_PI * x1)[:, None] * np.ones((1, n2))
        b0 = amp * np.sin(TWO_PI * x3)[:, None] * np.ones((1, n4))
        fa = run_factor_flow(a0, 1.0, (1.0, 1.0), 0.5, "plus", t_end, cps)
        fb = run_factor_flow(b0, 1.0, (1.0, 1.0), 0.5, "minus", t_end, cps)

        for c in cps:
            i4 = min(range(len(traj.times)), key=lambda i: abs(traj.times[i] - c))
            ia = min(range(len(fa.times)), key=lambda i: abs(fa.times[i] - c))
            ib = min(range(len(fb.times)), key=lambda i: abs(fb.times[i] - c))
            assert abs(traj.times[i4] - c) < 1e-10
            combo = (
                fa.states[ia][:, :, None, None] + fb.states[ib][None, None, :, :]
            )
            err = np.max(np.abs(traj.snapshots[i4].u.data - combo))
            assert err < 1e-7, (c, err)

    def test_frozen_factor_stays_frozen(self, grid, bg):
        # z-only data: the w-factor flow must not move
        u0 = split_sine(grid, 0.05, 0.0)
        params = FlowParams(beta=0.5, t_end=0.05, cfl=0.8, snapshot_stride=10**9)
        traj = run(bg, u0, params, checkpoint_times=[0.05])
        final = traj.snapshots[-1]
        # u stays independent of (x3, x4)
        dep = np.max(np.abs(final.u.data - final.u.data.mean(axis=(2, 3),
                                                             keepdims=True)))
        assert dep < 1e-12


class TestSpectralFilter:
    def test_filter_preserves_low_modes_damps_nyquist(self, grid):
        from splitma.grid_field import exponential_filter

        x1 = grid.mesh()[0]
        low = np.sin(TWO_PI * x1) * np.ones(grid.shape)
        out = exponential_filter(grid, low)
        assert np.max(np.abs(out - low)) < 1e-12
        nyq = np.cos(TWO_PI * 8 * x1) * np.ones(grid.shape)  # n1 = 16
        out = exponential_filter(grid, nyq)
        assert np.max(np.abs(out)) < np.exp(-36.0) * 2.0 + 1e-12

    def test_filter_idempotent_on_filtered_band(self, grid):
        from splitma.grid_field import exponential_filter

        rng = np.random.default_rng(2)
        u = rng.normal(size=grid.shape)
        once = exponential_filter(grid, u)
        twice = exponential_filter(grid, once)
        # second application only re-damps already-damped top modes
        assert np.max(np.abs(twice - once)) <= np.max(np.abs(once - u))

    def test_real_transform_matches_full_complex_formula(self):
        from splitma.grid_field import exponential_filter

        gr = make_grid((8, 16, 32, 8), (1, 2, 0.5, 1.5))
        u = np.random.default_rng(3).normal(size=gr.shape)
        sig = 1.0
        for ax, n in enumerate(gr.shape):
            k = np.abs(np.fft.fftfreq(n) * n) / (n // 2)
            shp = [1, 1, 1, 1]
            shp[ax] = n
            sig = sig * np.exp(-36.0 * k**16).reshape(shp)
        ref = np.fft.ifftn(np.fft.fftn(u) * sig).real
        out = exponential_filter(gr, u)
        assert out.shape == gr.shape and out.dtype == np.float64
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_filtered_run_stays_close_on_smooth_data(self, grid, bg):
        u0 = split_sine(grid, 0.03, 0.03)
        base = run(bg, u0, FlowParams(beta=0.5, t_end=0.02, cfl=0.9,
                                      snapshot_stride=10**9, steady_tol=1e-30))
        filt = run(bg, u0, FlowParams(beta=0.5, t_end=0.02, cfl=0.9,
                                      snapshot_stride=10**9, steady_tol=1e-30,
                                      spectral_filter=True))
        diff = np.max(np.abs(base.snapshots[-1].u.data
                             - filt.snapshots[-1].u.data))
        assert diff < 1e-7


class TestGauge:
    def test_zero_forcing(self, grid, bg):
        zero = RealField.zeros(grid)
        res = gauge_out_f(bg, zero, zero, 0.5)
        assert abs(res.b_plus) < 1e-14 and abs(res.b_minus) < 1e-14
        assert sup_norm(res.u_inf) < 1e-14

    def test_cosine_forcing_matches_poisson_solution(self, grid, bg):
        beta = 0.5
        x1 = grid.mesh()[0]
        fp = RealField.from_function(
            grid, lambda a, b, c, d: beta * np.log(1 + 0.2 * np.cos(TWO_PI * a))
        )
        fm = RealField.zeros(grid)
        fp, fm = normalize_compat(bg, fp, fm, beta)
        res = gauge_out_f(bg, fp, fm, beta)
        assert abs(res.b_plus) < 1e-10 and abs(res.b_minus) < 1e-10
        expect = -0.2 * np.cos(TWO_PI * x1) / np.pi**2
        assert np.max(np.abs(res.u_inf.data - expect)) < 1e-12
        assert np.max(np.abs(res.g_new - (1 + 0.2 * np.cos(TWO_PI * x1)))) < 1e-12

    def test_constant_forcing_absorbed(self, grid, bg):
        c = 0.3
        fp = RealField.create(grid, np.full(grid.shape, c))
        fm = RealField.zeros(grid)
        res = gauge_out_f(bg, fp, fm, 0.5)
        assert abs(res.b_plus + c) < 1e-12
        assert sup_norm(res.u_inf) < 1e-12

    def test_non_product_background_rejected(self, grid):
        from splitma.geometry import pluriclosed_background

        bgp = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 0.5)])
        zero = RealField.zeros(grid)
        with pytest.raises(ConfigurationError):
            gauge_out_f(bgp, zero, zero, 0.5)


class TestRichardson:
    def test_rk4_order_via_cfl_halving(self):
        g = make_grid((8, 8, 8, 8), (1, 1, 1, 1))
        b = flat_background(g)
        u0 = split_sine(g, 0.05, 0.05)
        t_end = 0.02

        def final(cfl):
            params = FlowParams(beta=0.5, t_end=t_end, cfl=cfl,
                                snapshot_stride=10**9, steady_tol=1e-30)
            return run(b, u0, params).snapshots[-1].u.data

        u1 = final(0.4)
        u2 = final(0.2)
        u3 = final(0.1)
        num = np.max(np.abs(u1 - u2))
        den = np.max(np.abs(u2 - u3))
        ratio = num / den
        assert 12.0 < ratio < 20.0, ratio
