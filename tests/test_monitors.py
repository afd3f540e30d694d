"""Tests for the a-priori bound monitors and their negative controls."""

import copy
import dataclasses

import numpy as np
import pytest

from splitma import ConfigurationError, make_grid
from splitma.flow import FlowParams, make_state, run
from splitma.geometry import constants, flat_background, pluriclosed_background
from splitma.grid_field import RealField
import splitma.monitors as monitors
from splitma.monitors import (
    DEFAULT_CHECKS,
    OPTIONAL_CHECKS,
    MonitorStream,
    c0_series,
    corrupt_trajectory,
    evaluate,
    legendre_w,
    mixed_norm,
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
    truncation error sits well below the heat subsolutions' tolerance."""
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
        # flat background, zero data: G = 0, c = 0, max u0 = 0, so each
        # grid delta gives delta^2 and the best grid delta is 0.45
        bound, delta = trace_lower_bound_value(0.5, 0.0, 0.0, 0.0, 0.0)
        assert abs(bound - 0.45**2) < 1e-12
        assert abs(delta - 0.45) < 1e-12

    def test_second_branch_inactive_when_g_small(self):
        # |min G| < 1 - beta: only the first branch matters, at every
        # delta of the grid 0.5 k / 10
        b_small, best = trace_lower_bound_value(0.5, -0.2, 0.3, 0.1, 1.0)
        deltas = 0.5 * np.arange(1, 10) / 10.0
        a_coef = (1 + (1 + deltas) * 1.0) / (0.5 - deltas)
        expect = (deltas * np.exp(-0.3)) ** 2 * np.exp(-a_coef * 0.1)
        assert abs(b_small - expect.max()) < 1e-14
        assert best == deltas[np.argmax(expect)]

    def test_c0_series_constant_state(self, grid, bg):
        from splitma.flow import FlowParams, run

        traj = run(bg, RealField.zeros(grid), FlowParams(beta=0.5, t_end=0.0))
        series, running = c0_series(traj.snapshots)
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


def det_w_reference(state, bg):
    """The det_w record of state from the whole-field W of legendre_w:
    sup|det W - (g + u_zzb)/(h - u_wwb)| / max(1, sup|ratio|)."""
    from splitma.grid_field import factor_laplacians

    g0, h0 = float(bg.g.data.flat[0]), float(bg.h.data.flat[0])
    u_zzb, u_wwb = factor_laplacians(state.u.grid, state.u.data)
    target = (g0 + u_zzb) / (h0 - u_wwb)
    scale = max(1.0, float(target.max()), -float(target.min()))
    return float(np.max(np.abs(legendre_w(state, bg).det() - target))) / scale


class TestLegendreW:
    def test_det_identity(self, grid, bg):
        state = make_state(nonsplit_data(grid), bg, 0.5, 0.0)
        assert det_w_reference(state, bg) < 1e-12

    def test_positive_definite_on_admissible(self, grid, bg):
        state = make_state(nonsplit_data(grid), bg, 0.5, 0.0)
        w = legendre_w(state, bg)
        assert float(w.w11.min()) > 0 and float(w.w22.min()) > 0
        assert float(w.det().min()) > 0

    def test_each_vector_meets_its_own_tolerance(self, grid, bg):
        """On a state with u = 0, lam = eta = 0.01 and the stored speed
        -eps cos(2 pi x1), H W(e1) = lambda_t = s_zzb = eps pi^2 cos(2 pi x1)
        peaks at 1e-5, above its own tolerance HEAT_TOL (1 + lam);
        W(e2) = 1/eta = 100 is constant and makes the later vectors'
        tolerances about 50x larger.  The check must fail on the first
        vector, at the state itself."""
        from splitma.flow import FlowState, Trajectory

        zero = RealField.zeros(grid)
        x1 = grid.mesh()[0] * np.ones(grid.shape)
        speed = RealField(grid, -1e-5 / np.pi**2 * np.cos(TWO_PI * x1))
        traj = Trajectory(grid=grid, beta=0.5,
                          params=FlowParams(beta=0.5, t_end=1.0))
        lam = RealField(grid, np.full(grid.shape, 0.01))
        eta = RealField(grid, np.full(grid.shape, 0.01))
        traj.snapshots.append(FlowState(zero, 0.0, lam, eta, speed))
        traj.dts.append(1e-4)
        res = evaluate(traj, bg, ["legendre_subsolution"])[
            "legendre_subsolution"]
        assert res.skipped is None and len(res.entries) == 1
        e = res.entries[0]
        assert not res.passed
        assert e.bound < 1.1 * monitors.HEAT_TOL  # the first vector's scale
        assert abs(e.observed - 1e-5) < 1e-12
        assert e.margin == e.bound - e.observed < 0.0

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
        res = evaluate(traj, bgc, ["legendre_subsolution"])[
            "legendre_subsolution"]
        assert res.skipped is not None


class TestChecksPassOnCleanRuns:
    def test_default_suite_split_run(self, split_traj, bg):
        results = evaluate(split_traj, bg)
        for name, res in results.items():
            assert res.passed, (name, res.worst_margin, res.skipped)

    def test_time_difference_checks_dense_run(self, dense16):
        traj, b16 = dense16
        res = evaluate(traj, b16, ["legendre_subsolution"])[
            "legendre_subsolution"]
        assert res.passed and res.skipped is None
        assert res.worst_margin >= 0.0
        cr = constants(b16, 0.5, c0=max(c0_series(traj.snapshots)[1]))
        res = evaluate(traj, b16, ["phi_subsolution"],
                       constants_report=cr)["phi_subsolution"]
        assert res.passed and res.skipped is None
        res = evaluate(traj, b16, ["det_w"])["det_w"]
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

    def test_fixed_report_without_upper_constants_skips_phi(self, split_traj,
                                                            bg):
        """Above the threshold, a supplied report without c14 skips the
        upper-bound checks, and the stream does no Phi work for them."""
        cr = dataclasses.replace(
            constants(bg, 0.5, c0=max(c0_series(split_traj.snapshots)[1])),
            c14=None)
        stream = MonitorStream(bg, ["phi_subsolution", "trace_growth"],
                               constants_report=cr).replay(split_traj)
        for res in stream.results().values():
            assert res.skipped == "upper-bound constants unavailable"
        assert all(r.heat is None for r in stream.records)

    def test_beta_one_skips_lower_bound(self, grid, bg):
        u0 = split_sine(grid)
        from splitma.flow import shift_min_zero

        params = FlowParams(beta=1.0, t_end=0.01, cfl=0.9, snapshot_stride=5)
        traj = run(bg, shift_min_zero(u0), params)
        results = evaluate(traj, bg)
        assert results["trace_lower_bound"].skipped is not None
        assert results["trace_growth"].passed  # beta = 1 > threshold


class TestStrideIndependence:
    def test_subsolution_entries_do_not_depend_on_the_stride(self, grid, bg):
        """A flat-background run kept at snapshot_stride 1 and at 10 gives
        each subsolution check one entry per kept state, and identical
        entries on the states both runs keep: d/dt is taken at the state,
        not across snapshots."""
        from splitma.flow import shift_min_zero

        u0 = shift_min_zero(nonsplit_data(grid))
        names = ["legendre_subsolution", "phi_subsolution"]
        by_stride = {}
        for stride in (1, 10):
            params = FlowParams(beta=0.5, t_end=0.01, cfl=0.9, dt_max=5e-4,
                                snapshot_stride=stride, steady_tol=1e-30)
            traj = run(bg, u0, params)
            res = evaluate(traj, bg, names)
            for name in names:
                assert res[name].skipped is None
                assert len(res[name].entries) == len(traj.snapshots)
            by_stride[stride] = {name: {e.t: (e.bound, e.observed, e.margin,
                                              e.passed)
                                        for e in res[name].entries}
                                 for name in names}
        for name in names:
            fine, coarse = by_stride[1][name], by_stride[10][name]
            assert len(coarse) == 3 and set(coarse) <= set(fine)
            for t, entry in coarse.items():
                assert fine[t] == entry, (name, t)


class TestNegativeControls:
    """Driven by the registry: every default-on check must fail on its
    corruption of the split run, every optional (heat subsolution or det
    W) check on its corruption of the dense run."""

    @pytest.mark.parametrize("check", DEFAULT_CHECKS)
    def test_default_checks_fail_on_corruption(self, split_traj, bg, check):
        bad = corrupt_trajectory(split_traj, check)
        res = evaluate(bad, bg, enabled=[check])[check]
        assert res.skipped is None
        assert not res.passed, check

    @pytest.mark.parametrize("check", OPTIONAL_CHECKS)
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

    def test_heat_check_fails_on_a_nan_pair(self, bg):
        """A state whose heat pairs hold a NaN fails, though another pair
        of the state has the least finite margin."""
        from types import SimpleNamespace

        stream = MonitorStream(bg, [])
        stream.records = [SimpleNamespace(t=0.0, heat={
            "phi_subsolution": [(1.0, -1.0), (1.0, np.nan)]})]
        res = monitors._heat_check(stream, "phi_subsolution")
        assert not res.passed and res.first_failure_t == 0.0

    def test_unknown_check_rejected(self, split_traj, bg):
        with pytest.raises(ConfigurationError):
            corrupt_trajectory(split_traj, "no_such_check")
        with pytest.raises(ConfigurationError):
            evaluate(split_traj, bg, enabled=["no_such_check"])


class TestRegistry:
    def test_evaluate_calls_the_rebound_check(self, split_traj, bg,
                                              monkeypatch):
        """evaluate looks check_<name> up at call time, so a function
        rebound on the module (as a tracer does) is the one called."""
        calls = []
        original = monitors.check_det_w

        def spy(stream):
            calls.append(stream.traj)
            return original(stream)

        monkeypatch.setattr(monitors, "check_det_w", spy)
        res = evaluate(split_traj, bg, enabled=["det_w"])
        assert calls == [split_traj]
        assert res["det_w"].passed

    def test_default_and_optional_partition_the_registry(self):
        assert set(DEFAULT_CHECKS).isdisjoint(OPTIONAL_CHECKS)
        assert list(monitors.CHECKS) == [*DEFAULT_CHECKS, *OPTIONAL_CHECKS]


class TestDeterminism:
    def test_reevaluation_is_bit_identical(self, split_traj, bg):
        r1 = evaluate(split_traj, bg)
        r2 = evaluate(split_traj, bg)
        for name in r1:
            e1, e2 = r1[name].entries, r2[name].entries
            assert len(e1) == len(e2)
            for a, b in zip(e1, e2):
                assert a.margin == b.margin and a.observed == b.observed


class TestSnapshotPass:
    def test_standalone_checks_match_evaluate(self, dense16):
        """A check evaluated on its own with the constants fixed at the
        final c0 gives, bit for bit, the entries of evaluate's shared
        replay with running constants and those of a stream fed live by
        run, whose trajectory keeps only its last state."""
        traj, b16 = dense16
        everything = list(monitors.CHECKS)
        plain = evaluate(traj, b16, enabled=everything)
        stream = MonitorStream(b16, everything)
        last = run(b16, traj.snapshots[0].u, traj.params, keep=stream.keep)
        assert len(last.snapshots) == 1
        assert len(stream.records) == len(traj.snapshots)
        live = stream.results()
        cr = constants(b16, traj.beta, c0=c0_series(traj.snapshots)[1][-1],
                       require_upper=False)
        alone = {name: evaluate(traj, b16, [name], constants_report=cr)[name]
                 for name in ("mixed_growth", "trace_growth",
                              "legendre_subsolution", "det_w",
                              "phi_subsolution")}
        for name, res in alone.items():
            assert res.skipped is None and res.entries, name
            assert res.entries == plain[name].entries == live[name].entries
        for name in everything:
            assert plain[name].entries == live[name].entries

    def test_entry_i_belongs_to_record_i(self, dense16):
        """Every check that runs gives one entry per record, in order: the
        timeseries writer reads a check's i-th entry into row i."""
        traj, b16 = dense16
        stream = MonitorStream(b16, list(monitors.CHECKS)).replay(traj)
        ran = [res for res in stream.results().values() if res.skipped is None]
        assert len(ran) >= 10
        for res in ran:
            assert len(res.entries) == len(stream.records), res.name
            assert [e.t for e in res.entries] == [r.t for r in stream.records]

    def test_evaluate_rejects_inputs_of_another_trajectory(self, dense16,
                                                           split_traj):
        """A stream that has consumed one trajectory cannot replay or
        add a state of another."""
        traj, b16 = dense16
        used = MonitorStream(b16, ["det_w"]).replay(traj)
        with pytest.raises(ConfigurationError):
            used.replay(split_traj)
        with pytest.raises(ConfigurationError):
            used.add(split_traj, split_traj.snapshots[0], 0.0)

    def test_memory_does_not_grow_with_snapshots(self, dense16, traced_peak):
        """No field outlives a state but the stream's fixed scratch:
        doubling the snapshots may not raise the peak of evaluate by more
        than two field sizes."""
        traj, b16 = dense16
        field_bytes = traj.snapshots[0].u.data.nbytes
        n = len(traj.snapshots)
        assert n >= 20
        half = copy.copy(traj)
        half.snapshots, half.dts = traj.snapshots[:n // 2], traj.dts[:n // 2]
        peaks = []
        for tr in (half, traj):
            evaluate(tr, b16, enabled=list(monitors.CHECKS))  # warm caches
            peaks.append(traced_peak(
                lambda: evaluate(tr, b16, enabled=list(monitors.CHECKS))))
        assert peaks[0] > 4 * field_bytes  # the fields are traced
        assert peaks[1] - peaks[0] <= 2 * field_bytes, peaks


class TestRunningConstants:
    def test_phi_takes_the_running_constants_of_each_state(self, grid):
        """Off Kahler products a_phi and c14 depend on c0.  Without a
        constants report each state's Phi and source use the constants
        at the running c0 up to that state, so an entry equals the last
        entry of the trajectory cut at that state with those constants
        fixed, and differs from the final-c0 entry."""
        from splitma.flow import FlowState, Trajectory

        bgp = pluriclosed_background(grid, 1.0, 1.0, [(1, 1, 0.3)])
        x1 = grid.mesh()[0] * np.ones(grid.shape)
        zero = RealField.zeros(grid)
        traj = Trajectory(grid=grid, beta=0.5,
                          params=FlowParams(beta=0.5, t_end=1.0))
        for k in range(6):  # lambda falls, so c0 rises at every snapshot
            lam = (1.0 - 0.1 * k) * (1.0 + 0.05 * np.sin(TWO_PI * x1))
            traj.snapshots.append(FlowState(
                zero, 1e-3 * k, RealField(grid, lam),
                RealField(grid, np.ones(grid.shape)), zero))
            traj.dts.append(1e-3)
        running = c0_series(traj.snapshots)[1]
        assert all(b > a for a, b in zip(running, running[1:]))
        res = evaluate(traj, bgp, enabled=["phi_subsolution"])
        entries = res["phi_subsolution"].entries
        assert len(entries) == len(traj.snapshots) == 6
        for j, e in enumerate(entries):
            cut = copy.copy(traj)
            cut.snapshots, cut.dts = traj.snapshots[:j + 1], traj.dts[:j + 1]
            cr = constants(bgp, 0.5, c0=running[j])
            assert evaluate(cut, bgp, ["phi_subsolution"], constants_report=cr)[
                "phi_subsolution"].entries[-1] == e
        final = evaluate(traj, bgp, ["phi_subsolution"],
                         constants_report=constants(bgp, 0.5, c0=running[-1]))[
            "phi_subsolution"]
        assert final.entries[-1] == entries[-1]
        assert final.entries[0].margin != entries[0].margin


class TestMixedSups:
    """The sup of the mixed norm and sup|u_zw| of a kept state, reduced
    inside mixed_derivatives' pass without a u_zw field."""

    @pytest.mark.parametrize("thread_bytes", [None, 1 << 16])
    def test_fused_sup_is_the_whole_field_max(self, thread_bytes,
                                              monkeypatch):
        """Bit for bit np.max of the whole fields at 16^4 on random data,
        on one slab thread and on several (the rows are then split between
        threads)."""
        from splitma import grid_field
        from splitma.grid_field import mixed_derivatives
        from splitma.identities import random_test_field

        if thread_bytes is not None:
            monkeypatch.setattr(grid_field, "_THREAD_BYTES", thread_bytes)
        g16 = make_grid((16,) * 4, (1,) * 4)
        bgp = pluriclosed_background(g16, 1.0, 1.0, [(1, 1, 0.3)])
        state = make_state(random_test_field(g16, 3, 0.01, 1), bgp, 0.5, 0.0)
        u_zw, = mixed_derivatives(g16, state.u.data, "z w")
        whole = monitors._mixed_field(np.abs(u_zw), bgp.g.data,
                                      state.lam.data, bgp.h.data,
                                      state.eta.data, 0.5)
        expect = (float(np.max(whole)), float(np.max(np.abs(u_zw))))
        assert expect[0] > 0.0
        assert expect[0] == float(np.max(mixed_norm(state, bgp, 0.5).data))
        assert monitors.mixed_sups(state, bgp, 0.5) == expect
        # the fields it keeps are those of a pass without reduce, bit for bit
        keep = ("z wb", "z w")
        *sups, u_zwb, u_zw2 = monitors.mixed_sups(state, bgp, 0.5, keep)
        assert tuple(sups) == expect
        assert np.array_equal(u_zw2, u_zw)
        assert np.array_equal(u_zwb, *mixed_derivatives(g16, state.u.data,
                                                        "z wb"))

    def test_fused_sup_of_split_data_is_zero(self):
        """Exactly 0 on split data a(z) + b(w) whose sum rounds nothing
        (dyadic values), as on data of one factor."""
        g16 = make_grid((16,) * 4, (1,) * 4)
        b16 = flat_background(g16)

        def dyadic(x):
            return np.round(x * 2**20) / 2**20
        for fn in (lambda a, b, c, d: dyadic(0.05 * np.sin(TWO_PI * a))
                   + dyadic(0.05 * np.sin(TWO_PI * c)),
                   lambda a, b, c, d: 0.05 * np.sin(TWO_PI * a) + 0.0 * c):
            state = make_state(RealField.from_function(g16, fn), b16, 0.5, 0.0)
            assert monitors.mixed_sups(state, b16, 0.5) == (0.0, 0.0)


class TestOnePass:
    """A stream's record of a state does not depend on its enabled
    checks: one mixed_derivatives pass of the potential gives the mixed
    sups, and det W comes from the W entries of the subsolution blocks."""

    SETS = {"default": None, "all": list(monitors.CHECKS),
            "det": ["det_w"], "phi": ["phi_subsolution"]}

    @pytest.mark.parametrize("thread_bytes", [None, 1 << 16])
    def test_record_does_not_depend_on_the_enabled_set(self, dense16,
                                                       thread_bytes,
                                                       monkeypatch):
        """On one dense 16^4 state, on one slab thread and on several:
        sup and zw are bit-identical for every set, det_w equals the
        whole-field reference of legendre_w bit for bit, and each set
        takes exactly one order-1 pass of the potential; the phi-only
        stream never asks for u_zwb, and the det-only one takes no
        derivative of the speed."""
        from splitma import grid_field

        if thread_bytes is not None:
            monkeypatch.setattr(grid_field, "_THREAD_BYTES", thread_bytes)
        traj, b16 = dense16
        s, dt = traj.snapshots[-1], traj.dts[-1]
        calls = []

        def spy(name, fn):
            def wrapped(grid, data, *args, **kw):
                calls.append((name, "u" if data is s.u.data else "spd",
                              args))
                return fn(grid, data, *args, **kw)
            monkeypatch.setattr(monitors, name, wrapped)
        spy("mixed_derivatives", monitors.mixed_derivatives)
        spy("factor_laplacians", monitors.factor_laplacians)
        recs, passes = {}, {}
        for label, enabled in self.SETS.items():
            calls.clear()
            stream = MonitorStream(b16, enabled)
            stream.add(traj, s, dt)
            recs[label], passes[label] = stream.records[0], list(calls)
        reference = det_w_reference(s, b16)
        assert 0.0 < reference < 1e-12
        for label, rec in recs.items():
            assert (rec.sup, rec.zw) == (recs["all"].sup, recs["all"].zw)
            assert [c for c in passes[label] if c[:2] == (
                "mixed_derivatives", "u")] == [passes[label][0]], label
        assert recs["all"].det_w == recs["det"].det_w == reference
        assert recs["default"].det_w is recs["phi"].det_w is None
        assert recs["phi"].heat["phi_subsolution"] == recs["all"].heat[
            "phi_subsolution"]
        assert not any("z wb" in c[2] for c in passes["phi"])
        assert [c[:2] for c in passes["det"]] == [
            ("mixed_derivatives", "u"), ("factor_laplacians", "u")]


class TestStreamConstants:
    """A stream takes the background's maxima once and builds its
    constants from those scalars alone."""

    @pytest.mark.parametrize("kind", ["pluriclosed_cos", "kahler_product"])
    def test_stream_constants_equal_constants(self, grid, kind):
        """Attribute by attribute equal to geometry.constants at three
        values of c0."""
        import splitma.geometry as geometry
        from splitma.flow import Trajectory

        if kind == "pluriclosed_cos":
            bg = pluriclosed_background(grid, 1.0, 1.5, [(1, 1, 0.3)])
        else:  # g varies along x1, h along x3
            x = grid.axis_coord(0)[:, None] * np.ones((1, grid.shape[1]))
            bg = geometry.kahler_product_background(
                grid, 1.0 + 0.2 * np.cos(TWO_PI * x),
                1.5 + 0.1 * np.sin(TWO_PI * x))
        beta = 0.7
        traj = Trajectory(grid=grid, beta=beta,
                          params=FlowParams(beta=beta, t_end=0.0))
        stream = MonitorStream(bg, safety=1.5)
        stream.add(traj, make_state(RealField.zeros(grid), bg, beta, 0.0), 0.0)
        curv = geometry.curvature(bg)
        assert (stream.maxima.mixed_curvature_nonneg
                == curv.mixed_curvature_nonneg)
        for c0 in (1.25, 2.0, 3.7):
            got = stream.constants_at(c0)
            ref = constants(bg, beta, c0=c0, safety=1.5)
            for f in dataclasses.fields(ref):
                assert getattr(got, f.name) == getattr(ref, f.name), f.name
            assert got.c0 == c0

    def test_stream_maxima_equal_whole_field_maxima(self):
        """The maxima a stream takes one factor at a time, on blocks of
        points (eight at 16^4), equal the whole-field maxima of the
        curvature report's fields and the torsion report, bit for bit."""
        import splitma.geometry as geometry
        from splitma.flow import Trajectory

        grid = make_grid((16,) * 4, (1.0,) * 4)
        bg = pluriclosed_background(grid, 1.0, 1.5, [(1, 1, 0.3)])
        beta = 0.7
        traj = Trajectory(grid=grid, beta=beta,
                          params=FlowParams(beta=beta, t_end=0.0))
        stream = MonitorStream(bg)
        stream.add(traj, make_state(RealField.zeros(grid), bg, beta, 0.0), 0.0)
        cur, tors = geometry.curvature(bg), geometry.torsion(bg)
        g, h = bg.g.data, bg.h.data
        lg_zzb, lg_wwb = cur.log_g_zzb.data, cur.log_g_wwb.data
        lh_zzb, lh_wwb = cur.log_h_zzb.data, cur.log_h_wwb.data
        m = stream.maxima
        assert not m.kahler
        assert m.mixed_curvature_nonneg == cur.mixed_curvature_nonneg
        assert m.c == max(float(np.max(np.abs(lh_zzb / g))),
                          float(np.max(np.abs(lg_wwb / h))))
        assert m.c4 == max(
            float(np.max(np.abs((lh_zzb - beta * lg_zzb) / g))),
            float(np.max(np.abs((beta * lg_wwb - lh_wwb) / h))))
        assert m.inv_coeff == max(float(np.max(1.0 / g)),
                                  float(np.max(1.0 / h)))
        assert (m.t_max_sq, m.t_grad) == (tors.max_norm_sq, tors.max_grad)
        assert m.c > 0.0 and m.c4 > 0.0 and m.t_max_sq > 0.0
