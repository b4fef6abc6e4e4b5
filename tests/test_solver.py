import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab.errors import (
    FluxOverflow,
    InvalidInitialData,
    NumericalBlowupGuard,
    StepUnderflow,
)
from blowuplab.model import (
    FieldState,
    FluxFamily,
    ProblemParams,
    QuadraticRadial,
    Tabulated,
    boundary_flux,
    make_grid,
    radial_laplacian,
)
from blowuplab.solver import (
    COLUMNS,
    STABLE_CFL,
    UNDERFLOW_FACTOR,
    SolverConfig,
    StopReason,
    _sample_maxima,
    run,
    step,
)


def exp_power_params(n=2, N=None, **kw):
    defaults = dict(
        p=2.0, q=2.0, R=1.0, n=n,
        flux=FluxFamily.EXP_POWER,
        initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
    )
    defaults.update(kw)
    return ProblemParams(**defaults)


class TestRadialLaplacian:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_on_quadratics(self, n):
        # centered stencils and the origin closure reproduce the constant
        # Laplacian 2nb of a + b r^2 to roundoff at every node
        grid = make_grid(1.5, 61)
        a, b = 0.7, 0.3
        f = a + b * grid.r**2
        ghost = a + b * (grid.R + grid.dr) ** 2
        lap = radial_laplacian(f, grid, n, ghost)
        assert np.allclose(lap, 2.0 * n * b, atol=1e-10)

    @settings(deadline=None)
    @given(
        N=st.integers(16, 400),
        R=st.floats(0.1, 10.0),
        n=st.sampled_from([1, 2, 3]),
        a=st.floats(0.0, 10.0),
        b=st.floats(-5.0, 5.0),
    )
    def test_exact_on_random_quadratics(self, N, R, n, a, b):
        # the same exactness for any grid and ball: the only error is the
        # roundoff of second differences of values of size a + |b| R^2
        grid = make_grid(R, N)
        f = a + b * grid.r**2
        ghost = a + b * (grid.R + grid.dr) ** 2
        lap = radial_laplacian(f, grid, n, ghost)
        # (the floor covers subnormal a and b, where eps is not relative)
        roundoff = 64 * np.finfo(float).eps * (a + abs(b) * R * R) / grid.dr**2
        roundoff += 1e-300
        assert np.abs(lap - 2.0 * n * b).max() <= roundoff

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_the_reference_formula_bit_for_bit(self, n):
        # a (2, N) field with a ghost per row gives, row by row, what the
        # per-field formula gives, and so does each row on its own
        grid = make_grid(1.0, 41)
        F = np.random.default_rng(n).random((2, grid.N)) * 10.0
        ghosts = (1.5, 7.25)
        both = radial_laplacian(F, grid, n, ghosts)
        for row, ghost, lap in zip(F, ghosts, both):
            want = _reference_laplacian(row, grid, n, ghost)
            np.testing.assert_array_equal(lap, want, strict=True)
            np.testing.assert_array_equal(
                radial_laplacian(row, grid, n, ghost), want, strict=True
            )

    def test_one_ghost_per_row(self):
        grid = make_grid(1.0, 41)
        with pytest.raises(ValueError, match="one ghost per row"):
            radial_laplacian(np.ones((2, grid.N)), grid, 2, 1.0)

    def test_second_order_on_quartic(self):
        # Delta r^4 = (4n + 8) r^2; the truncation error scales as dr^2
        n = 2
        errs = []
        for N in (41, 81):
            grid = make_grid(1.0, N)
            f = grid.r**4
            ghost = (grid.R + grid.dr) ** 4
            lap = radial_laplacian(f, grid, n, ghost)
            exact = (4.0 * n + 8.0) * grid.r**2
            errs.append(np.abs(lap - exact)[1:-1].max())
        assert errs[0] / errs[1] > 3.5


def constant_state(a, b, flux=FluxFamily.POWER, p=2.0, q=2.0):
    """Grid, params and the state u = a, v = b at t = 0.

    The Laplacian of a constant vanishes everywhere but at r = R, where
    the ghost node makes it flux * (2 / dr + (n - 1) / R), with u's flux
    induced by b and v's by a.
    """
    grid = make_grid(1.0, 101)
    params = exp_power_params(p=p, q=q, flux=flux)
    state = FieldState(t=0.0, u=np.full(grid.N, a), v=np.full(grid.N, b))
    return grid, params, state


def boundary_rate(grid, params, flux):
    return flux * (2.0 / grid.dr + (params.n - 1) / grid.R)


class TestStepNeumannClosure:
    def test_ghost_values(self):
        # the one nonzero rate of a constant state is at r = R, where the
        # ghost (u[-2] + 2 dr flux) closes the Neumann condition; p != q
        # and a != b tell each field's flux from the other's
        for family in FluxFamily:
            grid, params, state = constant_state(1.0, 1.25, family, 2.0, 3.0)
            new = step(state, params, grid, SolverConfig())
            dt = new.t
            fu = boundary_flux(family, 1.25, params.p)
            fv = boundary_flux(family, 1.0, params.q)
            assert np.array_equal(new.u[:-1], state.u[:-1])
            assert np.array_equal(new.v[:-1], state.v[:-1])
            assert (new.u[-1] - 1.0) / dt == pytest.approx(
                boundary_rate(grid, params, fu), rel=1e-12
            )
            assert (new.v[-1] - 1.25) / dt == pytest.approx(
                boundary_rate(grid, params, fv), rel=1e-12
            )


class TestStepSize:
    # u = v = c under the power flux c^2: max |rates| is
    # c^2 (2 / dr + (n - 1) / R) and max(u, v) is c

    def test_diffusion_limited(self):
        grid, params, state = constant_state(1.0, 1.0)
        config = SolverConfig(cfl=0.4, growth_cap=0.1)
        # the growth cap 0.1 * 2 / 201 is far above 0.4 dr^2 = 4e-5
        assert step(state, params, grid, config).t == 0.4 * grid.dr**2

    def test_growth_limited(self):
        c = 100.0
        grid, params, state = constant_state(c, c)
        config = SolverConfig(cfl=0.4, growth_cap=0.1)
        # cap * (1 + peak) / max_rate = 0.1 * 101 / 2.01e6, below 4e-5
        want = 0.1 * (1.0 + c) / boundary_rate(grid, params, c**2)
        assert want < 0.4 * grid.dr**2
        assert step(state, params, grid, config).t == pytest.approx(
            want, rel=1e-12
        )

    def test_underflow(self):
        # dt = 0.1 * (1 + 1e150) / 2.01e302 = 5e-154 < 1e-16 dr^2
        grid, params, state = constant_state(1e150, 1e150)
        config = SolverConfig(cfl=0.4, growth_cap=0.1)
        with pytest.raises(StepUnderflow, match="below 1e-16 \\* dr\\^2"):
            step(state, params, grid, config)


class TestStep:
    def test_zero_flux_leaves_constant_field_alone(self):
        # with v identically zero the power flux into u vanishes, so one
        # step leaves constant u untouched; v grows only at the boundary
        # node, driven by the flux u^q = 1
        grid = make_grid(1.0, 51)
        params = ProblemParams(
            p=2.0, q=2.0, R=1.0, n=2,
            flux=FluxFamily.POWER,
            initial=QuadraticRadial(1.0, 0.0, 1.0, 0.0),
        )
        state = FieldState(t=0.0, u=np.ones(51), v=np.zeros(51))
        new = step(state, params, grid, SolverConfig(N=51))
        assert np.array_equal(new.u, np.ones(51))
        assert np.array_equal(new.v[:-1], np.zeros(50))
        dt = new.t
        expected = dt * (2.0 / grid.dr + (params.n - 1) / grid.R)
        assert new.v[-1] == pytest.approx(expected, rel=1e-12)

    def test_t_end_clips_the_step(self):
        grid = make_grid(1.0, 51)
        params = exp_power_params(N=51)
        config = SolverConfig(N=51, t_end=1e-7)
        u0, v0 = params.initial.evaluate(grid)
        state = FieldState(t=0.0, u=u0, v=v0)
        new = step(state, params, grid, config)
        assert new.t == pytest.approx(1e-7, abs=1e-20)

    def test_step_that_cannot_advance_t_underflows(self):
        # dt = cfl dr^2 = 1.6e-4 is far above UNDERFLOW_FACTOR dr^2 but
        # below half an ulp of t = 1e15 (0.0625), so t + dt == t
        grid = make_grid(1.0, 51)
        params = exp_power_params()
        u0, v0 = params.initial.evaluate(grid)
        state = FieldState(t=1e15, u=u0, v=v0)
        assert 0.4 * grid.dr**2 < np.spacing(state.t) / 2
        with pytest.raises(StepUnderflow, match="t \\+ dt == t"):
            step(state, params, grid, SolverConfig(N=51))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_interior_value_trips_the_guard(self, bad):
        grid = make_grid(1.0, 41)
        params = exp_power_params()
        u0, v0 = params.initial.evaluate(grid)
        u0[10] = bad
        state = FieldState(t=0.0, u=u0, v=v0)
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericalBlowupGuard, match="non-finite"
        ):
            step(state, params, grid, SolverConfig(N=41))

    @pytest.mark.parametrize("row, node", [
        ("u", 0), ("u", -1), ("v", 0), ("v", 10), ("v", -1),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_anywhere_is_caught(self, bad, row, node):
        # the reductions must see a bad value at either end of either row;
        # at r = R only NaN reaches them, since the flux refuses -inf as
        # negative and inf as past the overflow guard, in that order
        grid = make_grid(1.0, 41)
        params = exp_power_params()
        u0, v0 = params.initial.evaluate(grid)
        (u0 if row == "u" else v0)[node] = bad
        state = FieldState(t=0.0, u=u0, v=v0)
        error, match = NumericalBlowupGuard, "non-finite"
        if node == -1 and bad == -np.inf:
            error, match = ValueError, "must be nonnegative, got -inf"
        elif node == -1 and bad == np.inf:
            error, match = FluxOverflow, "exponent argument inf >= 700"
        with np.errstate(invalid="ignore"), pytest.raises(error, match=match):
            step(state, params, grid, SolverConfig(N=41))

    @settings(deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, -1.5]),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=2 * 16, max_size=2 * 40,
        ).filter(lambda values: len(values) % 2 == 0),
        st.floats(0.0, 1.0),
    )
    def test_sample_maxima_match_the_axis_reductions(self, values, a):
        # a sample records what F.max(axis=1), F.argmax(axis=1) and
        # F[:, :k].max(axis=1) give, bit for bit, ties of 0.0 and -0.0
        # included
        F = np.array(values).reshape(2, -1)
        k = max(1, int(a * F.shape[1]))
        got = _sample_maxima(F, (*F, *F[:, :k]), k)
        want = [*F.max(axis=1).tolist(), *F.argmax(axis=1).tolist(),
                *F[:, :k].max(axis=1).tolist()]
        assert [type(x) for x in got] == [type(x) for x in want]
        assert [repr(x) for x in got] == [repr(x) for x in want]
        # one row, u is v: the reductions of [u; u]
        u = F[:1]
        got = _sample_maxima(u, (u[0], u[0], u[0, :k], u[0, :k]), k)
        both = F[[0, 0]]
        want = [*both.max(axis=1).tolist(), *both.argmax(axis=1).tolist(),
                *both[:, :k].max(axis=1).tolist()]
        assert [repr(x) for x in got] == [repr(x) for x in want]

    def test_iterated_steps_reproduce_the_run(self):
        # one update rule: step() from the initial data walks through the
        # very states run() records, bit for bit
        params = exp_power_params(flux=FluxFamily.POWER)
        config = SolverConfig(N=41, record_every=1)
        traj = run(params, config)
        grid = make_grid(params.R, config.N)
        u0, v0 = params.initial.evaluate(grid)
        state = FieldState(t=0.0, u=u0, v=v0)
        for i in range(1, traj.steps + 1):
            new = step(state, params, grid, config)
            assert new.t == traj.t[i]
            assert new.t - state.t == traj.dt[i]
            np.testing.assert_array_equal(new.u, traj.states[i].u, strict=True)
            np.testing.assert_array_equal(new.v, traj.states[i].v, strict=True)
            state = new
        assert traj.steps == len(traj) - 1 > 100


def stop_arguments(params, traj):
    """The flux exponent arguments of the stop state, the last snapshot."""
    last = traj.states[-1]
    return (
        params.flux.arg(float(last.u[-1]), params.q),
        params.flux.arg(float(last.v[-1]), params.p),
    )


@pytest.fixture(scope="module")
def blowup_run():
    params = exp_power_params()
    config = SolverConfig(
        N=101, cfl=0.4, growth_cap=0.1, u_stop=9.0,
        record_every=1, state_every=1,
    )
    return params, config, run(params, config)


class TestRun:

    def test_stops_at_threshold(self, blowup_run):
        params, config, traj = blowup_run
        assert traj.stop.reason is StopReason.BLOWUP_THRESHOLD
        assert max(stop_arguments(params, traj)) > config.u_stop

    def test_both_arguments_large_at_stop(self, blowup_run):
        # simultaneity proxy: neither flux argument lags far behind
        params, config, traj = blowup_run
        assert min(stop_arguments(params, traj)) > config.u_stop / 4.0

    @pytest.mark.parametrize("stop", [
        (StopReason.BLOWUP_THRESHOLD, dict(N=101, u_stop=9.0)),
        (StopReason.TIME_LIMIT, dict(N=101, t_end=1e-4)),
        (StopReason.STEP_UNDERFLOW, dict(N=41, u_stop=699.0)),
    ], ids=lambda stop: stop[0].value)
    @pytest.mark.parametrize("state_every", [0, 1, 3])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_sample_bookkeeping(self, record_every, state_every, stop):
        reason, solver_keys = stop
        config = SolverConfig(
            record_every=record_every, state_every=state_every, **solver_keys
        )
        traj = run(exp_power_params(), config)
        assert traj.stop.reason is reason
        # every record_every-th step plus the stop state, none twice
        assert len(traj) == traj.steps // record_every + 1 + (
            traj.steps % record_every != 0
        )
        assert traj.t[0] == 0.0
        assert traj.dt[0] == 0.0
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[-1] == traj.stop.t_stop
        if not state_every:
            assert traj.states == ()
            return
        # the stop state is the last snapshot
        last = traj.states[-1]
        assert last.t == traj.stop.t_stop
        assert traj.M[-1] == last.u.max()
        assert traj.Nmax[-1] == last.v.max()
        # every state_every-th sample plus the stop state, found by time
        times = [s.t for s in traj.states]
        assert times == traj.t[:-1:state_every].tolist() + [traj.t[-1]]

    @pytest.mark.parametrize("flux, exponent", [
        (FluxFamily.EXP_POWER, 2.0), (FluxFamily.EXP_LINEAR, 1.0),
    ])
    def test_five_key_run_never_records_a_stalled_step(self, flux, exponent):
        # the default u_stop = 600 is out of reach here: the run ends on
        # the first step whose t + dt rounds back to t, not after it
        params = exp_power_params(p=exponent, q=exponent, flux=flux)
        traj = run(params, SolverConfig(N=101))
        assert traj.stop.reason is StopReason.STEP_UNDERFLOW
        assert np.all(traj.dt[1:] > 0)
        assert np.all(np.diff(traj.t) > 0)

    def test_moduli_nondecreasing(self, blowup_run):
        _, _, traj = blowup_run
        assert np.all(np.diff(traj.M) >= 0)
        assert np.all(np.diff(traj.Nmax) >= 0)

    def test_argmax_at_boundary(self, blowup_run):
        _, config, traj = blowup_run
        assert np.all(traj.argmax_u == config.N - 1)
        assert np.all(traj.argmax_v == config.N - 1)

    def test_profiles_stay_positive_and_monotone(self, blowup_run):
        _, _, traj = blowup_run
        for s in traj.states:
            m = 1.0 + float(s.u.max())
            assert s.u.min() > 0
            assert s.v.min() > 0
            assert np.diff(s.u).min() >= -1e-8 * m
            assert np.diff(s.v).min() >= -1e-8 * m

    def test_interior_below_boundary(self, blowup_run):
        _, _, traj = blowup_run
        assert np.all(traj.sup_u_interior <= traj.M)
        assert np.all(traj.sup_v_interior <= traj.Nmax)

    def test_deterministic(self, blowup_run):
        params, config, traj = blowup_run
        again = run(params, config)
        assert np.array_equal(traj.t, again.t)
        assert np.array_equal(traj.M, again.M)
        assert traj.stop.t_stop == again.stop.t_stop

    def test_time_limit_stop(self):
        params = exp_power_params()
        config = SolverConfig(N=101, t_end=1e-4, record_every=10)
        traj = run(params, config)
        assert traj.stop.reason is StopReason.TIME_LIMIT
        assert traj.stop.t_stop == pytest.approx(1e-4, abs=1e-18)

    def test_step_underflow_stop(self):
        # without a reachable stop threshold the adaptive step shrinks
        # below float resolution once the boundary runaway saturates
        params = exp_power_params()
        config = SolverConfig(N=41, u_stop=699.0, record_every=50)
        traj = run(params, config)
        assert traj.stop.reason is StopReason.STEP_UNDERFLOW
        assert max(stop_arguments(params, traj)) > 30.0
        assert max(stop_arguments(params, traj)) < 699.0

    def test_second_order_convergence(self):
        # smooth regime comparison on shared nodes; dt ~ dr^2 keeps the
        # Euler error at the same order as the spatial one
        params = exp_power_params()
        t_end = 2e-3
        sols = {}
        for N in (51, 101, 201):
            config = SolverConfig(N=N, t_end=t_end, record_every=10**9)
            traj = run(params, config)
            sols[N] = traj.states[-1].u
        stride_51 = (201 - 1) // (51 - 1)
        stride_101 = (201 - 1) // (101 - 1)
        err_51 = np.abs(sols[51] - sols[201][::stride_51]).max()
        err_101 = np.abs(sols[101] - sols[201][::stride_101]).max()
        assert err_51 / err_101 > 3.3

    def test_unstable_cfl_refused(self):
        params = exp_power_params(n=3)
        config = SolverConfig(N=101, cfl=0.4, t_end=5e-5, record_every=10)
        assert STABLE_CFL[3] < 0.4
        with pytest.raises(ValueError, match="stability limit 0.333333 for n = 3"):
            run(params, config)
        # the limit itself is allowed
        run(params, dataclasses.replace(config, cfl=STABLE_CFL[3]))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_t_end_refused(self, t_end):
        # t >= nan never holds and min(dt, nan - t) keeps dt, so a NaN
        # limit would be ignored
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            SolverConfig(t_end=t_end)

    def test_nan_interior_radius_refused(self):
        # nan >= R is false, so check_fits would let it through and every
        # node would count as interior
        with pytest.raises(ValueError, match="must be positive, got nan"):
            SolverConfig(interior_radius=math.nan)

    def test_interior_radius_must_be_inside(self):
        params = exp_power_params(R=0.4)
        config = SolverConfig(N=101, interior_radius=0.5)
        with pytest.raises(ValueError, match="interior_radius"):
            run(params, config)

    def test_invalid_initial_data_rejected(self):
        params = exp_power_params(initial=QuadraticRadial(1.0, -0.5, 0.5, 0.5))
        with pytest.raises(InvalidInitialData):
            run(params, SolverConfig(N=101))

    def test_flux_overflow_comes_from_the_initial_data(self):
        # u0(R) = v0(R) = 26.5 puts v^p = 702.25 past the guard before
        # any step is taken
        params = exp_power_params(initial=QuadraticRadial(26.0, 0.5, 26.0, 0.5))
        with pytest.raises(FluxOverflow, match="exponent argument 702 >= 700"):
            run(params, SolverConfig(N=101))

    def test_tabulated_initial_data_runs(self):
        grid = make_grid(1.0, 101)
        params = exp_power_params(
            initial=Tabulated(0.5 + 0.5 * grid.r**2, 0.5 + 0.5 * grid.r**2)
        )
        config = SolverConfig(N=101, t_end=1e-4, record_every=10)
        traj = run(params, config)
        assert traj.stop.reason is StopReason.TIME_LIMIT

    def test_signed_zero_interior_records_the_reductions(self):
        # zero for r <= 0.6, then rising; in the zeros u has 0.0 at r = 0
        # and -0.0 elsewhere, v the opposite. At t = 0 the interior
        # maximum is a tie of signed zeros, where F[:, :k].max(axis=1)
        # takes the other sign than the first maximum: the column keeps
        # the reduction's
        grid = make_grid(1.0, 41)
        rise = np.maximum(grid.r - 0.6, 0.0) ** 2
        zeros = np.where(np.arange(grid.N) == 0, 0.0, -0.0)
        u0 = np.where(rise > 0, rise, zeros)
        v0 = np.where(rise > 0, rise, -zeros)
        params = exp_power_params(flux=FluxFamily.POWER, initial=Tabulated(u0, v0))
        config = SolverConfig(N=41, t_end=2e-3, record_every=1)
        traj = run(params, config)
        k = int(np.searchsorted(grid.r, config.interior_radius * (1 + 1e-12),
                                side="right"))
        first = [f[:k].item(f[:k].argmax()) for f in (u0, v0)]
        recorded = [traj.sup_u_interior[0].item(), traj.sup_v_interior[0].item()]
        assert repr(first) == "[0.0, -0.0]"
        assert repr(recorded) == "[-0.0, 0.0]"
        assert len(traj.states) == len(traj) > 1
        for row, state in enumerate(traj.states):
            F = np.stack([state.u, state.v])
            want = [*F.max(axis=1), *F.argmax(axis=1), *F[:, :k].max(axis=1)]
            got = [traj.M[row], traj.Nmax[row], traj.argmax_u[row],
                   traj.argmax_v[row], traj.sup_u_interior[row],
                   traj.sup_v_interior[row]]
            assert [repr(x) for x in got] == [repr(x) for x in want]


class TestMirror:
    @settings(deadline=None, max_examples=30)
    @given(
        family=st.sampled_from(FluxFamily),
        n=st.sampled_from([1, 2, 3]),
        pq=st.sampled_from([(1.5, 2.0), (2.0, 3.0), (2.0, 2.5), (3.0, 1.5)]),
        N=st.integers(16, 41),
        a=st.sampled_from([0.25, 0.5, 1.0]),
        b=st.sampled_from([0.0, 0.5]),
        t_end=st.one_of(st.none(), st.floats(1e-4, 0.05)),
        record_every=st.sampled_from([1, 3]),
        state_every=st.sampled_from([0, 1, 2]),
    )
    def test_swapping_p_and_q_mirrors_the_run(
        self, family, n, pq, N, a, b, t_end, record_every, state_every,
    ):
        # with u0 = v0, run(q, p) is run(p, q) with u and v swapped, bit
        # for bit: the fact a sweep solves each mirror pair once on
        p, q = pq
        if family is FluxFamily.EXP_LINEAR:
            p, q = p - 1.0, q - 1.0
        config = SolverConfig(
            N=N, cfl=_CFL[n], t_end=t_end, record_every=record_every,
            state_every=state_every,
            u_stop=600.0 if family is FluxFamily.POWER else 9.0,
        )
        initial = QuadraticRadial(a, b, a, b)
        traj = run(ProblemParams(p, q, 1.0, n, family, initial), config)
        other = run(ProblemParams(q, p, 1.0, n, family, initial), config)
        mirror = other.mirrored()
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(mirror, column), getattr(traj, column),
                err_msg=column, strict=True,
            )
        assert (mirror.steps, mirror.stop, mirror.config) == (
            traj.steps, traj.stop, traj.config)
        assert len(mirror.states) == len(traj.states)
        for got, want in zip(mirror.states, traj.states):
            assert got.t == want.t
            np.testing.assert_array_equal(got.u, want.u, strict=True)
            np.testing.assert_array_equal(got.v, want.v, strict=True)
        # the mirror of the mirror is the run itself
        again = mirror.mirrored()
        for column in COLUMNS:
            assert getattr(again, column) is getattr(other, column)


# -- bit-for-bit reference ---------------------------------------------------
#
# A plain per-field forward-Euler loop with the formulas of the original
# two-array stepper, written out here so the fused (2, N) kernel is checked
# against code it shares nothing with but boundary_flux.


def _reference_laplacian(f, grid, n, ghost):
    dr = grid.dr
    out = np.empty(grid.N)
    out[0] = 2.0 * n * (f[1] - f[0]) / dr**2
    second = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dr**2
    drift = (n - 1) / grid.r[1:-1] * (f[2:] - f[:-2]) / (2.0 * dr)
    out[1:-1] = second + drift
    out[-1] = (ghost - 2.0 * f[-1] + f[-2]) / dr**2 + (n - 1) / grid.R * (
        ghost - f[-2]
    ) / (2.0 * dr)
    return out


def _reference_step(t, u, v, params, grid, config):
    fu = boundary_flux(params.flux, float(v[-1]), params.p)
    fv = boundary_flux(params.flux, float(u[-1]), params.q)
    ghost_u = float(u[-2]) + 2.0 * grid.dr * fu
    ghost_v = float(v[-2]) + 2.0 * grid.dr * fv
    rate_u = _reference_laplacian(u, grid, params.n, ghost_u)
    rate_v = _reference_laplacian(v, grid, params.n, ghost_v)
    dr2 = grid.dr**2
    dt = config.cfl * dr2
    max_rate = max(float(np.abs(rate_u).max()), float(np.abs(rate_v).max()))
    if max_rate > 0.0:
        peak = max(float(u.max()), float(v.max()))
        dt = min(dt, config.growth_cap * (1.0 + peak) / max_rate)
    if dt < UNDERFLOW_FACTOR * dr2:
        raise StepUnderflow(
            f"dt = {dt:.3e} below {UNDERFLOW_FACTOR:g} * dr^2 at t = {t:.6g}"
        )
    if config.t_end is not None:
        dt = min(dt, config.t_end - t)
    if t + dt == t:
        raise StepUnderflow(
            f"t + dt == t: dt = {dt:.3e} is below the resolution of t = {t:.6g}"
        )
    new_u = u + dt * rate_u
    new_v = v + dt * rate_v
    if not (np.all(np.isfinite(new_u)) and np.all(np.isfinite(new_v))):
        raise NumericalBlowupGuard(f"non-finite field values at t = {t:.6g}")
    return t + dt, new_u, new_v


def _reference_run(params, config):
    """Columns, snapshots (t, u, v), their sample indices, steps and stop."""
    grid = make_grid(params.R, config.N)
    k = int(np.searchsorted(grid.r, config.interior_radius * (1.0 + 1e-12),
                            side="right"))
    t, (u, v) = 0.0, params.initial.evaluate(grid)
    rows, snapshots, samples = [], [], []
    steps, dt, detail, reason = 0, 0.0, "", None
    while True:
        arg_u = params.flux.arg(float(u[-1]), params.q)
        arg_v = params.flux.arg(float(v[-1]), params.p)
        if steps and max(arg_u, arg_v) > config.u_stop:
            reason = StopReason.BLOWUP_THRESHOLD
        elif config.t_end is not None and t >= config.t_end:
            reason = StopReason.TIME_LIMIT
        else:
            try:
                new = _reference_step(t, u, v, params, grid, config)
            except StepUnderflow as exc:
                reason, detail = StopReason.STEP_UNDERFLOW, str(exc)
            except NumericalBlowupGuard as exc:
                reason, detail = StopReason.BLOWUP_THRESHOLD, str(exc)
        if reason is not None or steps % config.record_every == 0:
            with np.errstate(over="ignore"):
                flux_u = params.flux.from_arg(arg_u)
                flux_v = params.flux.from_arg(arg_v)
            rows.append((
                t, dt, float(u.max()), float(v.max()),
                int(u.argmax()), int(v.argmax()),
                float(u[:k].max()), float(v[:k].max()), flux_u, flux_v,
            ))
            if config.state_every and (
                reason is not None or (len(rows) - 1) % config.state_every == 0
            ):
                snapshots.append((t, u, v))
                samples.append(len(rows) - 1)
        if reason is not None:
            break
        steps += 1
        dt = new[0] - t
        t, u, v = new
    columns = dict(zip(COLUMNS, (np.array(c) for c in zip(*rows))))
    stop = (reason, detail, t, arg_u, arg_v)
    return columns, snapshots, samples, steps, stop


# the default cfl of 0.4 is above STABLE_CFL[3]
_CFL = {1: 0.4, 2: 0.4, 3: 0.3}


def _family(flux, e, n, q=None, N=41, **solver):
    params = ProblemParams(
        p=e, q=e if q is None else q, R=1.0, n=n, flux=flux,
        initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
    )
    return params, SolverConfig(N=N, **solver)


REFERENCE_CASES = {
    **{f"exp_power_n{n}": _family(FluxFamily.EXP_POWER, 2.0, n, u_stop=9.0,
                                   record_every=1, cfl=_CFL[n]) for n in (1, 2, 3)},
    **{f"exp_linear_n{n}": _family(FluxFamily.EXP_LINEAR, 1.0, n, u_stop=9.0,
                                    record_every=1, cfl=_CFL[n]) for n in (1, 2, 3)},
    **{f"power_n{n}": _family(FluxFamily.POWER, 2.0, n, record_every=1,
                              cfl=_CFL[n]) for n in (1, 2, 3)},
    # p != q: the stop arguments and ghosts pair u with q and v with p
    "power_p2_q3": _family(FluxFamily.POWER, 2.0, 2, q=3.0, record_every=1),
    # the array length the sweep benchmark steps
    "power_p2_q3_N201": _family(FluxFamily.POWER, 2.0, 2, q=3.0, N=201,
                                t_end=0.02, record_every=10),
    "power_sparse": _family(FluxFamily.POWER, 2.0, 2, record_every=7,
                            state_every=3),
    "power_t_end": _family(FluxFamily.POWER, 2.0, 2, t_end=0.05,
                           record_every=3),
    "exp_power_underflow": _family(FluxFamily.EXP_POWER, 2.0, 2, u_stop=699.0,
                                   record_every=5, state_every=2),
}


class TestReferenceLoop:
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_run_matches_the_per_field_loop_bit_for_bit(self, name):
        params, config = REFERENCE_CASES[name]
        traj = run(params, config)
        columns, snapshots, samples, steps, stop = _reference_run(params, config)
        for column in COLUMNS:
            got, want = getattr(traj, column), columns[column]
            assert got.dtype == want.dtype, column
            np.testing.assert_array_equal(got, want, err_msg=column, strict=True)
        assert traj.steps == steps
        assert [s.t for s in traj.states] == traj.t[samples].tolist()
        # every snapshot is compared after the run has ended, so an early
        # one that shared a buffer with a later state would differ here
        assert len(traj.states) == len(snapshots)
        for state, (t, u, v) in zip(traj.states, snapshots):
            assert state.t == t
            np.testing.assert_array_equal(state.u, u, strict=True)
            np.testing.assert_array_equal(state.v, v, strict=True)
        reason, detail, t_stop, arg_u, arg_v = stop
        last = traj.states[-1]
        assert traj.stop.reason is reason
        assert traj.stop.detail == detail
        assert traj.stop.t_stop == t_stop == last.t
        assert stop_arguments(params, traj) == (arg_u, arg_v)
        np.testing.assert_array_equal(last.u, snapshots[-1][1])
        np.testing.assert_array_equal(last.v, snapshots[-1][2])

    def test_reference_cases_cover_every_stop_reason(self):
        reasons = {
            _reference_run(*REFERENCE_CASES[name])[4][0]
            for name in ("power_t_end", "exp_power_underflow", "power_n2")
        }
        assert reasons == set(StopReason)


# -- the one-field path --------------------------------------------------------
#
# With p = q and u0 = v0 bit for bit, run() steps u alone: v is u at every
# step. The per-field reference loop steps both fields, so it checks the
# one-field path against the two-field update.


def _signed_zero_rise(grid):
    """Zero for r <= 0.6, then 10 (r - 0.6)^2, with 0.0 at r = 0 and -0.0
    at the other zeros."""
    rise = 10.0 * np.maximum(grid.r - 0.6, 0.0) ** 2
    return np.where(rise > 0, rise, np.where(np.arange(grid.N) == 0, 0.0, -0.0))


def _matches_the_reference_loop(params, config):
    """run(params, config), checked against _reference_run bit for bit."""
    traj = run(params, config)
    columns, snapshots, samples, steps, stop = _reference_run(params, config)
    for column in COLUMNS:
        np.testing.assert_array_equal(
            getattr(traj, column), columns[column], err_msg=column, strict=True
        )
    assert traj.steps == steps
    assert [s.t for s in traj.states] == traj.t[samples].tolist()
    assert len(traj.states) == len(snapshots)
    for state, (t, u, v) in zip(traj.states, snapshots):
        assert state.t == t
        np.testing.assert_array_equal(state.u, u, strict=True)
        np.testing.assert_array_equal(state.v, v, strict=True)
    reason, detail, t_stop, *_ = stop
    assert (traj.stop.reason, traj.stop.detail, traj.stop.t_stop) == (
        reason, detail, t_stop)
    return traj


class TestOneField:
    @settings(deadline=None, max_examples=30)
    @given(
        family=st.sampled_from(FluxFamily),
        n=st.sampled_from([1, 2, 3]),
        e=st.sampled_from([1.5, 2.0, 3.0]),
        N=st.integers(16, 41),
        a=st.sampled_from([0.25, 0.5, 1.0]),
        b=st.sampled_from([0.0, 0.5]),
        data=st.sampled_from(["quadratic", "quartic", "signed_zero"]),
        t_end=st.one_of(st.none(), st.floats(1e-4, 0.05)),
        record_every=st.sampled_from([1, 3]),
        state_every=st.sampled_from([0, 1, 2]),
    )
    def test_run_matches_the_reference_loop(
        self, family, n, e, N, a, b, data, t_end, record_every, state_every,
    ):
        if family is FluxFamily.EXP_LINEAR:
            e -= 1.0
        grid = make_grid(1.0, N)
        initial = QuadraticRadial(a, b, a, b)
        if data == "quartic":
            w = a + b * grid.r**2 + 0.5 * grid.r**4
            initial = Tabulated(w, w)
        elif data == "signed_zero":
            w = _signed_zero_rise(grid)
            initial = Tabulated(w, w)
        config = SolverConfig(
            N=N, cfl=_CFL[n], t_end=t_end, record_every=record_every,
            state_every=state_every,
            u_stop=600.0 if family is FluxFamily.POWER else 9.0,
        )
        traj = _matches_the_reference_loop(
            ProblemParams(e, e, 1.0, n, family, initial), config
        )
        assert all(np.shares_memory(s.u, s.v) for s in traj.states)

    @pytest.mark.parametrize("params, reason, detail", [
        (exp_power_params(), StopReason.STEP_UNDERFLOW,
         "dt = 8.483e-20 below 1e-16 \\* dr\\^2"),
        (exp_power_params(p=1.0, q=1.0, flux=FluxFamily.EXP_LINEAR),
         StopReason.STEP_UNDERFLOW, "t \\+ dt == t: dt = 6.920e-19"),
        # at R = 1e7 the ghost, f[N-2] + 2 dr e^699, is inf, and for n = 1
        # the boundary node's drift 0 * inf is NaN: the first update is
        # non-finite
        (exp_power_params(
            p=1.0, q=1.0, R=1e7, n=1, flux=FluxFamily.EXP_LINEAR,
            initial=QuadraticRadial(699.0, 0.0, 699.0, 0.0)),
         StopReason.BLOWUP_THRESHOLD, "non-finite field values at t = 0$"),
    ], ids=["below_dr2", "t_plus_dt", "non_finite"])
    def test_stops_match_the_reference_loop(self, params, reason, detail):
        with np.errstate(invalid="ignore"):
            traj = _matches_the_reference_loop(params, SolverConfig(N=16))
        assert traj.stop.reason is reason
        assert re.search(detail, traj.stop.detail)
        assert np.shares_memory(traj.states[-1].u, traj.states[-1].v)

    def test_flux_overflow_comes_from_the_initial_data(self):
        grid = make_grid(1.0, 41)
        w = 26.0 + 0.5 * grid.r**2
        params = exp_power_params(initial=Tabulated(w, w))
        with pytest.raises(FluxOverflow, match="exponent argument 702 >= 700"):
            run(params, SolverConfig(N=41))

    @pytest.mark.parametrize("q, data, shared", [
        (2.0, "quadratic", True),
        (3.0, "quadratic", False),
        # v0 is u0 with the signs of its zeros flipped: two fields
        (2.0, "signed_zero", False),
    ])
    def test_snapshots_are_read_only_and_share_u_and_v_only_if_equal(
        self, q, data, shared,
    ):
        grid = make_grid(1.0, 41)
        initial = QuadraticRadial()
        if data == "signed_zero":
            w = _signed_zero_rise(grid)
            initial = Tabulated(w, np.where(w == 0.0, -w, w))
        params = exp_power_params(q=q, flux=FluxFamily.POWER, initial=initial)
        traj = run(params, SolverConfig(N=41, t_end=1e-2))
        assert len(traj.states) > 2
        for state in traj.states:
            assert np.shares_memory(state.u, state.v) is shared
            assert not (state.u.flags.writeable or state.v.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            traj.states[0].u[0] = 1.0

    def test_self_mirror_run_keeps_one_field_per_snapshot(self):
        # 2,099 snapshots of 201 nodes: one field each is 3.4 MB
        params = exp_power_params(flux=FluxFamily.POWER)
        tracemalloc.start()
        try:
            traj = run(params, SolverConfig(N=201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == 2099
        assert peak < 6e6
