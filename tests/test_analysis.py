import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowuplab.analysis import (
    BlowupFit,
    _minimize_bounded,
    _window,
    boundary_set_check,
    estimate_blowup_time,
    fit_rate,
    rate_bound_check,
)
from blowuplab.errors import BadRadius, FitFailed, InvalidInitialData
from blowuplab.model import (
    FluxFamily,
    ProblemParams,
    QuadraticRadial,
    make_grid,
)
from blowuplab.solver import SolverConfig, StopInfo, StopReason, Trajectory, run


def exp_power_params(p=2.0, q=2.0):
    return ProblemParams(
        p=p, q=q, R=1.0, n=2,
        flux=FluxFamily.EXP_POWER,
        initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
    )


def synthetic(t, M, N, reason=StopReason.BLOWUP_THRESHOLD):
    """Trajectory carrying given scalar series and benign filler columns."""
    t = np.asarray(t, dtype=float)
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    n = len(t)
    cfg = SolverConfig()
    stop = StopInfo(reason=reason, t_stop=float(t[-1]))
    bdry = np.full(n, cfg.N - 1, dtype=int)
    return Trajectory(
        t=t, dt=np.zeros(n), M=M, Nmax=N,
        argmax_u=bdry, argmax_v=bdry,
        sup_u_interior=np.full(n, M[0]), sup_v_interior=np.full(n, N[0]),
        flux_u=np.zeros(n), flux_v=np.zeros(n),
        states=(), stop=stop, steps=n - 1, config=cfg,
    )


@pytest.fixture(scope="module")
def reference_run():
    """The p=q=2 exponential-power run used across the diagnostics tests."""
    params = exp_power_params()
    config = SolverConfig(
        N=201, cfl=0.4, growth_cap=0.1, u_stop=9.0,
        record_every=2, state_every=1,
    )
    return params, run(params, config)


class TestEstimateBlowupTime:
    def test_exact_exp_power_series(self):
        # generated by its own ansatz with T=1, C1=e, C2=e^2
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        N = 2.0 - 0.5 * np.log(1.0 - t)
        fit = estimate_blowup_time(synthetic(t, M, N), exp_power_params())
        assert fit.t_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.c1_hat == pytest.approx(math.e, rel=1e-5)
        assert fit.c2_hat == pytest.approx(math.e**2, rel=1e-5)
        assert fit.residual < 1e-6

    def test_exact_power_series(self):
        t = np.linspace(0.5, 0.999, 500)
        M = 2.0 * (1.0 - t) ** -0.5
        N = 0.7 * (1.0 - t) ** -0.5
        params = dataclasses.replace(exp_power_params(), flux=FluxFamily.POWER)
        fit = estimate_blowup_time(synthetic(t, M, N), params)
        assert fit.t_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.c1_hat == pytest.approx(2.0, rel=1e-5)
        assert fit.c2_hat == pytest.approx(0.7, rel=1e-5)

    def test_exact_exp_linear_series(self):
        # q*M = log 1.3 - 0.5 log(1-t), p*N = log 0.9 - 0.5 log(1-t)
        p, q = 0.5, 0.7
        t = np.linspace(0.5, 0.999, 500)
        L = -np.log(1.0 - t)
        M = (math.log(1.3) + 0.5 * L) / q
        N = (math.log(0.9) + 0.5 * L) / p
        params = ProblemParams(
            p=p, q=q, R=1.0, n=2,
            flux=FluxFamily.EXP_LINEAR,
            initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
        )
        fit = estimate_blowup_time(synthetic(t, M, N), params)
        assert fit.t_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.c1_hat == pytest.approx(1.3, rel=1e-5)
        assert fit.c2_hat == pytest.approx(0.9, rel=1e-5)

    def test_unpacks_as_tuple(self):
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        fit = estimate_blowup_time(synthetic(t, M, M), exp_power_params())
        t_hat, c1, c2, residual = fit.t_hat, fit.c1_hat, fit.c2_hat, fit.residual
        assert t_hat == fit.t_hat
        assert (c1, c2, residual) == (fit.c1_hat, fit.c2_hat, fit.residual)

    def test_growth_below_two_rejected(self):
        # on [0.5, 0.99] this exact series grows by 0.5*log(50) = 1.956,
        # just under the window requirement
        t = np.linspace(0.5, 0.99, 300)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        with pytest.raises(FitFailed, match="grew by"):
            estimate_blowup_time(synthetic(t, M, M), exp_power_params())

    def test_constant_series_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        M = np.full_like(t, 3.0)
        with pytest.raises(FitFailed):
            estimate_blowup_time(synthetic(t, M, M), exp_power_params())

    def test_non_threshold_stop_rejected(self):
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        traj = synthetic(t, M, M, reason=StopReason.TIME_LIMIT)
        with pytest.raises(FitFailed, match="time_limit"):
            estimate_blowup_time(traj, exp_power_params())

    def test_wrong_shape_series_fails_residual_gate(self):
        # M = 2L grows four times steeper than the p=q=2 ansatz slope;
        # no (T, C1) combination brings the RMS misfit near the gate
        t = np.linspace(0.5, 0.999, 500)
        M = 1.0 + 2.0 * -np.log(1.0 - t)
        with pytest.raises(FitFailed, match="residual"):
            estimate_blowup_time(synthetic(t, M, M), exp_power_params())

    @pytest.mark.parametrize(
        "residual_max", [0.0, -1.0, math.nan, math.inf, -math.inf]
    )
    def test_refuses_a_residual_gate_that_is_off(self, residual_max):
        # a nan or infinite gate would pass any misfit
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        with pytest.raises(ValueError, match="residual_max must be positive"):
            estimate_blowup_time(
                synthetic(t, M, M), exp_power_params(), residual_max=residual_max
            )

    def test_reference_run_fit(self, reference_run):
        params, traj = reference_run
        fit = estimate_blowup_time(traj, params)
        assert traj.stop.t_stop < fit.t_hat
        assert fit.t_hi <= traj.stop.t_stop
        # frozen from the 4x refined comparison run (agreement 0.6%)
        assert fit.t_hat == pytest.approx(0.0108994, rel=1e-3)
        assert fit.residual < 0.2


def _cosine_sum(terms):
    amp = np.array([a for a, _, _ in terms])
    freq = np.array([w for _, w, _ in terms])
    phase = np.array([ph for _, _, ph in terms])
    return lambda x: float(np.sum(amp * np.cos(freq * x + phase)))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


_TERMS = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 1e3), st.floats(0.0, 7.0)),
    min_size=1, max_size=6,
)
_LO = st.floats(-50.0, 50.0)
# bracket widths from 1e-9 to 40
_LOG_WIDTH = st.floats(-9.0, math.log10(40.0))


def _fit_sse(traj, params, t_hat):
    """The sum of squares estimate_blowup_time minimises, at T = t_hat."""
    t, yu, yv = _window(traj, params)
    target_u, target_v = params.flux.rate_targets(params.p, params.q)
    x = -np.log(t_hat - t)
    ru = yu - target_u / 2.0 * x
    rv = yv - target_v / 2.0 * x
    return float(np.sum((ru - ru.mean()) ** 2) + np.sum((rv - rv.mean()) ** 2))


class TestMinimizeBounded:
    """The golden-section search behind estimate_blowup_time."""

    @settings(deadline=None, max_examples=300)
    @given(
        weight=st.floats(1e-3, 1e3),
        k=st.sampled_from([1, 2, 4]),
        lo=_LO,
        log_width=_LOG_WIDTH,
        where=st.floats(-0.5, 1.5),
        xatol=st.sampled_from([1e-12, 1e-9, 1e-5]),
    )
    @example(weight=1.0, k=2, lo=0.0, log_width=1.0, where=0.5, xatol=1e-12)
    @example(weight=1.0, k=1, lo=-3.0, log_width=1.0, where=-0.5, xatol=1e-12)
    def test_finds_the_minimum_within_xatol(self, weight, k, lo, log_width,
                                            where, xatol):
        # where < 0 or > 1 puts the minimiser outside the bracket, so the
        # nearer bound is the answer
        hi = lo + 10.0**log_width
        centre = lo + (hi - lo) * where
        x, fun = _minimize_bounded(
            lambda x: weight * abs(x - centre) ** k, lo, hi, xatol
        )
        assert lo <= x <= hi
        assert abs(x - min(max(centre, lo), hi)) <= xatol
        assert fun == weight * abs(x - centre) ** k

    @settings(deadline=None, max_examples=300)
    @given(
        terms=_TERMS,
        lo=_LO,
        log_width=_LOG_WIDTH,
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    # the first inner point, lo + 0.382 * width, falls in the cut
    @example(terms=[(1.0, 1.0, 0.0)], lo=0.0, log_width=1.0, cut=(0.3, 0.5))
    def test_nan_counts_as_inf(self, terms, lo, log_width, cut):
        hi = lo + 10.0**log_width
        c0, c1 = sorted(lo + (hi - lo) * f for f in cut)
        smooth = _cosine_sum(terms)

        def cut_to(value):
            return lambda x: value if c0 <= x <= c1 else smooth(x)

        x_nan, fun_nan = _minimize_bounded(cut_to(math.nan), lo, hi, 1e-12)
        x_inf, fun_inf = _minimize_bounded(cut_to(math.inf), lo, hi, 1e-12)
        assert _bits(x_nan) == _bits(x_inf)
        assert _bits(fun_nan) == _bits(fun_inf)

    @settings(deadline=None)
    @given(level=st.floats(-1e3, 1e3), lo=_LO, log_width=_LOG_WIDTH)
    def test_constant_objective(self, level, lo, log_width):
        # every comparison ties
        hi = lo + 10.0**log_width
        x, fun = _minimize_bounded(lambda x: level, lo, hi, 1e-12)
        assert lo <= x <= hi
        assert fun == level

    def test_fit_objective_no_worse_than_scipy(self):
        # the sum of squares estimate_blowup_time minimises, on its bounds;
        # scipy's bounded Brent search is the reference only
        from scipy.optimize import minimize_scalar

        t = np.linspace(0.5, 0.995, 400)
        y = 1.0 - 0.5 * np.log(1.0 - t)
        span = float(t[-1] - t[0])

        def sse(log_d):
            r = y - 0.5 * -np.log(t[-1] + math.exp(log_d) - t)
            return float(np.sum((r - r.mean()) ** 2))

        lo, hi = math.log(span * 1e-12), math.log(10.0 * span)
        ref = minimize_scalar(
            sse, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
        )
        _, fun = _minimize_bounded(sse, lo, hi, 1e-12)
        assert fun <= ref.fun

    @pytest.mark.parametrize("delta", [1e-4, 1e-2])
    def test_reference_run_t_hat_is_a_local_minimum(self, reference_run, delta):
        # the run of the REFERENCE config in tests/test_cli.py
        params, traj = reference_run
        t_hat = estimate_blowup_time(traj, params).t_hat
        step = delta * (t_hat - traj.stop.t_stop)
        at = _fit_sse(traj, params, t_hat)
        assert at <= _fit_sse(traj, params, t_hat - step)
        assert at <= _fit_sse(traj, params, t_hat + step)


class TestFitRate:
    def test_exact_slope(self):
        # alpha_hat = 2 * 0.4 regardless of the intercept
        t = np.linspace(1.0, 2.0 - math.exp(-5.5), 400)
        M = 3.0 - 0.4 * np.log(2.0 - t)
        N = 2.0 - 0.3 * np.log(2.0 - t)
        alpha_hat, beta_hat = fit_rate(synthetic(t, M, N), 2.0, exp_power_params())
        assert alpha_hat == pytest.approx(0.8, abs=1e-6)
        assert beta_hat == pytest.approx(0.6, abs=1e-6)

    def test_shift_invariance(self):
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        params = exp_power_params()
        base = estimate_blowup_time(synthetic(t, M, M), params)
        shifted = estimate_blowup_time(synthetic(t, M + 1.7, M + 1.7), params)
        assert shifted.t_hat == pytest.approx(base.t_hat, abs=1e-9)
        assert shifted.c1_hat / base.c1_hat == pytest.approx(math.exp(1.7), rel=1e-6)
        a0, _ = fit_rate(synthetic(t, M, M), base.t_hat, params)
        a1, _ = fit_rate(synthetic(t, M + 1.7, M + 1.7), base.t_hat, params)
        assert a1 == pytest.approx(a0, abs=1e-12)

    @settings(deadline=None)
    @given(
        c=st.floats(-10.0, 10.0),
        alpha=st.floats(0.6, 4.0),
        beta=st.floats(0.6, 4.0),
    )
    def test_time_shift_invariance(self, c, alpha, beta):
        # the law sees t only through t_hat - t, so shifting both by c
        # leaves the exponents alone
        gaps = np.geomspace(1.0, 1e-3, 200)
        t = 1.0 - gaps
        M = 1.0 - 0.5 * alpha * np.log(gaps)
        N = 2.0 - 0.5 * beta * np.log(gaps)
        params = exp_power_params()
        base = fit_rate(synthetic(t, M, N), 1.0, params)
        shifted = fit_rate(synthetic(t + c, M, N), 1.0 + c, params)
        assert shifted == pytest.approx(base, rel=1e-9)
        assert base == pytest.approx((alpha, beta), rel=1e-9)

    def test_too_few_usable_samples(self):
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        traj = synthetic(t, M, M)
        t_window = _window(traj, exp_power_params())[0]
        t_hat_inside = float(t_window[5])
        with pytest.raises(FitFailed, match="usable"):
            fit_rate(traj, t_hat_inside, exp_power_params())

    def test_reference_run_upper_estimate(self, reference_run):
        params, traj = reference_run
        fit = estimate_blowup_time(traj, params)
        alpha_hat, beta_hat = fit_rate(traj, fit.t_hat, params)
        assert 0.3 < alpha_hat <= 1.1
        assert 0.3 < beta_hat <= 1.1

    def test_asymmetric_run_upper_estimates(self):
        # p=3, q=2 has alpha=0.8, beta=0.6; the acceptance margin is 1.1x.
        # u_stop high enough that M itself grows by 2 before either flux
        # argument trips the stop.
        params = exp_power_params(p=3.0, q=2.0)
        config = SolverConfig(
            N=201, cfl=0.4, growth_cap=0.1, u_stop=18.0,
            record_every=2, state_every=0,
        )
        traj = run(params, config)
        fit = estimate_blowup_time(traj, params)
        alpha_hat, beta_hat = fit_rate(traj, fit.t_hat, params)
        assert 0.3 < alpha_hat <= 0.88
        assert 0.25 < beta_hat <= 0.66


class TestRateBoundCheck:
    def test_exact_series_flat(self):
        t = np.linspace(0.5, 0.995, 400)
        M = 1.0 - 0.5 * np.log(1.0 - t)
        report = rate_bound_check(
            synthetic(t, M, M), 1.0, 1.0, 1.0, params=exp_power_params()
        )
        assert report.passed
        assert report.rate_sup_u == pytest.approx(math.e, rel=1e-9)
        assert report.trend_u == pytest.approx(1.0, abs=1e-9)

    def test_too_fast_series_flagged(self):
        # e^M = (1-t)^{-2} outruns the alpha=1 product by (1-t)^{-3/2}
        t = np.linspace(0.5, 0.999, 500)
        M = 2.0 * -np.log(1.0 - t)
        report = rate_bound_check(
            synthetic(t, M, M), 1.0, 1.0, 1.0, params=exp_power_params()
        )
        assert not report.passed
        assert report.trend_u > 2.0
        pi = np.exp(M) * (1.0 - t) ** 0.5
        assert pi.max() / pi[0] > 10.0

    def test_thin_tail_fails_without_raising(self):
        # 21 samples spread over 7 decades of (1-t) leave only 2 in the
        # last half decade, too few for a trend line
        gaps = np.logspace(np.log10(0.5), np.log10(0.5e-7), 21)
        t = 1.0 - gaps
        M = 1.0 - 0.5 * np.log(gaps)
        report = rate_bound_check(
            synthetic(t, M, M), 1.0, 1.0, 1.0, params=exp_power_params()
        )
        assert report.tail_samples == 2
        assert math.isnan(report.trend_u)
        assert not report.passed

    @pytest.mark.parametrize("tol", [-0.1, math.nan, math.inf])
    def test_refuses_a_tolerance_that_is_off(self, tol):
        # an infinite tol would pass any rising trend
        t = np.linspace(0.5, 0.999, 500)
        M = 2.0 * -np.log(1.0 - t)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            rate_bound_check(
                synthetic(t, M, M), 1.0, 1.0, 1.0,
                params=exp_power_params(), tol=tol,
            )

    def test_reference_run_flat_or_decreasing(self, reference_run):
        params, traj = reference_run
        fit = estimate_blowup_time(traj, params)
        report = rate_bound_check(traj, fit.t_hat, 1.0, 1.0, params=params)
        assert report.passed
        assert np.isfinite(report.rate_sup_u)
        assert report.trend_u <= 1.2
        assert report.trend_v <= 1.2

    def test_subsample_invariance(self, reference_run):
        params, traj = reference_run
        fit = estimate_blowup_time(traj, params)
        keep = np.r_[np.arange(0, len(traj) - 1, 2), len(traj) - 1]
        half = dataclasses.replace(
            traj,
            t=traj.t[keep], dt=traj.dt[keep], M=traj.M[keep],
            Nmax=traj.Nmax[keep],
            argmax_u=traj.argmax_u[keep], argmax_v=traj.argmax_v[keep],
            sup_u_interior=traj.sup_u_interior[keep],
            sup_v_interior=traj.sup_v_interior[keep],
            flux_u=traj.flux_u[keep], flux_v=traj.flux_v[keep],
            states=(),
        )
        full = rate_bound_check(traj, fit.t_hat, 1.0, 1.0, params=params)
        sub = rate_bound_check(half, fit.t_hat, 1.0, 1.0, params=params)
        assert sub.rate_sup_u == pytest.approx(full.rate_sup_u, rel=1e-2)
        assert sub.rate_sup_v == pytest.approx(full.rate_sup_v, rel=1e-2)


class TestWindowBeforeT:
    """The samples fit_rate and rate_bound_check read: the fit window's
    before the T they are given."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(deadline=None)
    @given(frac=st.floats(0.0, 1.2))
    # T = t_stop exactly: the last sample sits at T and is left out
    @example(frac=1.0)
    # T = the window's first sample: no sample before it
    @example(frac=0.0)
    def test_rate_checks_read_the_window_before_T(self, reference_run, frac):
        params, traj = reference_run
        t, yu, yv = _window(traj, params)
        t_stop = traj.stop.t_stop
        T = t_stop - (1.0 - frac) * (t_stop - t[0])
        before = t < T
        k = int(before.sum())
        if k < 10:
            for check in (
                lambda: fit_rate(traj, T, params),
                lambda: rate_bound_check(traj, T, 1.0, 1.0, params=params),
            ):
                with pytest.raises(
                    FitFailed, match=f"^{k} usable samples below t_hat, need 10$"
                ):
                    check()
            return
        fit_rate(traj, T, params)
        report = rate_bound_check(traj, T, 1.0, 1.0, params=params)
        log_gap = np.log(T - t[before])
        assert report.rate_sup_u == float(np.exp(yu[before] + 0.5 * log_gap).max())
        assert report.rate_sup_v == float(np.exp(yv[before] + 0.5 * log_gap).max())

    def test_time_limited_run_fails_every_rate_check_alike(self):
        params = exp_power_params()
        config = SolverConfig(N=101, t_end=2e-4, record_every=5, state_every=0)
        traj = run(params, config)
        assert traj.stop.reason is StopReason.TIME_LIMIT
        T = 2.0 * traj.stop.t_stop
        messages = []
        for check in (
            lambda: estimate_blowup_time(traj, params),
            lambda: fit_rate(traj, T, params),
            lambda: rate_bound_check(traj, T, 1.0, 1.0, params=params),
        ):
            with pytest.raises(FitFailed) as info:
                check()
            messages.append(str(info.value))
        assert messages == [
            "run stopped on time_limit, not the blow-up threshold"
        ] * 3


class TestBoundarySetCheck:
    def test_bad_radius(self, reference_run):
        params, traj = reference_run
        for a in (0.0, -0.5, 1.0, 2.0):
            with pytest.raises(BadRadius):
                boundary_set_check(traj, params, a)

    def test_reference_run_passes(self, reference_run):
        params, traj = reference_run
        fit = estimate_blowup_time(traj, params)
        report = boundary_set_check(
            traj, params, 0.5,
            t_hat=fit.t_hat, c1_hat=fit.c1_hat, c2_hat=fit.c2_hat,
        )
        assert report.status == "pass"
        assert report.argmax_at_boundary
        assert report.growth_u < 0.05
        assert report.growth_v < 0.05
        assert traj.M[-1] > 3.0
        assert report.interior_sup_u < 1.0
        assert np.isfinite(report.envelope_u)
        assert report.decade_samples > 10

    def test_envelope_grows_toward_boundary(self, reference_run):
        params, traj = reference_run
        fit = estimate_blowup_time(traj, params)
        mid = boundary_set_check(traj, params, 0.5, t_hat=fit.t_hat, c1_hat=fit.c1_hat)
        # the same run, recording its interior suprema at a = 0.99
        config = dataclasses.replace(traj.config, interior_radius=0.99)
        near = boundary_set_check(
            run(params, config), params, 0.99, t_hat=fit.t_hat, c1_hat=fit.c1_hat
        )
        assert np.isfinite(near.envelope_u)
        assert near.envelope_u > mid.envelope_u
        # (R^2 - a^2)^{-2m} with m = 1/2 here
        assert near.envelope_u == pytest.approx(
            fit.c1_hat / (1.0 - 0.99**2), rel=1e-12
        )

    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 3.0)])
    def test_exp_linear_envelope_uses_the_family_rate(self, p, q):
        # exp_linear's rate target is 1 for both fields, so m = 1/2
        # whatever p and q are
        params = dataclasses.replace(
            exp_power_params(), p=p, q=q, flux=FluxFamily.EXP_LINEAR
        )
        t = np.linspace(0.0, 1.0, 30)
        traj = synthetic(t, 1.0 + t, 1.0 + t)
        report = boundary_set_check(traj, params, 0.5, c1_hat=2.5, c2_hat=3.0)
        assert report.envelope_u == pytest.approx(2.5 / (1.0 - 0.5**2), rel=1e-12)
        assert report.envelope_v == pytest.approx(3.0 / (1.0 - 0.5**2), rel=1e-12)

    def test_mismatched_radius_without_snapshots(self, reference_run):
        # the interior series is the recorded one, snapshots or not, and
        # the error names the radius it was recorded at
        params, traj = reference_run
        for t in (traj, dataclasses.replace(traj, states=())):
            with pytest.raises(BadRadius, match="at a = 0.5, got 0.3"):
                boundary_set_check(t, params, 0.3)
        # a nan radius is no radius the run recorded at
        with pytest.raises(BadRadius, match="at a = 0.5, got nan"):
            boundary_set_check(traj, params, math.nan)
        # within 1e-12 R of the recorded radius is the recorded radius
        boundary_set_check(traj, params, 0.5 * (1.0 + 1e-13))

    @pytest.mark.parametrize("dip", [0.0, 1e-12])
    def test_initial_ties_pass_only_with_the_maximum_at_r_equal_R(self, dip):
        # flat data tie at every node, so np.argmax puts row 0's maximum
        # at node 0, and the check passes; bending u0 down by a hair puts
        # the initial maximum inside the ball, and validation refuses it
        grid = make_grid(1.0, 101)
        params = ProblemParams(
            p=2.0, q=2.0, R=1.0, n=2, flux=FluxFamily.POWER,
            initial=QuadraticRadial(0.5, -dip, 0.5, 0.0),
        )
        if dip:
            with pytest.raises(InvalidInitialData, match=(
                "initial data failed: monotone_u0, subharmonic_u0"
            )):
                run(params, SolverConfig(N=grid.N))
            return
        traj = run(params, SolverConfig(N=grid.N))
        fit = estimate_blowup_time(traj, params)
        report = boundary_set_check(traj, params, 0.5, t_hat=fit.t_hat)
        assert traj.argmax_u[0] == traj.argmax_v[0] == 0
        assert np.all(traj.argmax_u[1:] == grid.N - 1)
        assert np.all(traj.argmax_v[1:] == grid.N - 1)
        assert report.growth_u < 0.05 and report.growth_v < 0.05
        assert report.argmax_at_boundary
        assert report.status == "pass"

    def test_time_limited_run_inconclusive(self):
        params = exp_power_params()
        config = SolverConfig(N=101, t_end=2e-4, record_every=5, state_every=0)
        traj = run(params, config)
        assert traj.stop.reason is StopReason.TIME_LIMIT
        report = boundary_set_check(traj, params, 0.5)
        assert report.status == "inconclusive"
        assert not report.passed
        assert math.isnan(report.growth_u)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_final_decade_needs_three_samples(self, k):
        # flat interior suprema and the maxima at the boundary: only the
        # sample count in the final decade of t_hat - t decides
        gaps = np.r_[[1.0, 0.5, 0.2], np.geomspace(0.009, 0.001, k)]
        traj = synthetic(1.0 - gaps, 2.0 - gaps, 2.0 - gaps)
        report = boundary_set_check(traj, exp_power_params(), 0.5, t_hat=1.0)
        assert report.decade_samples == k
        if k < 3:
            # one or two samples show no growth by construction
            assert math.isnan(report.growth_u) and math.isnan(report.growth_v)
            assert report.status == (
                f"fail: {k} samples in the final decade of t_hat - t, need 3"
            )
            assert not report.passed
        else:
            assert report.growth_u == report.growth_v == 0.0
            assert report.status == "pass"
