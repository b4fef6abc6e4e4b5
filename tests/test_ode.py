"""Tests for the extremal ODE system and its rate verification."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blowuplab.errors import DegenerateExponents, FitFailed, ParamsTooStiff
from blowuplab.model import rate_exponents
from blowuplab.ode import (
    CAP_MARGIN,
    DIVERGENCE_CAP,
    OdeParams,
    OdeSeries,
    integrate_system,
    self_similar_constants,
    verify_lemma_bounds,
)


def bisect_amplitude(p, q, c, lo=1e-8, hi=100.0):
    """Independent root find for C_B on the reduced scalar equation.

    Eliminating C_A from the pair (alpha/2) C_A = c C_B^p,
    (beta/2) C_B = c C_A^q leaves f(C_B) = (beta/2) C_B - c C_A(C_B)^q,
    positive below the root and negative above it.
    """
    alpha, beta = rate_exponents(p, q)

    def f(cb):
        ca = (2.0 * c / alpha) * cb**p
        return (beta / 2.0) * cb - c * ca**q

    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def on_orbit_params(p, q, c, T=1.0, t0=0.0):
    alpha, beta = rate_exponents(p, q)
    ca, cb = self_similar_constants(p, q, c)
    gap = T - t0
    return OdeParams(
        p=p, q=q, c=c, T=T,
        A0=ca * gap ** (-alpha / 2), B0=cb * gap ** (-beta / 2), t0=t0,
    )


class TestOdeParams:
    def test_degenerate_exponents_rejected(self):
        with pytest.raises(DegenerateExponents):
            OdeParams(p=1.0, q=1.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        with pytest.raises(DegenerateExponents):
            OdeParams(p=0.5, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)

    def test_domain_validation(self):
        good = dict(p=2.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        for bad in (
            dict(c=0.0),
            dict(c=-1.0),
            dict(t0=1.0),
            dict(t0=1.5),
            dict(t0=-0.1),
            dict(A0=0.0),
            dict(B0=-2.0),
            dict(p=-2.0, q=-1.0),
        ):
            with pytest.raises(ValueError):
                OdeParams(**{**good, **bad})

    @pytest.mark.parametrize("field", ["p", "q", "c", "T", "A0", "B0", "t0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        good = dict(p=2.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0, t0=0.0)
        with pytest.raises(ValueError, match=f"^{field} = "):
            OdeParams(**{**good, field: value})

    def test_exponents_property(self):
        params = OdeParams(p=3.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        assert params.exponents == rate_exponents(3.0, 2.0) == (0.8, 0.6)


class TestSelfSimilarConstants:
    def test_symmetric_examples(self):
        assert self_similar_constants(2.0, 2.0, 0.5) == (1.0, 1.0)
        ca, cb = self_similar_constants(2.0, 2.0, 1.0)
        assert np.isclose(ca, 0.5, rtol=1e-15)
        assert np.isclose(cb, 0.5, rtol=1e-15)

    def test_matches_bisection_oracle(self):
        ca, cb = self_similar_constants(3.0, 2.0, 1.0)
        assert abs(cb - bisect_amplitude(3.0, 2.0, 1.0)) < 1e-12
        # reference digits from the bisection oracle
        assert np.isclose(cb, 0.5448139854853322, rtol=1e-12)
        assert np.isclose(ca, 0.4042823217079863, rtol=1e-12)

    def test_defining_equations_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(1.05, 6.0)
            q = rng.uniform(1.05, 6.0)
            c = rng.uniform(0.1, 5.0)
            alpha, beta = rate_exponents(p, q)
            ca, cb = self_similar_constants(p, q, c)
            assert np.isclose((alpha / 2) * ca, c * cb**p, rtol=1e-12)
            assert np.isclose((beta / 2) * cb, c * ca**q, rtol=1e-12)

    def test_orbit_satisfies_the_ode_identically(self):
        # A = C_A g^{-alpha/2} has A' = (alpha/2) C_A g^{-alpha/2 - 1},
        # and c B^p / sqrt(g) matches it through p beta = alpha + 1.
        p, q, c = 3.0, 2.0, 1.0
        alpha, beta = rate_exponents(p, q)
        ca, cb = self_similar_constants(p, q, c)
        g = np.logspace(0.0, -6.0, 50)
        da = (alpha / 2) * ca * g ** (-alpha / 2 - 1)
        db = (beta / 2) * cb * g ** (-beta / 2 - 1)
        assert np.allclose(da, c * (cb * g ** (-beta / 2)) ** p / np.sqrt(g), rtol=1e-10)
        assert np.allclose(db, c * (ca * g ** (-alpha / 2)) ** q / np.sqrt(g), rtol=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(DegenerateExponents):
            self_similar_constants(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            self_similar_constants(2.0, 2.0, 0.0)


class TestIntegrateSystem:
    def test_exact_symmetric_solution(self):
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 0.75)
        assert not series.capped
        assert len(series) == 200
        assert series.t[0] == 0.0
        assert series.t[-1] == 0.75
        assert abs(series.A[-1] - 2.0) < 1e-8
        assert np.allclose(series.A, (1.0 - series.t) ** -0.5, rtol=1e-9)

    def test_symmetric_data_gives_identical_components(self):
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 0.75)
        assert np.array_equal(series.A, series.B)

    def test_start_away_from_zero(self):
        root2 = math.sqrt(2.0)
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=root2, B0=root2, t0=0.5)
        series = integrate_system(params, 0.5)
        assert series.t[0] == 0.5
        assert abs(series.A[-1] - 2.0) < 1e-8

    def test_sampling_is_geometric_in_the_gap(self):
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 0.75, n_samples=60)
        gaps = 1.0 - series.t
        ratios = gaps[1:] / gaps[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_generic_reference_values(self):
        # Frozen from scipy's DOP853 in t on (log A, log B) at rtol 1e-12,
        # atol 1e-14, which agreed with its own rtol 1e-10 run to ~1e-12.
        params = OdeParams(p=3.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 0.4)
        assert not series.capped
        assert len(series) == 200
        assert np.all(np.diff(series.A) > 0)
        assert np.all(np.diff(series.B) > 0)
        assert np.isclose(series.t[20], 0.050043665064753995, rtol=1e-12)
        assert np.isclose(series.A[20], 1.0548194944117903, rtol=1e-9)
        assert np.isclose(series.B[20], 1.0534410096981806, rtol=1e-9)
        assert np.isclose(series.A[150], 1.701801690899653, rtol=1e-9)
        assert np.isclose(series.B[150], 1.5803909244462877, rtol=1e-9)
        assert np.isclose(series.A[-1], 2.25119958896539, rtol=1e-9)
        assert np.isclose(series.B[-1], 1.9639913824569741, rtol=1e-9)

    def test_above_orbit_data_caps_before_the_horizon(self):
        # A0 = B0 = 1 sits above the self-similar orbit, so the true
        # singularity is at some t* < T and the run must end there.
        params = OdeParams(p=3.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 0.99)
        assert series.capped
        assert np.isclose(series.t[-1], 0.5681950220671202, atol=1e-9)
        assert series.A[-1] >= CAP_MARGIN * DIVERGENCE_CAP
        assert series.A[-1] < DIVERGENCE_CAP
        # last geometric sample before the cap, frozen like the above
        assert np.isclose(series.A[36], 54.04128843434653, rtol=1e-9)
        assert np.isclose(series.B[36], 21.417993540514455, rtol=1e-9)

    def test_cap_crossed_too_early_is_stiff(self):
        params = OdeParams(p=2.0, q=2.0, c=1.0, T=1.0, A0=1e6, B0=1e6)
        with pytest.raises(ParamsTooStiff, match="divergence cap"):
            integrate_system(params, 0.99)

    def test_initial_data_at_the_cap_is_stiff(self):
        params = OdeParams(p=2.0, q=2.0, c=1.0, T=1.0, A0=1e13, B0=1.0)
        with pytest.raises(ParamsTooStiff, match="already"):
            integrate_system(params, 0.99)

    def test_step_underflow_below_the_cap_is_stiff(self):
        # exp(p y - x) overflows at A0 = 5e-324 for every trial step, so
        # the step halves to 0 at s = 0, far below the cap
        params = OdeParams(p=2.0, q=2.0, c=1.0, T=1.0, A0=5e-324, B0=1.0)
        with pytest.raises(ParamsTooStiff, match="Required step size"):
            integrate_system(params, 0.99)

    def test_stop_frac_domain(self):
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                integrate_system(params, frac)
        with pytest.raises(ValueError):
            integrate_system(params, 0.5, n_samples=5)
        # an end gap that rounds to 0 is named, not left to geomspace
        tiny = OdeParams(p=2.0, q=2.0, c=0.5, T=5e-324, A0=1.0, B0=1.0)
        with pytest.raises(ValueError, match=r"t_stop_frac = 0\.5 leaves an end gap "
                           r"\(T - t0\)\(1 - t_stop_frac\) = 0 that rounds to 0"):
            integrate_system(tiny, 0.5)


class TestOrbitGeometry:
    def test_on_orbit_drift_below_tolerance_over_a_decade(self):
        params = on_orbit_params(3.0, 2.0, 1.0)
        alpha, beta = params.exponents
        ca, cb = self_similar_constants(3.0, 2.0, 1.0)
        series = integrate_system(params, 0.9)
        gaps = 1.0 - series.t
        drift_a = np.abs(series.A / (ca * gaps ** (-alpha / 2)) - 1.0).max()
        drift_b = np.abs(series.B / (cb * gaps ** (-beta / 2)) - 1.0).max()
        assert drift_a < 1e-6
        assert drift_b < 1e-6

    @settings(deadline=None)
    @given(
        p=st.floats(1.05, 6.0),
        q=st.floats(1.05, 6.0),
        c=st.floats(0.1, 5.0),
        T=st.floats(0.5, 3.0),
        t0_frac=st.floats(0.0, 0.5, exclude_max=True),
    )
    # capped before t_stop: the cap sample's time rounds its gap by ulp(T)
    @example(p=1.0546875, q=1.546875, c=1.5, T=1.5, t0_frac=0.0)
    def test_on_orbit_data_stays_on_the_orbit(self, p, q, c, T, t0_frac):
        # the orbit is the fixed point of the similarity variables, so
        # only rounding, amplified by the saddle's (T-t)^{-1/2}, moves it
        params = on_orbit_params(p, q, c, T=T, t0=t0_frac * T)
        alpha, beta = params.exponents
        ca, cb = self_similar_constants(p, q, c)
        # near p = q = 1 the orbit itself may pass the cap: skip draws
        # where it does so before the tenth of the 200 samples
        gap9 = (T - params.t0) * 1e-6 ** (9 / 199)
        assume(max(ca * gap9 ** (-alpha / 2), cb * gap9 ** (-beta / 2)) < DIVERGENCE_CAP / 2)
        series = integrate_system(params, 1.0 - 1e-6)
        gaps = T - series.t
        assert np.abs(series.A / (ca * gaps ** (-alpha / 2)) - 1.0).max() < 1e-10
        assert np.abs(series.B / (cb * gaps ** (-beta / 2)) - 1.0).max() < 1e-10

    def test_below_orbit_data_stays_below(self):
        alpha, beta = rate_exponents(3.0, 2.0)
        ca, cb = self_similar_constants(3.0, 2.0, 1.0)
        params = OdeParams(p=3.0, q=2.0, c=1.0, T=1.0, A0=0.5 * ca, B0=0.5 * cb)
        series = integrate_system(params, 0.99)
        gaps = 1.0 - series.t
        assert not series.capped
        assert np.all(series.A < ca * gaps ** (-alpha / 2))
        assert np.all(series.B < cb * gaps ** (-beta / 2))


class TestVerifyLemmaBounds:
    def test_exact_series_rate_and_constant(self):
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 1.0 - 1e-5)
        report = verify_lemma_bounds(series, params)
        assert abs(report.alpha_fit - 1.0) < 1e-4
        assert abs(report.beta_fit - 1.0) < 1e-4
        assert np.isclose(report.c_a, 1.0, rtol=1e-6)
        assert np.isclose(report.c_b, 1.0, rtol=1e-6)
        assert abs(report.trend_a - 1.0) < 1e-6
        assert report.tail_samples >= 3
        assert report.passed

    def test_report_unpacks_as_five_tuple(self):
        params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 1.0 - 1e-5)
        report = verify_lemma_bounds(series, params)
        alpha_fit, beta_fit, c_a, c_b, passed = (
            report.alpha_fit, report.beta_fit, report.c_a, report.c_b, report.passed
        )
        assert alpha_fit == report.alpha_fit
        assert c_b == report.c_b
        assert passed is report.passed

    def test_asymmetric_on_orbit_series(self):
        # alpha = 0.8, beta = 0.6; the fitted exponents must stay
        # within 5% and the measured constants must match the orbit
        # amplitudes.
        params = on_orbit_params(3.0, 2.0, 1.0)
        series = integrate_system(params, 1.0 - 1e-6)
        report = verify_lemma_bounds(series, params)
        assert report.passed
        assert 0.79 < report.alpha_fit <= 0.84
        assert 0.59 < report.beta_fit <= 0.63
        assert np.isclose(report.c_a, 0.4042823217079863, rtol=1e-6)
        assert np.isclose(report.c_b, 0.5448139854853322, rtol=1e-6)

    def test_short_series_fails(self):
        t = np.linspace(0.0, 0.5, 5)
        val = np.geomspace(1.0, 200.0, 5)
        series = OdeSeries(t=t, A=val, B=val, capped=False)
        params = OdeParams(p=2.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        with pytest.raises(FitFailed, match="5 samples"):
            verify_lemma_bounds(series, params)

    def test_undiverged_series_fails(self):
        params = on_orbit_params(3.0, 2.0, 1.0)
        series = integrate_system(params, 0.9)
        with pytest.raises(FitFailed, match="grew by"):
            verify_lemma_bounds(series, params)

    def test_too_fast_growth_fails_the_check(self):
        gaps = np.geomspace(1.0, 1e-5, 120)
        series = OdeSeries(t=1.0 - gaps, A=gaps**-2.0, B=gaps**-2.0, capped=False)
        params = OdeParams(p=3.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        report = verify_lemma_bounds(series, params)
        assert not report.passed
        assert report.alpha_fit > 3.9
        assert report.trend_a > 1.1

    def test_early_blowup_fails_the_horizon_fit(self):
        # The capped above-orbit run diverges at t* < T, so its rate
        # against the declared horizon T is far above alpha and the
        # check must say no.
        params = OdeParams(p=3.0, q=2.0, c=1.0, T=1.0, A0=1.0, B0=1.0)
        series = integrate_system(params, 0.99)
        report = verify_lemma_bounds(series, params)
        assert not report.passed
        assert report.alpha_fit > 10.0
