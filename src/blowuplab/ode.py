"""Extremal ODE system behind the boundary growth estimates.

The a priori bounds for the coupled boundary problem reduce to a pair of
differential inequalities for increasing positive scalars,

    A'(t) >= c B(t)^p / sqrt(T - t),
    B'(t) >= c A(t)^q / sqrt(T - t),

with A, B diverging as t -> T.  This module integrates the EQUALITY
system, the extremal case of the inequalities: any admissible pair grows
at least this fast, so rate bounds checked on equality orbits are the
sharpest the comparison argument can deliver.

The equality system has exact self-similar solutions

    A(t) = C_A (T - t)^{-alpha/2},   B(t) = C_B (T - t)^{-beta/2},

with alpha = (p+1)/(pq-1) and beta = (q+1)/(pq-1).  The ansatz closes
because p beta = alpha + 1 and q alpha = beta + 1, and the amplitudes
solve (alpha/2) C_A = c C_B^p together with (beta/2) C_B = c C_A^q.
These orbits are machine-checkable ground truth for the integrator and
for the exponent fits.

In the similarity variables x = log(A (g/g0)^{alpha/2}) and
y = log(B (g/g0)^{beta/2}), with g = T - t, g0 = T - t0 and the clock
s = log(g0/g), the system is autonomous and of order one for any T:

    x' = -alpha/2 + c' e^{p y - x},   y' = -beta/2 + c' e^{q x - y},

c' = c sqrt(g0). Its fixed point, the self-similar orbit, is a saddle:
data above the orbit blows up strictly BEFORE T, data below stays
below forever (the system is cooperative, hence order preserving).
Runs that probe the (T-t)^{-alpha/2} rate must therefore start on the
orbit itself; integrate_system, which steps (x, y) in s, is indifferent
to where it starts and keeps an orbit run at the fixed point to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analysis import slope, tail_trend
from .errors import FitFailed, ParamsTooStiff
from .model import rate_exponents

# Divergence proxy: a run is treated as blowing up once A or B passes
# this cap. 1e12 leaves six orders of headroom before B^p or A^q would
# overflow for any exponent up to ~25.
DIVERGENCE_CAP = 1e12

# Data above the self-similar orbit blows up at some t* < T, often within
# a few ulps of the cap crossing, so the step size underflows before the
# crossing. A deepest resolved state within this factor of the cap is the
# cap halt for all practical purposes and is reported as one.
CAP_MARGIN = 1e-2

# verify_lemma_bounds demands growth by this factor before it trusts a
# series as "diverging"; the lemma hypothesis is divergence, and a
# series that merely doubled says nothing about the terminal rate.
DIVERGENCE_FACTOR = 100.0

MIN_SERIES_SAMPLES = 10
TAIL_DECADE = 10.0
# verify_lemma_bounds' limits on fit / target and on the tail trend's rise
RATE_SLACK = 1.05
TREND_TOL = 0.10

# local error allowed per step in log a plus log b
TOL = 1e-14


@dataclass(frozen=True)
class OdeParams:
    """Coefficients and initial state for the equality system."""

    p: float
    q: float
    c: float
    T: float
    A0: float
    B0: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} = {value} must be finite")
        rate_exponents(self.p, self.q)  # pq > 1 or DegenerateExponents
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"exponents p = {self.p}, q = {self.q} must be positive")
        if self.c <= 0:
            raise ValueError(f"coupling c = {self.c} must be positive")
        if not 0.0 <= self.t0 < self.T:
            raise ValueError(f"need 0 <= t0 < T, got t0 = {self.t0}, T = {self.T}")
        if self.A0 <= 0 or self.B0 <= 0:
            raise ValueError(f"initial values A0 = {self.A0}, B0 = {self.B0} must be positive")

    @property
    def exponents(self) -> tuple[float, float]:
        return rate_exponents(self.p, self.q)


@dataclass(frozen=True)
class OdeSeries:
    """Sampled solution of the equality system.

    Samples are geometric in the horizon gap T - t, so a power law in
    the gap appears as an arithmetic progression. capped is True when
    integration stopped on the divergence cap rather than at the
    requested end time; the crossing itself is the final sample then.
    """

    t: np.ndarray
    A: np.ndarray
    B: np.ndarray
    capped: bool

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of the terminal rate check on one series.

    c_a and c_b are the measured suprema of A (T-t)^{alpha/2} and
    B (T-t)^{beta/2} over the final decade of the gap, the empirical
    constants in the bounds A <= C (T-t)^{-alpha/2}. The trends are the fitted change of
    those products across that decade; only an increase past TREND_TOL
    counts against the bound, a decrease supports it.
    """

    alpha_fit: float
    beta_fit: float
    c_a: float
    c_b: float
    trend_a: float
    trend_b: float
    tail_samples: int
    passed: bool


def self_similar_constants(p: float, q: float, c: float) -> tuple[float, float]:
    """Amplitudes (C_A, C_B) of the exact self-similar solution.

    Solves (alpha/2) C_A = c C_B^p and (beta/2) C_B = c C_A^q in closed
    form: eliminating C_A leaves a pure power equation for C_B because
    the exponents satisfy q alpha = beta + 1.
    """
    alpha, beta = rate_exponents(p, q)
    if c <= 0:
        raise ValueError(f"coupling c = {c} must be positive")
    log_cb = (math.log(beta / (2.0 * c)) + q * math.log(alpha / (2.0 * c))) / (p * q - 1.0)
    cb = math.exp(log_cb)
    ca = (2.0 * c / alpha) * cb**p
    return ca, cb


def integrate_system(
    params: OdeParams, t_stop_frac: float, n_samples: int = 200
) -> OdeSeries:
    """Integrate the equality system from t0 toward the horizon.

    Integration runs to t0 + t_stop_frac (T - t0) or until A or B
    crosses DIVERGENCE_CAP, whichever comes first. Sampling is
    geometric in T - t between the endpoints, and the integrator steps
    exactly onto every sample: classical RK4 with step doubling on the
    similarity variables (module docstring). The step that crosses the
    cap is bisected, and the last state below the cap ends the series.

    Raises ParamsTooStiff when the cap is crossed before ten samples
    exist: such a run says nothing about the approach to T, only that
    the data was far above the self-similar orbit.
    """
    if not 0.0 < t_stop_frac < 1.0:
        raise ValueError(f"t_stop_frac = {t_stop_frac} must lie in (0, 1)")
    if n_samples < MIN_SERIES_SAMPLES:
        raise ValueError(f"n_samples = {n_samples}, need at least {MIN_SERIES_SAMPLES}")
    if max(params.A0, params.B0) >= DIVERGENCE_CAP:
        raise ParamsTooStiff(
            f"initial values already at the divergence cap {DIVERGENCE_CAP:g}"
        )

    p, q, T = params.p, params.q, params.T
    gap0 = T - params.t0
    gap_end = gap0 * (1.0 - t_stop_frac)
    if T - gap_end == T:
        raise ValueError(f"t_stop_frac = {t_stop_frac} leaves an end gap (T - t0)"
                         f"(1 - t_stop_frac) = {gap_end:g} that rounds to 0 at T = {T:g}")
    t_eval = T - np.geomspace(gap0, gap_end, n_samples)
    t_eval[0] = params.t0  # geomspace endpoint roundoff
    s_eval = (-np.log((T - t_eval) / gap0)).tolist()
    ha, hb = 0.5 * params.exponents[0], 0.5 * params.exponents[1]
    c = params.c * math.sqrt(gap0)
    log_cap = math.log(DIVERGENCE_CAP)

    def rhs(x: float, y: float) -> tuple[float, float]:
        return -ha + c * math.exp(p * y - x), -hb + c * math.exp(q * x - y)

    def rk4(x: float, y: float, h: float) -> tuple[float, float]:
        k1x, k1y = rhs(x, y)
        k2x, k2y = rhs(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
        k3x, k3y = rhs(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
        k4x, k4y = rhs(x + h * k3x, y + h * k3y)
        return (x + h / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x),
                y + h / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y))

    s, x, y = 0.0, math.log(params.A0), math.log(params.B0)  # s_eval[0] = 0
    samples = [(s, x, y)]
    h, capped = math.inf, False
    for s_next in s_eval[1:]:
        while s < s_next:
            h_try = min(h, s_next - s)
            if s + h_try == s:
                # underflow at the bisected cap crossing or a singularity t* < T
                if max(x + ha * s, y + hb * s) < log_cap + math.log(CAP_MARGIN):
                    raise ParamsTooStiff("integration failed: Required step size "
                                         "is less than spacing between numbers.")
                capped = True
                break
            # two half steps, and one full step for their error; a trial
            # step past the range of exp or of floats has an inf or NaN error
            try:
                x1, y1 = rk4(x, y, h_try)
                x2, y2 = rk4(*rk4(x, y, 0.5 * h_try), 0.5 * h_try)
                err = (abs(x2 - x1) + abs(y2 - y1)) / 15.0
            except OverflowError:
                err = math.inf
            s1 = s_next if h_try == s_next - s else s + h_try
            if err <= TOL and max(x2 + ha * s1, y2 + hb * s1) < log_cap:
                s, x, y = s1, x2, y2
                h = h_try * (min(5.0, 0.9 * (TOL / err) ** 0.2) if err else 5.0)
            else:
                # too large an error, or a step across the cap: halving
                # the step each time it crosses bisects toward the crossing
                h = 0.5 * h_try
        if capped:
            break
        samples.append((s, x, y))
    t = t_eval[: len(samples)]
    t_cap = T - gap0 * math.exp(-s)
    if capped and t_cap > t[-1]:
        # the stored time rounds the gap to an ulp of T, a relative
        # ulp(T) / gap; grow A and B to that gap as the samples do
        t = np.append(t, t_cap)
        samples.append((-math.log((T - t_cap) / gap0), x, y))
    if capped and int(t.size) < MIN_SERIES_SAMPLES:
        raise ParamsTooStiff(
            f"divergence cap reached after {t.size} of {n_samples} samples; "
            f"shrink t_stop_frac or start closer to the self-similar orbit"
        )
    s, x, y = np.array(samples).T
    return OdeSeries(t=t, A=np.exp(x + ha * s), B=np.exp(y + hb * s), capped=capped)


def verify_lemma_bounds(series: OdeSeries, params: OdeParams) -> LemmaReport:
    """Check the terminal rate bounds on an integrated series.

    Fits log A and log B against -log(T - t) over the whole series;
    alpha_fit and beta_fit are twice the slopes. The claimed bounds are
    upper estimates, so the check passes when alpha_fit stays within
    RATE_SLACK of alpha, the scaled products A (T-t)^{alpha/2} have a
    finite supremum over the final decade of the gap, and their trend
    across that decade does not rise past TREND_TOL. Symmetrically for
    B with beta.

    Raises FitFailed on a series too short to fit or one that never
    grew by DIVERGENCE_FACTOR; divergence is a hypothesis of the bound,
    not a conclusion the fit could supply.
    """
    n = len(series)
    if n < MIN_SERIES_SAMPLES:
        raise FitFailed(f"series has {n} samples, need {MIN_SERIES_SAMPLES} for a rate fit")
    start = max(params.A0, params.B0)
    growth = max(series.A[-1], series.B[-1]) / start
    if growth < DIVERGENCE_FACTOR:
        raise FitFailed(
            f"series grew by {growth:.3g}, need {DIVERGENCE_FACTOR:g} "
            f"to stand in for divergence"
        )

    alpha, beta = params.exponents
    gap = params.T - series.t
    x = -np.log(gap)
    log_a = np.log(series.A)
    log_b = np.log(series.B)
    alpha_fit = 2.0 * slope(x, log_a)
    beta_fit = 2.0 * slope(x, log_b)

    log_pi_a = log_a + 0.5 * alpha * np.log(gap)
    log_pi_b = log_b + 0.5 * beta * np.log(gap)
    tail, trend_a, trend_b = tail_trend(gap, log_pi_a, log_pi_b, TAIL_DECADE)
    c_a = float(np.exp(log_pi_a[tail]).max())
    c_b = float(np.exp(log_pi_b[tail]).max())

    def ok(fit: float, target: float, sup: float, trend: float) -> bool:
        return bool(
            fit <= target * RATE_SLACK
            and np.isfinite(sup)
            and np.isfinite(trend)
            and trend <= 1.0 + TREND_TOL
        )

    return LemmaReport(
        alpha_fit=alpha_fit,
        beta_fit=beta_fit,
        c_a=c_a,
        c_b=c_b,
        trend_a=trend_a,
        trend_b=trend_b,
        tail_samples=int(tail.sum()),
        passed=ok(alpha_fit, alpha, c_a, trend_a) and ok(beta_fit, beta, c_b, trend_b),
    )
