"""Blow-up time estimation and rate diagnostics on recorded trajectories.

The growth law being checked has the form y(t) = log C - s * log(T - t)
where y is a family-dependent transform of the boundary modulus:

    exp_power   y = M        s = alpha/2   (e^M ~ C (T-t)^{-alpha/2})
    power       y = log M    s = alpha/2   (M ~ C (T-t)^{-alpha/2})
    exp_linear  y = q M      s = 1/2       (e^{qM} ~ C (T-t)^{-1/2})

and symmetrically for the second field with beta. Given T the model is
linear in log C, so the fit is a bounded one-dimensional search over
log(T - t_stop) with the intercepts eliminated exactly. Both fields are
fitted simultaneously with a shared T. The search is a golden-section
search (Kiefer, 1953) down to 1e-12 in log(T - t_stop): 67 evaluations
of the sum of squares, a few milliseconds per fit.

The fitted T is not a law-free blow-up time: with the slopes fixed at
the law under test, T moves until the run follows that law. exp_power
p = q = 2, n = 2 at N = 201 and u_stop = 9 fits T 32 % after the t at
which the same run, stepped on, can no longer advance in float64.

The fit window is the largest suffix of the samples on which M strictly
increases, and it must span a growth of at least MIN_GROWTH in M. The
rate law is asymptotic; early transients would otherwise bias T toward
whatever flattens them.

The proven estimates are upper bounds. Rate products like
e^M (T-t)^{alpha/2} may therefore decay toward the blow-up time without
contradicting anything; only a rising trend is evidence against the
bound. rate_bound_check consequently fits a trend line to the rate
product over the last half decade of (T-t) and flags an increase beyond
tolerance, while any amount of decrease passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRadius, FitFailed
from .model import ProblemParams
from .solver import StopReason, Trajectory

MIN_WINDOW_SAMPLES = 20
MIN_GROWTH = 2.0
MIN_RATE_SAMPLES = 10
# below this many samples in the half-decade tail a trend is meaningless
MIN_TREND_SAMPLES = 3
HALF_DECADE = math.sqrt(10.0)
DEFAULT_RESIDUAL_MAX = 0.5
DEFAULT_RATE_TOL = 0.20


@dataclass(frozen=True)
class BlowupFit:
    """Result of estimate_blowup_time.

    c1_hat and c2_hat are the fitted prefactors of the u and v laws in
    the family transform above (for exp_linear, e.g., the prefactor of
    e^{qM}). residual is the RMS misfit of both fields on the window.
    """

    t_hat: float
    c1_hat: float
    c2_hat: float
    residual: float
    t_lo: float
    t_hi: float
    n_samples: int


@dataclass(frozen=True)
class RateBoundReport:
    rate_sup_u: float
    rate_sup_v: float
    trend_u: float
    trend_v: float
    tail_samples: int
    passed: bool


@dataclass(frozen=True)
class InteriorReport:
    """Boundary-only blow-up diagnostics at interior radius a.

    growth_u and growth_v are the relative increases of the interior
    suprema over the final decade of (t_hat - t), nan when that decade
    holds fewer than MIN_TREND_SAMPLES samples. envelope_u/v evaluate
    the comparison-function bound C (R^2 - a^2)^{-2m} when a prefactor
    was supplied, else carry nan. status is "pass", "fail", or
    "inconclusive" (run did not reach the blow-up threshold).
    """

    interior_sup_u: float
    interior_sup_v: float
    growth_u: float
    growth_v: float
    argmax_at_boundary: bool
    envelope_u: float
    envelope_v: float
    decade_samples: int
    status: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def tail_window(traj: Trajectory) -> int:
    """Index where the fit window starts.

    The window is the largest suffix over which M strictly increases.
    Raises FitFailed when it has fewer than MIN_WINDOW_SAMPLES samples
    or M grows by less than MIN_GROWTH across it.
    """
    M = traj.M
    i = len(M) - 1
    while i > 0 and M[i] > M[i - 1]:
        i -= 1
    n = len(M) - i
    if n < MIN_WINDOW_SAMPLES:
        raise FitFailed(
            f"monotone suffix has {n} samples, need {MIN_WINDOW_SAMPLES}"
        )
    growth = float(M[-1] - M[i])
    if growth < MIN_GROWTH:
        raise FitFailed(
            f"M grew by {growth:.3f} on the monotone suffix, need {MIN_GROWTH}"
        )
    return i


def _window(
    traj: Trajectory, params: ProblemParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t and the transformed moduli y_u, y_v on the fit window."""
    i0 = tail_window(traj)
    law = params.flux.transform
    return traj.t[i0:], law(traj.M[i0:], params.q), law(traj.Nmax[i0:], params.p)


def _minimize_bounded(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Golden-section search for a minimum of func on [lo, hi]; returns (x, fun).

    Keeps the side of the lower inner point, shrinking the bracket by 1/phi
    per evaluation to xatol or until float spacing stalls it; NaN is +inf.
    """

    def f(x: float) -> float:
        value = func(x)
        return math.inf if math.isnan(value) else value

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol and a < c < d < b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def estimate_blowup_time(
    traj: Trajectory,
    params: ProblemParams,
    residual_max: float = DEFAULT_RESIDUAL_MAX,
) -> BlowupFit:
    """Fit the family growth law for the blow-up time.

    Both fields are fitted simultaneously with a shared T. The returned
    t_hat always exceeds the stop time.

    Raises
    ------
    FitFailed
        If the run did not stop at the blow-up threshold, the fit
        window is unusable, or the RMS residual exceeds residual_max.
    """
    if traj.stop.reason is not StopReason.BLOWUP_THRESHOLD:
        raise FitFailed(
            f"run stopped on {traj.stop.reason.value}, not the blow-up threshold"
        )
    t, yu, yv = _window(traj, params)
    target_u, target_v = params.flux.rate_targets(params.p, params.q)
    su, sv = target_u / 2.0, target_v / 2.0
    t_stop = traj.stop.t_stop
    span = float(t[-1] - t[0])

    def sse(log_d: float) -> float:
        T = t_stop + math.exp(log_d)
        x = -np.log(T - t)
        ru = yu - su * x
        rv = yv - sv * x
        return float(
            np.sum((ru - ru.mean()) ** 2) + np.sum((rv - rv.mean()) ** 2)
        )

    # T in (t_stop, t_stop + 10 * span]; the lower end only pins the
    # bracket, the objective blows up as T -> t_stop because the final
    # sample sits at t_stop
    log_d, sse_min = _minimize_bounded(
        sse, math.log(span * 1e-12), math.log(10.0 * span), xatol=1e-12
    )
    t_hat = t_stop + math.exp(float(log_d))
    x = -np.log(t_hat - t)
    c1 = float(np.exp((yu - su * x).mean()))
    c2 = float(np.exp((yv - sv * x).mean()))
    residual = math.sqrt(float(sse_min) / (2 * len(t)))
    if residual > residual_max:
        raise FitFailed(
            f"RMS fit residual {residual:.3f} exceeds {residual_max}"
        )
    return BlowupFit(
        t_hat=t_hat,
        c1_hat=c1,
        c2_hat=c2,
        residual=residual,
        t_lo=float(t[0]),
        t_hi=float(t[-1]),
        n_samples=len(t),
    )


def slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x."""
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def tail_trend(
    gap: np.ndarray, log_pi_u: np.ndarray, log_pi_v: np.ndarray, span: float
) -> tuple[np.ndarray, float, float]:
    """Tail mask (gap within a factor span of the last) and the factor
    by which each log product's trend line against log gap changes
    across it; nan below MIN_TREND_SAMPLES tail samples."""
    tail = gap <= gap[-1] * span
    if int(tail.sum()) < MIN_TREND_SAMPLES:
        return tail, float("nan"), float("nan")
    lx = np.log(gap[tail])
    width = float(lx[-1] - lx[0])
    trend_u = math.exp(slope(lx, log_pi_u[tail]) * width)
    trend_v = math.exp(slope(lx, log_pi_v[tail]) * width)
    return tail, trend_u, trend_v


def fit_rate(
    traj: Trajectory, t_hat: float, params: ProblemParams
) -> tuple[float, float]:
    """Free-slope regression of the transformed moduli against -log(t_hat - t).

    Returns (alpha_hat, beta_hat), each twice the fitted slope. For the
    exponential-power and power families these estimate the rate
    exponents alpha and beta; for exp_linear the expected value of both
    is 1 (slope 1/2). The free slope is not bounded by these targets and
    lands on either side of them on real runs (power p = q = 2, n = 2,
    N = 201 gives 1.079 against 1); the one-sided test of the upper
    estimates is rate_bound_check.
    """
    t, yu, yv = _window(traj, params)
    usable = t < t_hat
    if int(usable.sum()) < MIN_RATE_SAMPLES:
        raise FitFailed(
            f"{int(usable.sum())} usable samples below t_hat, "
            f"need {MIN_RATE_SAMPLES}"
        )
    x = -np.log(t_hat - t[usable])
    return 2.0 * slope(x, yu[usable]), 2.0 * slope(x, yv[usable])


def rate_bound_check(
    traj: Trajectory,
    t_hat: float,
    alpha: float,
    beta: float,
    params: ProblemParams,
    tol: float = DEFAULT_RATE_TOL,
) -> RateBoundReport:
    """Upper rate estimate diagnostic.

    Computes the rate products exp(y_u) (t_hat - t)^{alpha/2} and
    exp(y_v) (t_hat - t)^{beta/2} over the fit window, where y is the
    family transform of params.flux. Reports
    their suprema and the trend-line change of each product across the
    last half decade of (t_hat - t). A field passes when its supremum
    is finite and the trend increase stays within tol; decreasing
    products are consistent with an upper estimate and always pass.

    Diagnostic only: never raises on bad data, the flags carry the
    verdict. With fewer than MIN_TREND_SAMPLES tail samples the trends
    are nan and the check fails.
    """
    t, yu, yv = _window(traj, params)
    gap = t_hat - t
    log_pi_u = yu + 0.5 * alpha * np.log(gap)
    log_pi_v = yv + 0.5 * beta * np.log(gap)
    sup_u = float(np.exp(log_pi_u).max())
    sup_v = float(np.exp(log_pi_v).max())

    tail, trend_u, trend_v = tail_trend(gap, log_pi_u, log_pi_v, HALF_DECADE)

    def ok(sup: float, trend: float) -> bool:
        return bool(np.isfinite(sup) and np.isfinite(trend) and trend <= 1.0 + tol)

    return RateBoundReport(
        rate_sup_u=sup_u,
        rate_sup_v=sup_v,
        trend_u=trend_u,
        trend_v=trend_v,
        tail_samples=int(tail.sum()),
        passed=ok(sup_u, trend_u) and ok(sup_v, trend_v),
    )


def boundary_set_check(
    traj: Trajectory,
    params: ProblemParams,
    a: float,
    t_hat: float | None = None,
    c1_hat: float | None = None,
    c2_hat: float | None = None,
) -> InteriorReport:
    """Check that growth concentrates at the boundary.

    The interior suprema over r <= a are the sup_*_interior columns the
    run recorded, so a must be the run's SolverConfig.interior_radius
    (R/2 where a hand-built trajectory's config leaves it unset).
    Passes when they rise by less than 5% across the final decade of
    (t_hat - t) while the run ended at the blow-up threshold, and the
    maxima of both fields sit at the boundary node in every recorded
    sample after the first. The first is the initial data, which
    validate_initial_data accepts only with their maximum at r = R,
    though several nodes may tie for it there. The final decade must
    hold at least MIN_TREND_SAMPLES samples, or the check fails with
    nan growths. A run stopped for any other reason is inconclusive:
    interior bounds then hold trivially.

    The comparison-function envelopes C (R^2 - a^2)^{-2m} with m half the
    family's rate target for u resp. v (alpha/2 and beta/2; 1/2 for
    exp_linear, see FluxFamily.rate_targets) are evaluated for whichever
    prefactors are supplied. They are reported, not gated on.
    """
    recorded = traj.config.for_problem(params).interior_radius
    if abs(a - recorded) > 1e-12 * params.R:
        raise BadRadius(
            f"the run recorded the interior suprema at a = {recorded}, got {a}"
        )
    su, sv, t = traj.sup_u_interior, traj.sup_v_interior, traj.t
    # row 0, the initial data, may tie and np.argmax breaks ties toward r = 0
    stepped = np.r_[traj.argmax_u[1:], traj.argmax_v[1:]] == traj.config.N - 1
    argmax_ok = bool(stepped.all())

    envelope_u = envelope_v = float("nan")
    target_u, target_v = params.flux.rate_targets(params.p, params.q)
    shrink = (params.R**2 - a**2) ** -2.0
    if c1_hat is not None:
        envelope_u = c1_hat * shrink ** (target_u / 2.0)
    if c2_hat is not None:
        envelope_v = c2_hat * shrink ** (target_v / 2.0)

    growth_u = growth_v = float("nan")
    decade_samples = 0
    status = "inconclusive"
    if traj.stop.reason is StopReason.BLOWUP_THRESHOLD and t_hat is not None:
        decade = (t_hat - t) <= 10.0 * (t_hat - traj.stop.t_stop)
        decade_samples = int(decade.sum())
        # one sample shows growth 0 by construction, so below the floor
        # the growths stay nan, like the rate trends
        if decade_samples < MIN_TREND_SAMPLES:
            status = (
                f"fail: {decade_samples} samples in the final decade of "
                f"t_hat - t, need {MIN_TREND_SAMPLES}"
            )
        else:
            du, dv = su[decade], sv[decade]
            growth_u = float(du[-1] / du[0] - 1.0)
            growth_v = float(dv[-1] / dv[0] - 1.0)
            passed = growth_u < 0.05 and growth_v < 0.05 and argmax_ok
            status = "pass" if passed else "fail"
    return InteriorReport(
        interior_sup_u=float(su.max()),
        interior_sup_v=float(sv.max()),
        growth_u=growth_u,
        growth_v=growth_v,
        argmax_at_boundary=argmax_ok,
        envelope_u=envelope_u,
        envelope_v=envelope_v,
        decade_samples=decade_samples,
        status=status,
    )
