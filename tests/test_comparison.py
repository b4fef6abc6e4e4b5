"""Tests for the interior comparison function and dominance sweep."""

import math
import tracemalloc

import numpy as np
import pytest

from blowuplab.analysis import estimate_blowup_time, rate_bound_check
from blowuplab.comparison import (
    C1_HEADROOM,
    ComparisonParams,
    boundary_weight,
    c2_min,
    comparison_value,
    dominance_check,
    interior_bound,
    supersolution_residual,
    weight_laplacian,
)
from blowuplab.errors import BadRadius, BadTime, ConfigError, DominanceViolated
from blowuplab.model import (
    FieldState,
    FluxFamily,
    ProblemParams,
    QuadraticRadial,
    make_grid,
    rate_exponents,
)
from blowuplab.solver import SolverConfig, run


def params_for(n=2, R=1.0, m=1.0, C2=None, C1=1.0, T=1.0):
    if C2 is None:
        C2 = c2_min(n, R, m)
    return ComparisonParams(C1=C1, C2=C2, m=m, T=T, R=R, n=n)


def fd_residual(r, t, params, dr=1e-5, dt=1e-7):
    """Finite-difference z_t - Delta z, independent of the closed form."""

    def z(rr, tt):
        return comparison_value(rr, tt, params)

    zt = (z(r, t + dt) - z(r, t - dt)) / (2 * dt)
    zrr = (z(r + dr, t) - 2 * z(r, t) + z(r - dr, t)) / dr**2
    if r > 0:
        zr = (z(r + dr, t) - z(r - dr, t)) / (2 * dr)
        lap = zrr + (params.n - 1) * zr / r
    else:
        lap = params.n * zrr
    return zt - lap


def negative_somewhere(n, R, m, C2):
    """Fine-grid sign scan biased toward the boundary corner r -> R, t -> T."""
    params = ComparisonParams(C1=1.0, C2=C2, m=m, T=1.0, R=R, n=n)
    r = np.unique(
        np.concatenate([np.linspace(0.0, R, 1001), R - np.geomspace(1e-9, R / 2, 400)])
    )
    tau = np.geomspace(1e-13, 1.0, 300)
    res = supersolution_residual(r[None, :], 1.0 - tau[:, None], params)
    return bool(res.min() < 0)


class TestC2Min:
    def test_reference_values(self):
        assert c2_min(2, 1.0, 1.0) == 41.0
        assert c2_min(3, 1.0, 0.5) == 37.0

    def test_domain(self):
        for bad in [(0, 1.0, 1.0), (2, 0.0, 1.0), (2, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                c2_min(*bad)


class TestComparisonParams:
    def test_field_validation(self):
        good = dict(C1=1.0, C2=41.0, m=1.0, T=1.0, R=1.0, n=2)
        for bad in (
            dict(C1=0.0),
            dict(C2=-1.0),
            dict(m=0.0),
            dict(T=0.0),
            dict(R=-1.0),
            dict(n=4),
        ):
            with pytest.raises(ValueError):
                ComparisonParams(**{**good, **bad})

    @pytest.mark.parametrize("field", ["C1", "C2", "m", "T", "R"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_are_refused(self, field, value):
        good = dict(C1=1.0, C2=41.0, m=1.0, T=1.0, R=1.0, n=2)
        with pytest.raises(ValueError, match=f"^{field} = {value} must be finite$"):
            ComparisonParams(**{**good, field: value})

    def test_supersolution_flag(self):
        assert params_for(2, 1.0, 1.0).is_supersolution
        assert params_for(2, 1.0, 1.0, C2=50.0).is_supersolution
        assert not params_for(2, 1.0, 1.0, C2=39.0).is_supersolution


class TestComparisonValue:
    def test_direct_substitution(self):
        params = params_for(2, 1.0, 1.0, C2=41.0, T=2.0)
        assert comparison_value(0.0, 1.0, params) == 1.0 / 42.0

    def test_boundary_value_formula(self):
        params = params_for(2, 1.0, 1.0, C1=3.0)
        z = comparison_value(1.0, 0.75, params)
        assert np.isclose(z, 3.0 / (41.0 * 0.25), rtol=1e-15)

    def test_finite_interior_limit(self):
        params = params_for(3, 1.2, 0.7, C1=2.0)
        z = comparison_value(0.0, params.T - 1e-13, params)
        assert np.isclose(z, 2.0 / 1.2 ** (4 * 0.7), rtol=1e-10)

    def test_monotone_in_radius_and_time(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            R = rng.uniform(0.5, 2.0)
            m = rng.uniform(0.2, 2.0)
            params = params_for(n, R, m, C1=rng.uniform(0.5, 4.0))
            r = np.linspace(0.0, R, 101)
            t = rng.uniform(0.0, 0.99)
            z = comparison_value(r, t, params)
            assert np.all(np.diff(z) > 0)
            times = np.linspace(0.0, 0.999, 73)
            z_t = comparison_value(rng.uniform(0.0, R), times, params)
            assert np.all(np.diff(z_t) > 0)

    def test_domain_errors(self):
        params = params_for()
        with pytest.raises(BadRadius):
            comparison_value(-0.1, 0.5, params)
        with pytest.raises(BadRadius):
            comparison_value(1.5, 0.5, params)
        with pytest.raises(BadTime):
            comparison_value(0.5, 1.0, params)
        with pytest.raises(BadTime):
            comparison_value(0.5, -0.1, params)

    def test_broadcasting(self):
        params = params_for()
        r = np.linspace(0.0, 1.0, 7)
        t = np.linspace(0.0, 0.9, 5)
        z = comparison_value(r[None, :], t[:, None], params)
        assert z.shape == (5, 7)


class TestSupersolutionResidual:
    def test_weight_laplacian_at_center(self):
        # Delta h(0) = -4 n R^2 exactly
        for n, R in [(1, 1.0), (2, 1.0), (3, 1.0), (2, 1.5), (3, 0.7)]:
            assert weight_laplacian(0.0, R, n) == -4.0 * n * R * R
        assert weight_laplacian(1.0, 1.0, 3) == 8.0
        assert boundary_weight(1.0, 1.0) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            R = rng.uniform(0.5, 2.0)
            m = rng.uniform(0.2, 2.0)
            T = rng.uniform(0.5, 2.0)
            params = ComparisonParams(
                C1=rng.uniform(0.5, 5.0),
                C2=c2_min(n, R, m) * rng.uniform(0.3, 3.0),
                m=m, T=T, R=R, n=n,
            )
            r = float(rng.uniform(0.0, 0.95 * R))
            t = float(rng.uniform(0.1 * T, 0.9 * T))
            a = supersolution_residual(r, t, params)
            f = fd_residual(r, t, params)
            assert abs(a - f) <= 1e-4 * max(abs(a), abs(f))

    def test_nonnegative_at_certified_constant(self):
        for n, R, m in [(2, 1.0, 1.0), (3, 1.0, 0.5), (1, 0.7, 1.3)]:
            params = params_for(n, R, m)
            r = np.linspace(0.0, R, 201)
            t = params.T - np.geomspace(1e-10, params.T, 160)
            res = supersolution_residual(r[None, :], t[:, None], params)
            assert res.min() > 0

    def test_nonnegative_above_certified_constant(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            R = rng.uniform(0.4, 1.8)
            m = rng.uniform(0.2, 2.5)
            params = params_for(n, R, m, C2=c2_min(n, R, m) * rng.uniform(1.0, 4.0))
            r = np.linspace(0.0, R, 41)
            t = params.T - np.geomspace(1e-8, params.T, 17)
            res = supersolution_residual(r[None, :], t[:, None], params)
            assert res.min() >= 0

    def test_c2_min_has_slack(self):
        # c2_min - 2 stays nonnegative: the chained bound is not tight.
        # Grid minima frozen from the fine-grid scan oracle.
        for (n, R, m, expected) in [
            (2, 1.0, 1.0, 1.937500e-02),
            (3, 1.0, 0.5, 5.324074e-02),
        ]:
            params = params_for(n, R, m, C2=c2_min(n, R, m) - 2.0)
            r = np.linspace(0.0, R, 2001)
            t = 1.0 - np.logspace(-12, 0, 400)
            res = supersolution_residual(r[None, :], t[:, None], params)
            assert res.min() > 0
            assert np.isclose(res.min(), expected, rtol=1e-6)

    def test_sign_flips_below_true_threshold(self):
        # The scan oracle puts the flip at R^2 max(4n, 16m+8): the -4nR^2
        # branch surfaces at the center, the 16m+8 branch in the corner
        # where h -> 0 and t -> T together.
        for n, R, m in [(2, 1.0, 1.0), (3, 1.0, 0.5), (3, 1.0, 0.2)]:
            threshold = R**2 * max(4.0 * n, 16.0 * m + 8.0)
            assert negative_somewhere(n, R, m, 0.97 * threshold)
            assert not negative_somewhere(n, R, m, threshold + 0.5)

    def test_near_violation_at_center(self):
        # C2 = 11 < 4nR^2 = 12: the bracket at r = 0 is D (C2 - 12) < 0
        # for every t, residual = -m (1 + 11 tau)^{-m-1} with C1 = 1.
        params = ComparisonParams(C1=1.0, C2=11.0, m=0.2, T=1.0, R=1.0, n=3)
        res = supersolution_residual(0.0, 1.0 - 1e-6, params)
        assert res < 0
        assert np.isclose(res, -0.2 * (1.0 + 11e-6) ** -1.2, rtol=1e-12)
        assert supersolution_residual(0.0, 0.5, params) < 0

    def test_boundary_edge_value(self):
        params = params_for(2, 1.0, 1.0, C1=2.0)
        tau = 1e-3
        res = supersolution_residual(1.0, 1.0 - tau, params)
        expected = 1.0 * 2.0 * (41.0 * tau) ** -2.0 * (41.0 + 8.0)
        assert np.isclose(res, expected, rtol=1e-12)


class TestInteriorBound:
    def test_closed_form_and_uniformity(self):
        params = params_for(2, 1.0, 0.5, C1=3.0)
        a = 0.8
        bound = interior_bound(a, params)
        assert np.isclose(bound, 3.0 * (1.0 - 0.64) ** -1.0, rtol=1e-15)
        r = np.linspace(0.0, a, 101)
        t = params.T - np.geomspace(1e-12, params.T, 80)
        z = comparison_value(r[None, :], t[:, None], params)
        assert np.all(z <= bound)
        assert np.isclose(z.max(), bound, rtol=1e-8)

    def test_domain(self):
        params = params_for()
        with pytest.raises(BadRadius):
            interior_bound(1.0, params)
        with pytest.raises(BadRadius):
            interior_bound(-0.2, params)


@pytest.fixture(scope="module")
def dominated_run():
    """Reference blow-up run with its fitted horizon and rate suprema."""
    params = ProblemParams(
        p=2.0, q=2.0, R=1.0, n=2,
        flux=FluxFamily.EXP_POWER,
        initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
    )
    config = SolverConfig(
        N=201, cfl=0.4, growth_cap=0.1, u_stop=9.0,
        record_every=2, state_every=1,
    )
    traj = run(params, config)
    fit = estimate_blowup_time(traj, params)
    alpha, beta = rate_exponents(params.p, params.q)
    rates = rate_bound_check(traj, fit.t_hat, alpha, beta, params=params)
    r = make_grid(params.R, config.N).r
    comp = ComparisonParams(
        C1=1.0, C2=c2_min(2, 1.0, 0.5), m=0.5, T=fit.t_hat, R=1.0, n=2,
    )
    return traj, fit, rates, r, comp


class TestDominanceCheck:
    def test_reference_run_dominated(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        report = dominance_check(traj.states, r, comp, rate_sup=rates.rate_sup_u)
        assert report.margin > 0
        assert report.c1 >= rates.rate_sup_u * comp.C2**comp.m
        assert report.states_checked == len(traj.states)
        assert 0.0 <= report.r_at_min <= 1.0
        assert 0.0 <= report.t_at_min <= traj.t[-1]

    def test_v_field_dominated(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        report = dominance_check(
            traj.states, r, comp, rate_sup=rates.rate_sup_v, field="v"
        )
        assert report.margin > 0

    def test_margin_monotone_in_amplitude(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        one = dominance_check(traj.states, r, comp, rate_sup=rates.rate_sup_u)
        ten = dominance_check(
            traj.states, r, comp, rate_sup=rates.rate_sup_u, c1_scale=10.0
        )
        assert ten.c1 == pytest.approx(10.0 * one.c1)
        assert ten.margin > one.margin
        assert ten.margin > 5.0 * one.margin

    def test_zero_amplitude_violates(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        with pytest.raises(DominanceViolated):
            dominance_check(
                traj.states, r, comp, rate_sup=rates.rate_sup_u, c1_scale=0.0
            )

    def test_rejects_non_supersolution_constant(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        weak = ComparisonParams(C1=1.0, C2=10.0, m=0.5, T=comp.T, R=1.0, n=2)
        with pytest.raises(ConfigError, match="c2_min"):
            dominance_check(traj.states, r, weak, rate_sup=rates.rate_sup_u)

    def test_state_beyond_horizon(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        early = ComparisonParams(
            C1=1.0, C2=comp.C2, m=0.5, T=0.5 * traj.t[-1], R=1.0, n=2
        )
        with pytest.raises(BadTime):
            dominance_check(traj.states, r, early, rate_sup=rates.rate_sup_u)

    def test_argument_validation(self, dominated_run):
        traj, fit, rates, r, comp = dominated_run
        with pytest.raises(ValueError, match="field"):
            dominance_check(traj.states, r, comp, rate_sup=1.0, field="w")
        with pytest.raises(ValueError, match="no states"):
            dominance_check((), r, comp, rate_sup=1.0)
        with pytest.raises(ValueError, match="nodes"):
            dominance_check(traj.states, r[:-1], comp, rate_sup=1.0)
        # NaN fails every comparison, so a sign test alone lets it through
        for rate_sup, c1_scale, name in (
            (-1.0, 1.0, "rate_sup"), (math.nan, 1.0, "rate_sup"),
            (math.inf, 1.0, "rate_sup"),
            (1.0, math.nan, "c1_scale"), (1.0, math.inf, "c1_scale"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
                dominance_check(traj.states, r, comp, rate_sup, c1_scale)

    def test_initial_data_term_touches(self):
        # With rate_sup = 0 the selection covers the initial state with
        # only the 1e-9 headroom above the touching node.
        r = np.linspace(0.0, 1.0, 11)
        states = (
            FieldState(t=0.0, u=np.full(11, 0.1), v=np.full(11, 0.1)),
            FieldState(t=0.001, u=np.full(11, 0.1), v=np.full(11, 0.1)),
        )
        comp = ComparisonParams(C1=1.0, C2=41.0, m=1.0, T=0.01, R=1.0, n=2)
        report = dominance_check(states, r, comp, rate_sup=0.0)
        assert 0.0 <= report.margin < 1e-8

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0 + 1e-6), (-0.1, 1.0)])
    def test_nodes_outside_the_ball_are_refused(self, lo, hi):
        # h is no depth off [0, R]: the selection and the scan would
        # check z where it is not a supersolution
        r = np.linspace(lo, hi, 41)
        states = (FieldState(t=0.0, u=np.full(41, 0.1), v=np.full(41, 0.1)),)
        comp = ComparisonParams(C1=1.0, C2=41.0, m=1.0, T=0.01, R=1.0, n=2)
        with pytest.raises(BadRadius, match=r"^r must lie in \[0, 1.0\]$"):
            dominance_check(states, r, comp, rate_sup=0.0)


# 2,000 states of 401 nodes: one field stacked is 6.4 MB
SCAN_K, SCAN_N = 2000, 401
SCAN_COMP = ComparisonParams(C1=1.0, C2=c2_min(2, 1.0, 0.5), m=0.5, T=1.0, R=1.0, n=2)
SCAN_RATE_SUP = 2.0
# name -> the (state, node) that one argmin over the stack picks, and
# the states: u = fill (default 0) everywhere except at touch (u = z,
# gap 0), inf (u = +inf, gap -inf) and nan (gap nan)
SCAN_CASES = {
    "tie_across_nodes": ((700, 50), dict(touch=[(700, 300), (700, 50)])),
    "tie_across_states": ((700, 300), dict(touch=[(1500, 10), (700, 300)])),
    "all_inf_gap": ((0, 0), dict(fill=-math.inf)),
    "nan_beats_the_minimum": (
        (900, 2), dict(touch=[(700, 50)], nan=[(1200, 3), (900, 7), (900, 2)])
    ),
    "violation_tie": ((600, 390), dict(inf=[(800, 100), (600, 390), (600, 395)])),
}


def scan_states(touch=(), inf=(), nan=(), fill=0.0):
    """SCAN_K states at increasing t whose u rows share one array
    unless a case edits them, and the nodes r."""
    r = np.linspace(0.0, 1.0, SCAN_N)
    times = np.linspace(0.0, 0.9, SCAN_K)
    comp = SCAN_COMP
    # c1 comes from the boundary term: state 0 stays at fill <= 0
    c1 = 1.0 * (SCAN_RATE_SUP * comp.C2**comp.m) * C1_HEADROOM
    h = boundary_weight(r, comp.R)
    base = np.full(SCAN_N, fill)
    rows = {}

    def edit(k, i, value):
        rows.setdefault(k, base.copy())[i] = value

    for k, i in touch:
        # z by the scan's own row expression, so z - u is exactly 0
        edit(k, i, (c1 * (h + comp.C2 * (comp.T - times[k])) ** (-comp.m))[i])
    for k, i in inf:
        edit(k, i, math.inf)
    for k, i in nan:
        edit(k, i, math.nan)
    states = tuple(
        FieldState(t=float(t), u=rows.get(k, base), v=base)
        for k, t in enumerate(times)
    )
    return states, r


def stacked_reference(states, r, comp, rate_sup):
    """C1, margin, r and t of the minimum by one argmin over the stack."""
    values = np.stack([s.u for s in states])
    times = np.array([s.t for s in states])
    h = boundary_weight(r, comp.R)
    initial = float((values[0] * (h + comp.C2 * comp.T) ** comp.m).max())
    c1 = 1.0 * max(rate_sup * comp.C2**comp.m, initial) * C1_HEADROOM
    depth = h[None, :] + comp.C2 * (comp.T - times)[:, None]
    gap = c1 * depth ** (-comp.m) - values
    k, i = divmod(int(np.argmin(gap)), r.size)
    return (k, i), (c1, float(gap[k, i]), float(r[i]), float(times[k]))


class TestDominanceScan:
    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_matches_the_stacked_argmin_in_o_n_memory(self, case):
        expect, edits = SCAN_CASES[case]
        states, r = scan_states(**edits)
        where, want = stacked_reference(states, r, SCAN_COMP, SCAN_RATE_SUP)
        assert where == expect
        c1, margin, r_min, t_min = want
        tracemalloc.start()
        try:
            if margin < 0:
                with pytest.raises(DominanceViolated) as exc:
                    dominance_check(states, r, SCAN_COMP, SCAN_RATE_SUP)
            else:
                report = dominance_check(states, r, SCAN_COMP, SCAN_RATE_SUP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the stacked gaps alone would take 6.4 MB
        assert peak < 1_000_000
        if margin < 0:
            assert str(exc.value) == (
                f"z - u reaches {margin:.6e} at r = {r_min:.6g}, "
                f"t = {t_min:.6g} with C1 = {c1:.6g}"
            )
        else:
            got = (report.c1, report.margin, report.r_at_min, report.t_at_min)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert report.states_checked == SCAN_K
