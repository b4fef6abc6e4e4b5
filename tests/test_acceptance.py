"""End-to-end acceptance checklist: ten numbered criteria.

Each criterion prints one verdict line directly to the terminal
(bypassing pytest capture) so the suite log always carries the full
checklist, then asserts. The heavy reference experiment and its N=801
refinement are shared at module scope.
"""

import math

import numpy as np
import pytest

from blowuplab.analysis import (
    boundary_set_check,
    estimate_blowup_time,
    fit_rate,
    rate_bound_check,
)
from blowuplab.cli import run_experiment
from blowuplab.comparison import (
    ComparisonParams,
    c2_min,
    dominance_check,
    supersolution_residual,
    weight_laplacian,
)
from blowuplab.config import parse_config
from blowuplab.model import (
    FluxFamily,
    ProblemParams,
    QuadraticRadial,
    make_grid,
    rate_exponents,
)
from blowuplab.ode import OdeParams, integrate_system, verify_lemma_bounds
from blowuplab.potentials import jump_check, sphere_quadrature, surface_integral_bound
from blowuplab.solver import SolverConfig, StopReason, run

REFERENCE_CONFIG = """\
[problem]
p = 2
q = 2
R = 1.0
n = 2
flux = exp_power

[solver]
u_stop = 9.0
record_every = 2
"""


def _verdict(capsys, num, label, checks):
    failed = [name for name, ok in checks.items() if not ok]
    verdict = "pass" if not failed else "FAIL (" + ", ".join(failed) + ")"
    with capsys.disabled():
        print(f"criterion {num:2d} {label}: {verdict}")
    assert not failed, f"criterion {num} {label}: {failed}"


def reference_problem(flux=FluxFamily.EXP_POWER, p=2.0, q=2.0):
    return ProblemParams(
        p=p, q=q, R=1.0, n=2, flux=flux,
        initial=QuadraticRadial(0.5, 0.5, 0.5, 0.5),
    )


@pytest.fixture(scope="module")
def reference_run():
    """The p = q = 2 exponential-power experiment, run and fitted once."""
    params = reference_problem()
    config = SolverConfig(
        N=201, cfl=0.4, growth_cap=0.1, u_stop=9.0,
        record_every=2, state_every=1,
    )
    traj = run(params, config)
    fit = estimate_blowup_time(traj, params)
    alpha_hat, beta_hat = fit_rate(traj, fit.t_hat, params)
    bound = rate_bound_check(traj, fit.t_hat, 1.0, 1.0, params=params, tol=0.20)
    return params, config, traj, fit, alpha_hat, beta_hat, bound


@pytest.fixture(scope="module")
def refined_t_hat():
    """Blow-up time from the same experiment on a four-times-finer grid."""
    params = reference_problem()
    config = SolverConfig(
        N=801, cfl=0.4, growth_cap=0.1, u_stop=9.0,
        record_every=32, state_every=0,
    )
    traj = run(params, config)
    return estimate_blowup_time(traj, params).t_hat


def test_criterion_01_exponent_algebra(capsys):
    rng = np.random.default_rng(20260817)
    pairs = rng.uniform(0.2, 6.0, size=(4000, 2))
    pairs = pairs[pairs[:, 0] * pairs[:, 1] > 1.0 + 1e-6][:1000]
    assert len(pairs) == 1000
    worst = 0.0
    for p, q in pairs:
        alpha, beta = rate_exponents(p, q)
        worst = max(
            worst,
            abs(p * beta - (alpha + 1.0)) / abs(alpha + 1.0),
            abs(q * alpha - (beta + 1.0)) / abs(beta + 1.0),
        )
    _verdict(capsys, 1, "exponent-algebra", {
        "exponent identities to 1e-12 relative": worst <= 1e-12,
    })


def test_criterion_02_ode_oracle(capsys):
    params = OdeParams(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0)
    series = integrate_system(params, 0.99999, n_samples=200)
    early = series.t <= 0.99
    exact = (1.0 - series.t[early]) ** -0.5
    rel = np.abs(series.A[early] / exact - 1.0)
    result = verify_lemma_bounds(series, params)
    _verdict(capsys, 2, "ode-oracle", {
        "A(t) = (1-t)^{-1/2} to 1e-6 up to t = 0.99": float(rel.max()) < 1e-6,
        "alpha_fit = 1 within 1e-3": abs(result.alpha_fit - 1.0) <= 1e-3,
        "sup A (T-t)^{1/2} = 1 within 1e-3": abs(result.c_a - 1.0) <= 1e-3,
    })


def test_criterion_03_rate_upper_estimate(reference_run, refined_t_hat, capsys):
    _, _, traj, fit, alpha_hat, beta_hat, bound = reference_run
    _verdict(capsys, 3, "rate-upper-estimate", {
        "reaches the blow-up threshold":
            traj.stop.reason is StopReason.BLOWUP_THRESHOLD,
        "e^M (T-t)^{1/2} finite": math.isfinite(bound.rate_sup_u),
        "e^N (T-t)^{1/2} finite": math.isfinite(bound.rate_sup_v),
        "trend within 20% over last half decade": bound.passed,
        "alpha_hat <= 1.1": alpha_hat <= 1.1,
        "beta_hat <= 1.1": beta_hat <= 1.1,
        "T_hat matches N=801 run within 1%":
            abs(fit.t_hat - refined_t_hat) <= 0.01 * refined_t_hat,
    })


def test_criterion_04_boundary_blow_up_set(reference_run, capsys):
    params, config, traj, fit, _, _, _ = reference_run
    interior = boundary_set_check(traj, params, 0.5, t_hat=fit.t_hat)
    boundary_node = config.N - 1
    _verdict(capsys, 4, "boundary-blow-up-set", {
        "run ended on the stop threshold":
            traj.stop.reason is StopReason.BLOWUP_THRESHOLD,
        "interior u growth < 5% over final decade": interior.growth_u < 0.05,
        "interior v growth < 5% over final decade": interior.growth_v < 0.05,
        "argmax u on the boundary node":
            bool(np.all(traj.argmax_u == boundary_node)),
        "argmax v on the boundary node":
            bool(np.all(traj.argmax_v == boundary_node)),
        "interior check verdict": interior.status == "pass",
    })


def test_criterion_05_monotonicity(reference_run, capsys):
    _, _, traj, _, _, _, _ = reference_run
    worst = math.inf
    for state in traj.states:
        # the max of a snapshot's u is its sample's M, bit for bit
        scale = 1.0 + state.u.max()
        worst = min(
            worst,
            float(np.diff(state.u).min() / scale),
            float(np.diff(state.v).min() / scale),
        )
    _verdict(capsys, 5, "monotonicity", {
        "snapshots present": len(traj.states) > 0,
        "radial differences >= -1e-8 (1 + M)": worst >= -1e-8,
        "M nondecreasing": bool(np.all(np.diff(traj.M) >= 0.0)),
        "N nondecreasing": bool(np.all(np.diff(traj.Nmax) >= 0.0)),
    })


def test_criterion_06_supersolution(reference_run, capsys):
    checks = {}
    for n, R, m in ((2, 1.0, 0.5), (3, 1.0, 1.0), (2, 2.0, 1.5)):
        comp = ComparisonParams(
            C1=1.0, C2=c2_min(n, R, m), m=m, T=1.0, R=R, n=n,
        )
        r = np.linspace(0.0, R, 200)[None, :]
        t = (1.0 - np.logspace(-12, 0, 200))[:, None]
        residual = supersolution_residual(r, t, comp)
        checks[f"residual >= 0 at (n={n}, R={R}, m={m})"] = (
            residual.shape == (200, 200) and float(residual.min()) >= 0.0
        )
        checks[f"lap h(0) = -4nR^2 at (n={n}, R={R}, m={m})"] = (
            weight_laplacian(0.0, R, n) == -4.0 * n * R**2
        )

    params, config, traj, fit, _, _, bound = reference_run
    grid = make_grid(params.R, config.N)
    comp = ComparisonParams(
        C1=1.0, C2=c2_min(params.n, params.R, 0.5), m=0.5,
        T=fit.t_hat, R=params.R, n=params.n,
    )
    report = dominance_check(traj.states, grid.r, comp, bound.rate_sup_u, field="u")
    checks["dominance margin positive on the reference run"] = report.margin > 0.0
    _verdict(capsys, 6, "supersolution", checks)


def test_criterion_07_jump_relation(capsys):
    quad = sphere_quadrature(1.0, 24)
    x0 = np.array([0.0, 0.0, 1.0])
    distances = (0.16, 0.12, 0.09, 0.06, 0.04)
    unit = jump_check(x0, lambda pts, tau: 1.0, 0.05, quad, distances)
    double = jump_check(x0, lambda pts, tau: 2.0, 0.05, quad, distances)
    _verdict(capsys, 7, "jump-relation", {
        "unit density jump = -0.5 within 0.05": abs(unit.jump + 0.5) <= 0.05,
        "unit check passes": unit.passed,
        "doubled density jump = -1.0 within 0.1": abs(double.jump + 1.0) <= 0.1,
    })


def test_criterion_08_integrability_threshold(capsys):
    R = 1.0
    quads = [sphere_quadrature(R, m) for m in (8, 16, 32, 64)]
    x = np.array([0.0, 0.0, R])
    borderline = surface_integral_bound(x, 1.0, quads)
    beyond = surface_integral_bound(x, 2.0, quads)
    area = surface_integral_bound(x, 0.0, quads)
    _verdict(capsys, 8, "integrability-threshold", {
        "a = 1 converges": borderline.converged,
        "a = 1 limit = 4 pi R within 0.5%":
            abs(borderline.limit - 4.0 * math.pi * R) <= 0.005 * 4.0 * math.pi * R,
        "a = 2 flagged diverging": beyond.diverging,
        "a = 0 equals the sphere area within 1e-6":
            abs(area.values[-1] - 4.0 * math.pi * R**2)
            <= 1e-6 * 4.0 * math.pi * R**2,
    })


def test_criterion_09_cross_family_rates(capsys):
    checks = {}

    params = reference_problem(flux=FluxFamily.EXP_LINEAR, p=1.0, q=1.0)
    config = SolverConfig(
        N=201, cfl=0.4, growth_cap=0.1, u_stop=4.0,
        record_every=1, state_every=0,
    )
    traj = run(params, config)
    fit = estimate_blowup_time(traj, params)
    bound = rate_bound_check(traj, fit.t_hat, 1.0, 1.0, params=params, tol=0.25)
    checks["exp_linear sup e^{qM} (T-t)^{1/2} finite"] = math.isfinite(
        bound.rate_sup_u
    )
    checks["exp_linear flat within 25%"] = bound.passed

    params = reference_problem(flux=FluxFamily.POWER)
    config = SolverConfig(
        N=201, cfl=0.4, growth_cap=0.1, u_stop=9.0,
        record_every=2, state_every=0,
    )
    traj = run(params, config)
    fit = estimate_blowup_time(traj, params)
    alpha_hat, _ = fit_rate(traj, fit.t_hat, params)
    # M ~ (T - t)^{-gamma} with gamma = (p+1)/(2(pq-1)) = 1/2 at p = q = 2
    checks["power M-exponent <= 0.55"] = alpha_hat / 2.0 <= 0.55
    _verdict(capsys, 9, "cross-family-rates", checks)


def test_criterion_10_determinism(tmp_path, capsys):
    config = parse_config(REFERENCE_CONFIG)
    first = run_experiment(config, tmp_path / "first")
    second = run_experiment(config, tmp_path / "second")
    _verdict(capsys, 10, "determinism", {
        "trajectory files byte-identical":
            first.trajectory.read_bytes() == second.trajectory.read_bytes(),
        "reports byte-identical":
            first.report.read_bytes() == second.report.read_bytes(),
        "config echoes byte-identical":
            first.config_echo.read_bytes() == second.config_echo.read_bytes(),
    })
