"""Replays of blowuplab's program paths, driven from outside the package.

Each replay calls the same public functions in the same order as the
code it mirrors (`cli.run_experiment`, `cli.sweep`, the `validate` verb,
the `oracle` verbs) and writes the same artifacts, so run.py can
check them byte for byte against the program's own. With a Tracer every
call into a module is a span named `module.function`; with a NullTracer
the replay is the plain call sequence.

Import this module only after blowuplab itself has been imported (and
timed) by the caller.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from blowuplab import analysis, cli, comparison, config as config_mod, model, ode
from blowuplab import potentials, solver
from blowuplab.errors import BlowupLabError, ConfigError, DominanceViolated, FitFailed
from spans import Tracer

# `blowuplab oracle jump` and `oracle ode` defaults, with the workload's m
JUMP_MS = (48, 64)
JUMP_R = 1.0
JUMP_WINDOW = 0.05
JUMP_DENSITY = 1.0
JUMP_STEPS = 48
JUMP_TOL = 0.05
JUMP_DISTANCES = tuple(f * JUMP_R for f in (0.16, 0.12, 0.09, 0.06, 0.04))
ODE_PARAMS = dict(p=2.0, q=2.0, c=0.5, T=1.0, A0=1.0, B0=1.0, t0=0.0)
ODE_STOP_FRAC = 0.99999
ODE_SAMPLES = 200
SIGMA_NODES_PER_PANEL = 4  # potentials' Gauss rule on each sigma panel
LAYER_EVALUATIONS = 11  # 5 distances x 2 centered points + 1 direct flux


def _nan_block(prefix, keys):
    return {f"{prefix}.{key}": float("nan") for key in keys}


_BLOWUP_KEYS = ("T_hat", "c1_hat", "c2_hat", "residual", "window_lo", "window_hi")
_RATE_KEYS = ("alpha_hat", "beta_hat", "sup_u", "sup_v", "trend_u", "trend_v")


def _rate_targets(tr, params):
    if params.flux is model.FluxFamily.EXP_LINEAR:
        return 1.0, 1.0
    with tr.span("model.rate_exponents"):
        return model.rate_exponents(params.p, params.q)


def _count_solver(tr, config, traj) -> None:
    params, solv = config.params, config.solver
    tr.count("solver.steps", traj.steps)
    tr.count("solver.samples", len(traj))
    # recorded dt below the diffusion limit means the growth cap bound
    # it; the t = 0 sample has no step behind it. t + dt - t rounds dt
    # by ~1e-11 relative, hence the slack.
    dt = traj.dt[traj.dt > 0]
    limit = solv.cfl * model.make_grid(params.R, solv.N).dr ** 2
    capped = int(np.count_nonzero(dt < limit * (1.0 - 1e-9)))
    tr.count("solver.growth_capped", capped)
    tr.count("solver.dt_samples", dt.size)
    nbytes = sum(s.u.nbytes + s.v.nbytes for s in traj.states)
    tr.count("solver.snapshot_mb", nbytes / 1e6)


def run_experiment(tr, config, out_dir) -> dict:
    """cli.run_experiment, stage by stage. Returns the report entries."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, solv = config.params, config.solver

    with tr.span("solver.run"):
        traj = solver.run(params, solv)
    _count_solver(tr, config, traj)

    report: dict[str, object] = {
        "run.stop_reason": traj.stop.reason.value,
        "run.stop_detail": traj.stop.detail or "-",
        "run.t_stop": float(traj.stop.t_stop),
        "run.steps": traj.steps,
        "run.samples": len(traj),
    }
    statuses: dict[str, str] = {}

    if traj.stop.reason is solver.StopReason.BLOWUP_THRESHOLD:
        try:
            with tr.span("analysis.estimate_blowup_time"):
                fit = analysis.estimate_blowup_time(
                    traj, params, residual_max=config.residual_max
                )
            with tr.span("analysis.fit_rate"):
                rates = analysis.fit_rate(traj, fit.t_hat, params)
        except FitFailed as exc:
            fit = None
            report.update(_nan_block("blowup", _BLOWUP_KEYS))
            report.update(_nan_block("rate", _RATE_KEYS))
            statuses["rate"] = f"fail: {exc}"
        if fit is not None:
            tr.count("analysis.window_samples", fit.n_samples)
            alpha_hat, beta_hat = rates
            target_u, target_v = _rate_targets(tr, params)
            with tr.span("analysis.rate_bound_check"):
                bound = analysis.rate_bound_check(
                    traj, fit.t_hat, target_u, target_v,
                    params=params, tol=config.rate_tol,
                )
            report.update({
                "blowup.T_hat": fit.t_hat,
                "blowup.c1_hat": fit.c1_hat,
                "blowup.c2_hat": fit.c2_hat,
                "blowup.residual": fit.residual,
                "blowup.window_lo": fit.t_lo,
                "blowup.window_hi": fit.t_hi,
                "rate.alpha_hat": alpha_hat,
                "rate.beta_hat": beta_hat,
                "rate.sup_u": bound.rate_sup_u,
                "rate.sup_v": bound.rate_sup_v,
                "rate.trend_u": bound.trend_u,
                "rate.trend_v": bound.trend_v,
            })
            statuses["rate"] = "pass" if bound.passed else "fail"

            with tr.span("analysis.boundary_set_check"):
                interior = analysis.boundary_set_check(
                    traj, params, config.interior_radius,
                    t_hat=fit.t_hat,
                    c1_hat=bound.rate_sup_u, c2_hat=bound.rate_sup_v,
                )
            report.update({
                "boundary.interior_sup_u": interior.interior_sup_u,
                "boundary.interior_sup_v": interior.interior_sup_v,
                "boundary.growth_u": interior.growth_u,
                "boundary.growth_v": interior.growth_v,
                "boundary.argmax_at_boundary": interior.argmax_at_boundary,
                "boundary.envelope_u": interior.envelope_u,
                "boundary.envelope_v": interior.envelope_v,
            })
            statuses["boundary"] = interior.status

            if traj.states:
                with tr.span("model.make_grid"):
                    grid = model.make_grid(params.R, solv.N)
                m_u, m_v = target_u / 2.0, target_v / 2.0
                for field, m, sup in (
                    ("u", m_u, bound.rate_sup_u),
                    ("v", m_v, bound.rate_sup_v),
                ):
                    with tr.span("comparison.c2_min"):
                        c2 = comparison.c2_min(params.n, params.R, m)
                    comp = comparison.ComparisonParams(
                        C1=1.0, C2=c2, m=m, T=fit.t_hat, R=params.R, n=params.n,
                    )
                    try:
                        with tr.span("comparison.dominance_check"):
                            rep = comparison.dominance_check(
                                traj.states, grid.r, comp, sup,
                                c1_scale=config.dominance_scale, field=field,
                            )
                        tr.count("comparison.states_checked", rep.states_checked)
                        report[f"dominance.margin_{field}"] = rep.margin
                        report[f"dominance.c1_{field}"] = rep.c1
                        statuses.setdefault("dominance", "pass")
                    except DominanceViolated as exc:
                        report[f"dominance.margin_{field}"] = float("nan")
                        report[f"dominance.c1_{field}"] = float("nan")
                        statuses["dominance"] = f"fail: {exc}"
            else:
                statuses["dominance"] = "skipped: no field snapshots"
    else:
        report.update(_nan_block("blowup", _BLOWUP_KEYS))
        report.update(_nan_block("rate", _RATE_KEYS))
        for name in ("rate", "boundary", "dominance"):
            statuses[name] = "inconclusive: run stopped before blow-up"

    failed = any(s.startswith("fail") for s in statuses.values())
    all_pass = all(s == "pass" for s in statuses.values())
    overall = "fail" if failed else ("pass" if all_pass else "inconclusive")
    for name in ("rate", "boundary", "dominance"):
        report[f"{name}.status"] = statuses.get(name, "inconclusive")
    report["overall.status"] = overall
    report["overall.exit_code"] = 2 if failed else 0

    trajectory_path = out_dir / "trajectory.csv"
    with tr.span("cli.write_trajectory"):
        cli.write_trajectory(traj, trajectory_path)
    tr.count("cli.trajectory_bytes", trajectory_path.stat().st_size)
    with tr.span("cli.write_report"):
        cli.write_report(report, out_dir / "report.txt")
    with tr.span("config.render_config"):
        text = config_mod.render_config(config)
    (out_dir / "config.ini").write_text(text)
    return report


def _cell(value) -> str:
    # the text cli.write_report writes and cli.read_report gives back
    return repr(value) if isinstance(value, float) else str(value)


def _sweep_point(task):
    """cli._sweep_point with run_experiment replayed, in a pool worker."""
    index, config, run_dir, op, parent = task
    tr = Tracer(op, parent)
    row = {
        "p": repr(config.params.p),
        "q": repr(config.params.q),
        "N": str(config.solver.N),
        "flux": config.params.flux.value,
        "T_hat": "nan",
        "alpha_hat": "nan",
        "beta_hat": "nan",
    }
    with tr.span("cli.sweep_point"):
        try:
            report = run_experiment(tr, config, run_dir)
            row["T_hat"] = _cell(report["blowup.T_hat"])
            row["alpha_hat"] = _cell(report["rate.alpha_hat"])
            row["beta_hat"] = _cell(report["rate.beta_hat"])
            row["status"] = report["overall.status"]
        except BlowupLabError as exc:
            row["status"] = f"error: {type(exc).__name__}"
            Path(run_dir).mkdir(parents=True, exist_ok=True)
            (Path(run_dir) / "report.txt").write_text(
                f"overall.status = error\noverall.detail = {exc}\n"
            )
    point = {"index": index, "steps": tr.counts.get("solver.steps", 0),
             "seconds": tr.spans[-1]["end"] - tr.spans[-1]["start"]}
    return index, row, tr.dump(), point


def sweep(tr, config, out_dir, max_parallel: int) -> tuple[Path, list[dict]]:
    """cli.sweep with each point replayed. Returns (sweep.csv, points)."""
    axes = config.sweep
    if len(axes) > axes.max_runs:
        raise ConfigError(
            f"sweep would launch {len(axes)} runs, the cap is {axes.max_runs}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("cli.sweep") as sweep_id:
        tasks, invalid = [], {}
        for index, (flux, p, q, N) in enumerate(
            product(axes.flux, axes.p, axes.q, axes.N)
        ):
            run_dir = out_dir / f"run_{index:03d}"
            try:
                with tr.span("config.with_axes_point"):
                    point = config_mod.with_axes_point(
                        config, p=p, q=q, N=N, flux=flux
                    )
            except ValueError as exc:
                invalid[index] = {
                    "p": repr(p), "q": repr(q), "N": str(N), "flux": flux.value,
                    "T_hat": "nan", "alpha_hat": "nan", "beta_hat": "nan",
                    "status": f"invalid: {exc}".replace(",", ";"),
                }
                continue
            tasks.append((index, point, str(run_dir), tr.op, sweep_id))

        # the pool cli.sweep makes: default start method, max_parallel workers
        if max_parallel > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=max_parallel) as pool:
                done = list(pool.map(_sweep_point, tasks))
        else:
            done = list(map(_sweep_point, tasks))
        results, points = dict(invalid), []
        for index, row, dump, point in done:
            results[index] = row
            tr.merge(dump)
            points.append(point)

        summary = out_dir / "sweep.csv"
        with open(summary, "w") as f:
            f.write(",".join(cli.SWEEP_COLUMNS) + "\n")
            for index in sorted(results):
                row = results[index]
                f.write(",".join(row[c] for c in cli.SWEEP_COLUMNS) + "\n")
    return summary, points


def validate(tr, config_path) -> bool:
    """The `validate` verb without --quiet, output discarded."""
    with tr.span("config.load_config"):
        config = config_mod.load_config(config_path)
    with tr.span("model.make_grid"):
        grid = model.make_grid(config.params.R, config.solver.N)
    with tr.span("model.validate_initial_data"):
        report = model.validate_initial_data(
            config.params.initial, grid, config.params.n, params=config.params
        )
    with tr.span("config.render_config"):
        config_mod.render_config(config)
    return report.passed


def quadratures(tr) -> dict:
    """Oracle set-up: the sphere quadrature for each m."""
    out = {}
    for m in JUMP_MS:
        with tr.span("potentials.sphere_quadrature"):
            out[m] = potentials.sphere_quadrature(JUMP_R, m)
    return out


class CountingDensity:
    """The constant density of `oracle jump`, counting its calls."""

    def __init__(self, value: float):
        self.value = value
        self.calls = 0

    def __call__(self, pts, tau):
        self.calls += 1
        return self.value


def oracles(tr, quads, order) -> dict:
    """`oracle jump` at each m and `oracle ode`, in the given order.

    Returns name -> (verdict, the values the determinism check compares).
    """
    out = {}
    x0 = np.array([0.0, 0.0, JUMP_R])
    for name in order:
        if name == "ode":
            params = ode.OdeParams(**ODE_PARAMS)
            with tr.span("ode.integrate_system"):
                series = ode.integrate_system(
                    params, ODE_STOP_FRAC, n_samples=ODE_SAMPLES
                )
            with tr.span("ode.verify_lemma_bounds"):
                result = ode.verify_lemma_bounds(series, params)
            tr.count("ode.samples", len(series))
            out[name] = (result.passed, [result.alpha_fit, result.beta_fit,
                                         result.c_a, result.c_b])
            continue
        m = int(name[len("jump_m"):])
        quad = quads[m]
        # untraced, the density is the plain closure the CLI passes
        counting = isinstance(tr, Tracer)
        density = (CountingDensity(JUMP_DENSITY) if counting
                   else lambda pts, tau: JUMP_DENSITY)
        with tr.span(f"potentials.jump_check.m{m}"):
            report = potentials.jump_check(
                x0, density, JUMP_WINDOW, quad, JUMP_DISTANCES,
                steps=JUMP_STEPS, tol_jump=JUMP_TOL,
            )
        if counting:
            tr.count("potentials.density_calls", density.calls)
            tr.count("potentials.jump_checks", 1)
            sigma_nodes = JUMP_STEPS * SIGMA_NODES_PER_PANEL
            tr.count("potentials.kernel_pairs",
                     LAYER_EVALUATIONS * quad.M_q * sigma_nodes)
        out[name] = (report.passed, [report.jump, report.target])
    return out


def step_us(config, calls: int = 100, batches: int = 9) -> float:
    """Median µs of one isolated solver.step() at the config's N.

    Each batch restarts from the initial data, so the state stays far
    from blow-up whatever the family.
    """
    params, solv = config.params, config.solver
    grid = model.make_grid(params.R, solv.N)
    u0, v0 = params.initial.evaluate(grid)
    times = []
    for _ in range(batches):
        state = model.FieldState(t=0.0, u=u0, v=v0)
        start = time.perf_counter()
        for _ in range(calls):
            state = solver.step(state, params, grid, solv)
        times.append((time.perf_counter() - start) / calls * 1e6)
    return float(np.median(times))
