"""Command-line harness: runs, sweeps, config validation, oracles.

Verbs:
    run <config>        one experiment; writes trajectory.csv, report.txt,
                        config.ini into the output directory
    sweep <config>      cross product of the [sweep] axes, one subdirectory
                        per run plus an aggregate sweep.csv
    validate <config>   parse the config and check the initial data without
                        time stepping
    oracle ode          integrate the boundary-modulus system and verify
                        its exponent bounds
    oracle jump         measure the single-layer normal-derivative jump

Exit codes are CI-oriented: 0 when every enabled check passed (or the
run was inconclusive, e.g. stopped on a time limit before blow-up),
2 when a check ran and failed, 1 on operational errors such as an
unreadable config. Reports are flat `key = value` text with namespaced
keys so acceptance scripts can grep single lines; trajectories are CSV
with a fixed header and shortest round-trip floats. Nothing in the
artifacts depends on wall-clock time, so rerunning a config reproduces
files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .analysis import (
    boundary_set_check,
    estimate_blowup_time,
    fit_rate,
    rate_bound_check,
)
from .comparison import ComparisonParams, c2_min, dominance_check
from .config import ExperimentConfig, load_config, render_config, with_axes_point
from .errors import (
    BlowupLabError,
    ConfigError,
    DominanceViolated,
    FitFailed,
)
from .model import FluxFamily, make_grid, validate_initial_data
from .solver import COLUMNS, StopReason, Trajectory, run

SWEEP_COLUMNS = ("p", "q", "N", "flux", "T_hat", "alpha_hat", "beta_hat", "status")


@dataclass(frozen=True)
class RunArtifacts:
    """The three files every run emits, the report entries and the verdict."""

    trajectory: Path
    report: Path
    config_echo: Path
    entries: dict[str, object]
    status: str
    exit_code: int


def write_trajectory(traj: Trajectory, path: Path) -> None:
    """Fixed-header CSV; floats as their shortest round-trip decimals."""
    # tolist() gives Python ints and floats by the solver's column dtypes
    columns = [getattr(traj, name).tolist() for name in COLUMNS]
    with open(path, "w") as f:
        f.write(",".join(COLUMNS) + "\n")
        for row in zip(*columns):
            f.write(",".join(map(repr, row)) + "\n")


def _report_text(value: object) -> str:
    """A report value as write_report writes it."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value}"


def write_report(entries: dict[str, object], path: Path) -> None:
    with open(path, "w") as f:
        for key, value in entries.items():
            f.write(f"{key} = {_report_text(value)}\n")


def read_report(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            entries[key] = value
    return entries


# the report keys of the fit, rate and boundary stages, in report order,
# and the result fields they read: the fit's, fit_rate's exponents, the
# rate bound check's and the boundary-set check's. The blowup and rate
# keys are nan until the fit passes; the boundary keys appear only then.
_STAGE_KEYS = {
    "blowup.T_hat": "fit.t_hat",
    "blowup.c1_hat": "fit.c1_hat",
    "blowup.c2_hat": "fit.c2_hat",
    "blowup.residual": "fit.residual",
    "blowup.window_lo": "fit.t_lo",
    "blowup.window_hi": "fit.t_hi",
    "rate.alpha_hat": "alpha_hat",
    "rate.beta_hat": "beta_hat",
    "rate.sup_u": "bound.rate_sup_u",
    "rate.sup_v": "bound.rate_sup_v",
    "rate.trend_u": "bound.trend_u",
    "rate.trend_v": "bound.trend_v",
    "boundary.interior_sup_u": "interior.interior_sup_u",
    "boundary.interior_sup_v": "interior.interior_sup_v",
    "boundary.growth_u": "interior.growth_u",
    "boundary.growth_v": "interior.growth_v",
    "boundary.argmax_at_boundary": "interior.argmax_at_boundary",
    "boundary.envelope_u": "interior.envelope_u",
    "boundary.envelope_v": "interior.envelope_v",
}


def run_experiment(
    config: ExperimentConfig, out_dir: Path, traj: Trajectory | None = None
) -> RunArtifacts:
    """Execute the full pipeline for one config and write the artifacts.

    The analysis stages run only when the solver actually reached the
    blow-up threshold; otherwise every check reports inconclusive and
    the exit code stays 0 (nothing failed, nothing was shown). A fit or
    dominance failure marks the run failed with exit code 2. traj, if
    given, is what run(config.params, config.solver) returns, solved
    beforehand (a sweep passes a mirror's, see sweep()).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, solver = config.params, config.solver

    if traj is None:
        traj = run(params, solver)
    blew_up = traj.stop.reason is StopReason.BLOWUP_THRESHOLD

    report: dict[str, object] = {
        "run.stop_reason": traj.stop.reason.value,
        "run.stop_detail": traj.stop.detail or "-",
        "run.t_stop": float(traj.stop.t_stop),
        "run.steps": traj.steps,
        "run.samples": len(traj),
        **{key: float("nan") for key in _STAGE_KEYS if not key.startswith("boundary.")},
    }
    # each check's status until its stage runs
    pending = "inconclusive" if blew_up else "inconclusive: run stopped before blow-up"
    statuses = dict.fromkeys(("rate", "boundary", "dominance"), pending)

    fit = None
    if blew_up:
        try:
            fit = estimate_blowup_time(
                traj, params, residual_max=config.residual_max
            )
            alpha_hat, beta_hat = fit_rate(traj, fit.t_hat, params)
        except FitFailed as exc:
            fit = None
            statuses["rate"] = f"fail: {exc}"

    if fit is not None:
        target_u, target_v = params.flux.rate_targets(params.p, params.q)
        bound = rate_bound_check(
            traj, fit.t_hat, target_u, target_v,
            params=params, tol=config.rate_tol,
        )
        statuses["rate"] = "pass" if bound.passed else "fail"

        interior = boundary_set_check(
            traj, params, config.interior_radius,
            t_hat=fit.t_hat,
            c1_hat=bound.rate_sup_u, c2_hat=bound.rate_sup_v,
        )
        statuses["boundary"] = interior.status
        stages = SimpleNamespace(
            fit=fit, alpha_hat=alpha_hat, beta_hat=beta_hat,
            bound=bound, interior=interior,
        )
        report.update(
            (key, attrgetter(field)(stages)) for key, field in _STAGE_KEYS.items()
        )

        if traj.states:
            grid = make_grid(params.R, solver.N)
            m_u, m_v = target_u / 2.0, target_v / 2.0
            failures, unbounded = [], []
            for field, m, sup in (
                ("u", m_u, bound.rate_sup_u),
                ("v", m_v, bound.rate_sup_v),
            ):
                margin, c1 = f"dominance.margin_{field}", f"dominance.c1_{field}"
                # nan unless the check passes
                report[margin] = report[c1] = float("nan")
                if not math.isfinite(sup):
                    # no finite C1 covers the boundary bound: nothing to check
                    unbounded.append(f"rate.sup_{field} = {sup}")
                    continue
                comp = ComparisonParams(
                    C1=1.0, C2=c2_min(params.n, params.R, m),
                    m=m, T=fit.t_hat, R=params.R, n=params.n,
                )
                try:
                    rep = dominance_check(
                        traj.states, grid.r, comp, sup,
                        c1_scale=config.dominance_scale, field=field,
                    )
                except DominanceViolated as exc:
                    failures.append(str(exc))
                else:
                    report[margin], report[c1] = rep.margin, rep.c1
            if failures:
                statuses["dominance"] = f"fail: {'; '.join(failures)}"
            elif unbounded:
                statuses["dominance"] = (
                    f"inconclusive: {', '.join(unbounded)} leaves C1 unbounded"
                )
            else:
                statuses["dominance"] = "pass"
        else:
            statuses["dominance"] = "skipped: no field snapshots"

    failed = any(s.startswith("fail") for s in statuses.values())
    all_pass = all(s == "pass" for s in statuses.values())
    overall = "fail" if failed else ("pass" if all_pass else "inconclusive")
    for name, status in statuses.items():
        report[f"{name}.status"] = status
    report["overall.status"] = overall
    report["overall.exit_code"] = exit_code = 2 if failed else 0

    trajectory_path = out_dir / "trajectory.csv"
    report_path = out_dir / "report.txt"
    config_path = out_dir / "config.ini"
    write_trajectory(traj, trajectory_path)
    write_report(report, report_path)
    config_path.write_text(render_config(config))
    return RunArtifacts(
        trajectory=trajectory_path,
        report=report_path,
        config_echo=config_path,
        entries=report,
        status=overall,
        exit_code=exit_code,
    )


def _sweep_row(p: float, q: float, N: int, flux: FluxFamily) -> dict[str, str]:
    return {
        "p": repr(p), "q": repr(q), "N": str(N), "flux": flux.value,
        "T_hat": "nan", "alpha_hat": "nan", "beta_hat": "nan",
    }


def _sweep_point(
    task: tuple[int, ExperimentConfig, str], traj: Trajectory | None = None
) -> tuple[int, dict]:
    index, config, run_dir = task
    params = config.params
    row = _sweep_row(params.p, params.q, config.solver.N, params.flux)
    try:
        artifacts = run_experiment(config, Path(run_dir), traj)
        row["T_hat"] = _report_text(artifacts.entries["blowup.T_hat"])
        row["alpha_hat"] = _report_text(artifacts.entries["rate.alpha_hat"])
        row["beta_hat"] = _report_text(artifacts.entries["rate.beta_hat"])
        row["status"] = artifacts.status
    except BlowupLabError as exc:
        row["status"] = f"error: {type(exc).__name__}"
        Path(run_dir).mkdir(parents=True, exist_ok=True)
        (Path(run_dir) / "report.txt").write_text(
            f"overall.status = error\noverall.detail = {exc}\n"
        )
    return index, row


def _mirror(config: ExperimentConfig) -> ExperimentConfig | None:
    """The config whose run is this one's mirrored (Trajectory.mirrored),
    or None if there is none other than itself.

    That is the config with p and q swapped, when p != q and u0 = v0
    (QuadraticRadial.symmetric).
    """
    params = config.params
    if params.p == params.q or not params.initial.symmetric:
        return None
    return replace(config, params=replace(params, p=params.q, q=params.p))


def _sweep_job(job: tuple) -> list[tuple[int, dict]]:
    """Solve a job's run once and write each of its points from it: the
    run itself for a point with the job's config, mirrored otherwise."""
    config, tasks = job
    try:
        traj = run(config.params, config.solver)
    except BlowupLabError:
        # run raises before its first step; an error names the field it
        # checked first, so each point runs on its own and reports its own
        return [_sweep_point(task) for task in tasks]
    return [
        _sweep_point(task, traj if task[1] == config else traj.mirrored())
        for task in tasks
    ]


def sweep(config: ExperimentConfig, out_dir: Path, max_parallel: int = 1) -> Path:
    """Run the axis cross product and aggregate one row per run.

    Rows appear in axis order (flux, p, q, N nested last), whatever the
    parallelism; failed runs keep their row with an error status. A job
    is one distinct run and the points that read it: the points with its
    config and, when u0 and v0 have the same coefficients, those with p
    and q swapped (see _mirror), whose files are written from the
    mirrored trajectory, byte for byte what their own run writes. If the
    solve raises, each point is run on its own. At most
    min(max_parallel, jobs) worker processes are started.
    """
    if max_parallel < 1:
        raise ConfigError(f"max_parallel must be at least 1, got {max_parallel}")
    axes = config.sweep
    total = len(axes)
    if total > axes.max_runs:
        raise ConfigError(
            f"sweep would launch {total} runs, the cap is {axes.max_runs}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # config of a distinct run -> the tasks of the points that read it
    jobs: dict[ExperimentConfig, list] = {}
    invalid: dict[int, dict] = {}
    for index, (flux, p, q, N) in enumerate(
        product(axes.flux, axes.p, axes.q, axes.N)
    ):
        run_dir = out_dir / f"run_{index:03d}"
        try:
            point = with_axes_point(config, p=p, q=q, N=N, flux=flux)
        except ValueError as exc:
            invalid[index] = _sweep_row(p, q, N, flux)
            # the status cell must stay a single CSV field
            invalid[index]["status"] = f"invalid: {exc}".replace(",", ";")
            continue
        # under its mirror's config if that is already a job, else its own
        mirror = _mirror(point)
        key = mirror if mirror in jobs else point
        jobs.setdefault(key, []).append((index, point, str(run_dir)))

    workers = min(max_parallel, len(jobs))
    if workers > 1:
        # a pool starts all max_workers processes up front, used or not
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_job, jobs.items()))
    else:
        done = list(map(_sweep_job, jobs.items()))
    results = dict(row for rows in done for row in rows)
    results.update(invalid)

    summary = out_dir / "sweep.csv"
    with open(summary, "w") as f:
        f.write(",".join(SWEEP_COLUMNS) + "\n")
        for index in sorted(results):
            row = results[index]
            f.write(",".join(row[c] for c in SWEEP_COLUMNS) + "\n")
    return summary


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.output_dir or config.output_dir)
    artifacts = run_experiment(config, out_dir)
    if not args.quiet:
        report = {k: _report_text(v) for k, v in artifacts.entries.items()}
        print(f"stop: {report['run.stop_reason']} at t = {report['run.t_stop']}")
        if not report["rate.status"].startswith("inconclusive"):
            print(f"T_hat = {report.get('blowup.T_hat')}")
            print(f"alpha_hat = {report.get('rate.alpha_hat')}")
            print(f"beta_hat = {report.get('rate.beta_hat')}")
        for name in ("rate", "boundary", "dominance"):
            print(f"{name}: {report[f'{name}.status']}")
        print(f"wrote {artifacts.trajectory}")
        print(f"wrote {artifacts.report}")
        print(f"overall: {artifacts.status}")
    return artifacts.exit_code


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.output_dir or config.output_dir)
    summary = sweep(config, out_dir, max_parallel=args.max_parallel)
    lines = summary.read_text().splitlines()
    if not args.quiet:
        for line in lines:
            print(line)
        print(f"wrote {summary}")
    worst = 0
    for line in lines[1:]:
        status = line.rsplit(",", 1)[-1]
        if status.startswith(("fail", "error", "invalid")):
            worst = 2
    return worst


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    grid = make_grid(config.params.R, config.solver.N)
    report = validate_initial_data(
        config.params.initial, grid, config.params.n, params=config.params
    )
    if not args.quiet:
        print(render_config(config), end="")
        for check in report.checks:
            print(f"check {check.name}: {'pass' if check.passed else 'fail'} "
                  f"(value {check.value!r})")
        print(f"initial data: {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 2


def _cmd_oracle_ode(args) -> int:
    # the oracle modules load only for their verbs, not for run or sweep
    from .ode import OdeParams, integrate_system, verify_lemma_bounds

    # the library rejects out-of-range arguments with ValueError
    try:
        params = OdeParams(
            p=args.p, q=args.q, c=args.c, T=args.T,
            A0=args.A0, B0=args.B0, t0=args.t0,
        )
        series = integrate_system(params, args.stop_frac, n_samples=args.samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = verify_lemma_bounds(series, params)
    if not args.quiet:
        alpha, beta = params.exponents
        print(f"samples = {len(series)} capped = {'yes' if series.capped else 'no'}")
        print(f"alpha = {alpha!r} beta = {beta!r}")
        print(f"alpha_fit = {result.alpha_fit!r}")
        print(f"beta_fit = {result.beta_fit!r}")
        print(f"c_a = {result.c_a!r}")
        print(f"c_b = {result.c_b!r}")
        print(f"trend_a = {result.trend_a!r} trend_b = {result.trend_b!r}")
        print(f"verdict: {'pass' if result.passed else 'fail'}")
    return 0 if result.passed else 2


def _cmd_oracle_jump(args) -> int:
    # the oracle modules load only for their verbs, not for run or sweep
    from .potentials import jump_check, sphere_quadrature

    density = args.density
    if not math.isfinite(density):
        raise ConfigError(f"--density {density} must be finite")
    # the defaults scale with R: distances as R, the window as R^2
    window = 0.05 * args.R * args.R if args.window is None else args.window
    if args.distances is None:
        distances = [f * args.R for f in (0.16, 0.12, 0.09, 0.06, 0.04)]
    else:
        distances = []
        for item in args.distances.split(","):
            try:
                distances.append(float(item))
            except ValueError:
                raise ConfigError(f"--distances item {item!r} is not a number") from None
    # built only once the arguments above are accepted: at a large --m it
    # is the verb's slow part
    quad = sphere_quadrature(args.R, args.m)
    x0 = np.array([0.0, 0.0, args.R])
    # the library rejects out-of-range arguments with ValueError
    try:
        report = jump_check(
            x0, lambda pts, tau: density, window, quad,
            distances, steps=args.steps, tol_jump=args.tol,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not args.quiet:
        print(f"jump = {report.jump!r}")
        print(f"target = {report.target!r}")
        print(f"boundary_term = {report.boundary_term!r}")
        print(f"interior_limit = {report.interior_limit!r}")
        print(f"resolution = {report.resolution!r}")
        print(f"verdict: {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowuplab",
        description="Boundary-flux blow-up laboratory for coupled heat systems",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--quiet", action="store_true", help="suppress chatter")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the [sweep] cross product")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.add_argument("--max-parallel", type=int, default=1)
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_oracle = sub.add_parser("oracle", help="standalone numerical checks")
    o_sub = p_oracle.add_subparsers(dest="oracle", required=True)

    p_ode = o_sub.add_parser("ode", help="boundary-modulus ODE system")
    p_ode.add_argument("--p", type=float, required=True)
    p_ode.add_argument("--q", type=float, required=True)
    p_ode.add_argument("--c", type=float, default=1.0)
    p_ode.add_argument("--T", type=float, default=1.0)
    p_ode.add_argument("--A0", type=float, default=1.0)
    p_ode.add_argument("--B0", type=float, default=1.0)
    p_ode.add_argument("--t0", type=float, default=0.0)
    p_ode.add_argument("--stop-frac", type=float, default=0.99999)
    p_ode.add_argument("--samples", type=int, default=200)
    add_common(p_ode)
    p_ode.set_defaults(func=_cmd_oracle_ode)

    p_jump = o_sub.add_parser("jump", help="single-layer jump relation")
    p_jump.add_argument("--R", type=float, default=1.0)
    p_jump.add_argument("--m", type=int, default=24, help="polar rings")
    p_jump.add_argument("--window", type=float, default=None,
                        help="heat-kernel time window (default 0.05 R^2)")
    p_jump.add_argument("--density", type=float, default=1.0)
    p_jump.add_argument("--distances", default=None,
                        help="comma-separated approach distances")
    p_jump.add_argument("--steps", type=int, default=48)
    p_jump.add_argument("--tol", type=float, default=0.05)
    add_common(p_jump)
    p_jump.set_defaults(func=_cmd_oracle_jump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an allocation the machine cannot hold, such as the quadrature of a
    # huge --m, is an operational error like a file that cannot be written
    except (BlowupLabError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
