"""Print the sha256 of every artifact of a fixed matrix of runs.

A refactor that must leave the scientific artifacts byte-identical is
checked by running this script on both trees and diffing the output:

    PYTHONPATH=<tree>/src python3 tools/artifact_digests.py [DIR] > digests.txt

Each config of the matrix goes through `cli.run_experiment` and the
benchmark's sweep config through the `sweep` verb, once serially and once
with two worker processes (the two trees must digest alike). The runs are
written into DIR and kept there, so two trees' reports can be compared
with `diff -r`; DIR must be empty or not yet exist. Without DIR they go
to a temporary directory that is deleted, and the output is the same.
Three more sweeps go through the verb the same two ways:
`sweep_asymmetric` (power, u0_base = 0.25, so no point has a mirror
whose run it can reuse), `sweep_ep_pq_N` (exp_power over p, q and N)
and `sweep_repeated` (power, p = 2, 2, 3, so two points share each run
of p = 2). One run, `dominance_fail`, fails its dominance
check, so its report carries the r and t of the minimum; `interior_0.3`
records the interior suprema away from the default radius,
`flat_data` starts from constant initial data, and `pw_record1` (power,
p = q = 2) and `pw_p2q3_record1` (p = 2, q = 3, state_every = 2) record
every step at N = 41, so full and partial sample blocks are digested
with one row and with two. The verbs `validate`
and `run` also go over `dip_u0` (power, u0 = 1 - 1e-9 r^2), data
that validation refuses, so the stdout, stderr and exit code of the
refusal are pinned. Most runs are at
N = 101, `t_end_0.01` and the sweep at N = 201 and `pw_N401` (power,
p = q = 2, t_end = 0.01, about 4,000 steps) at N = 401, so the stepper
is digested on three array lengths. The stdout of
`validate` on every config of the matrix and on the sweep config, `oracle
jump` at the default m = 24, at m = 48 and 64 (the benchmark's
quadratures) and at m = 80 and 96 (where the BLAS reduction of a layer
sum blocks differently, so every m the tests pin is covered), and
`oracle ode` on the orbit (`--p 2 --q 2 --c 0.5`), on data that reach
the divergence cap (`--p 3 --q 2 --c 1 --stop-frac 0.99`) and on data
off the orbit that end uncapped at the requested stop (`--p 3 --q 2
--c 1 --A0 0.4 --B0 0.55`) is digested too, and so is `oracle jump` at
R = 1e90 and 1e-80, whose sums or fit leave float64 range, so the text
of the refusal is pinned. Three layer-potential calls that no verb
makes are digested from the library: `jump_check` off the polar axis at
m = 64, `single_layer` at the centre with the density tau, and
`jump_check` on the equator at m = 48, where the rule's polar rings
reach the point only by its rotation onto the axis. The output has one
`name/file sha256` line per artifact,
one `name/stdout sha256` line per verb whose output is digested, a
`name/stderr sha256` line where that verb wrote to stderr, one `name
exit code` line per run and one `name/values sha256` line per layer
call, in a fixed order. The runs of SNAPSHOT_RUNS also get a
`name/snapshots sha256` line: the step count, the stop and every
snapshot's t, u and v, which the artifacts show only through the
dominance minima.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from blowuplab import cli
from blowuplab.config import parse_config
from blowuplab.potentials import jump_check, single_layer, sphere_quadrature
from blowuplab.solver import Trajectory, run

REPO = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = REPO / "perfbench" / "configs" / "sweep_power_pq.ini"


def _ini(flux: str, p: float, q: float, n: int = 2, N: int = 101,
         problem: tuple[str, ...] = (), **solver) -> str:
    lines = ["[problem]", f"p = {p}", f"q = {q}", "R = 1.0", f"n = {n}",
             f"flux = {flux}", *problem, "[solver]", f"N = {N}"]
    lines += [f"{key} = {value}" for key, value in solver.items()]
    return "\n".join(lines) + "\n"


def matrix() -> dict[str, str]:
    """Run name -> INI text of the reference matrix."""
    runs = {}
    for n in (1, 2, 3):
        runs[f"el_n{n}"] = _ini("exp_linear", 1, 1, n, u_stop=9.0, record_every=2)
        runs[f"ep_n{n}"] = _ini("exp_power", 2, 2, n, u_stop=9.0, record_every=2)
        runs[f"pw_n{n}"] = _ini("power", 2, 2, n)
    ep_n2 = runs["ep_n2"]
    runs["residual"] = ep_n2 + "[analysis]\nresidual_max = 1e-9\n"
    runs["t_end_0.01"] = _ini("exp_power", 2, 2, N=201, t_end=0.01)
    runs["t_end_0.001"] = _ini("power", 2, 2, t_end=0.001)
    runs["state_every_0"] = ep_n2 + "state_every = 0\n"
    runs["pw_p2q3_sparse"] = _ini("power", 2, 3, record_every=7, state_every=3)
    # a failing dominance check writes the r and t of its minimum, which
    # no passing run shows
    runs["dominance_fail"] = runs["pw_n2"] + "[analysis]\ndominance_scale = 0.5\n"
    # the interior suprema recorded away from the default radius
    runs["interior_0.3"] = runs["pw_n2"] + "[analysis]\ninterior_radius = 0.3\n"
    # flat initial data: every node ties for the maximum at t = 0
    runs["flat_data"] = _ini("power", 2, 2, problem=("u0_quad = 0", "v0_quad = 0"))
    # a third array length for the stepper
    runs["pw_N401"] = _ini("power", 2, 2, N=401, t_end=0.01)
    # every step a sample: full sample blocks and a partial last one, on
    # one row (u is v) and on two
    runs["pw_record1"] = _ini("power", 2, 2, N=41, record_every=1)
    runs["pw_p2q3_record1"] = _ini("power", 2, 3, N=41, record_every=1, state_every=2)
    return runs


# the runs whose snapshots are digested: none, every third sample, every
# sample on one row and every second on two
SNAPSHOT_RUNS = ("state_every_0", "pw_p2q3_sparse", "pw_record1", "pw_p2q3_record1")


# data that validation refuses: u0 = 1 - 1e-9 r^2 decreases, so both of
# u0's structural checks fail
DIP_U0 = _ini("power", 2, 2, problem=("u0_base = 1", "u0_quad = -1e-9"))


def sweeps() -> dict[str, str]:
    """Sweep name -> INI text of the sweeps beyond the benchmark's."""
    axes = "[sweep]\np = 2, 3\nq = 2, 3\n"
    return {
        # u0 != v0, so no point is solved as another's mirror
        "sweep_asymmetric": _ini("power", 2, 2, N=41, problem=("u0_base = 0.25",))
        + axes,
        # mirror pairs at each N of an axis
        "sweep_ep_pq_N": _ini("exp_power", 2, 2, u_stop=9.0, record_every=2)
        + axes + "N = 41, 101\n",
        # a repeated axis value: six points that read three runs
        "sweep_repeated": _ini("power", 2, 2, N=41) + "[sweep]\np = 2, 2, 3\nq = 2, 3\n",
    }


def _digests(root: Path, name: str) -> list[str]:
    return [
        f"{name}/{path.relative_to(root).as_posix()} "
        f"{_sha256(path.read_bytes())}"
        for path in sorted(root.rglob("*")) if path.is_file()
    ]


# verbs whose stdout is digested: name -> blowuplab arguments
STDOUT_VERBS = {
    "validate_sweep": ["validate", str(SWEEP_CONFIG)],
    "oracle_jump_m24": ["oracle", "jump"],
    "oracle_jump_m48": ["oracle", "jump", "--m", "48"],
    "oracle_jump_m64": ["oracle", "jump", "--m", "64"],
    "oracle_jump_m80": ["oracle", "jump", "--m", "80"],
    "oracle_jump_m96": ["oracle", "jump", "--m", "96"],
    "oracle_ode": ["oracle", "ode", "--p", "2", "--q", "2", "--c", "0.5"],
    # the two other ways an ODE run ends: on the cap, and off the orbit
    # at the requested stop
    "oracle_ode_capped": ["oracle", "ode", "--p", "3", "--q", "2", "--c", "1",
                          "--stop-frac", "0.99"],
    "oracle_ode_off_orbit": ["oracle", "ode", "--p", "3", "--q", "2", "--c", "1",
                             "--A0", "0.4", "--B0", "0.55"],
    # refused: the fit's powers of d and the slope factor overflow
    "oracle_jump_R1e90": ["oracle", "jump", "--R", "1e90"],
    "oracle_jump_R1e-80": ["oracle", "jump", "--R", "1e-80"],
}


def layer_calls() -> dict[str, list[float]]:
    """Layer call name -> the values it returns."""
    distances = [0.16, 0.12, 0.09, 0.06, 0.04]

    def values(r) -> list[float]:
        return [r.jump, r.target, r.boundary_term, r.interior_limit,
                r.resolution, *r.derivatives.tolist()]

    return {
        "jump_off_axis_m64": values(jump_check(
            np.array([1.0, 0.0, 0.0]), lambda pts, tau: 1.0, 0.05,
            sphere_quadrature(1.0, 64), distances)),
        "single_layer_centre_tau": [single_layer(
            np.zeros(3), 0.2, lambda pts, tau: tau, 0.0, sphere_quadrature(1.0, 16))],
        "jump_equator_m48": values(jump_check(
            np.array([1.0, 0.0, 0.0]), lambda pts, tau: 1.0, 0.05,
            sphere_quadrature(1.0, 48), distances)),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshots(traj: Trajectory) -> str:
    """The digest of the step count, the stop and every snapshot."""
    digest = hashlib.sha256(repr((traj.steps, traj.stop)).encode())
    for state in traj.states:
        for data in (np.float64(state.t), state.u, state.v):
            digest.update(data.tobytes())
    return digest.hexdigest()


def _verb(name: str, argv: list[str]) -> list[str]:
    """The digests of a verb's stdout and of any stderr, and its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    lines = [f"{name}/stdout {_sha256(stdout.getvalue().encode())}"]
    if stderr.getvalue():
        lines.append(f"{name}/stderr {_sha256(stderr.getvalue().encode())}")
    return lines + [f"{name} exit {code}"]


def main() -> int:
    args = sys.argv[1:]
    if len(args) > 1:
        print("usage: artifact_digests.py [DIR]", file=sys.stderr)
        return 2
    if args and Path(args[0]).exists() and any(Path(args[0]).iterdir()):
        print(f"error: {args[0]} is not empty", file=sys.stderr)
        return 2
    lines = []
    with nullcontext(args[0]) if args else tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        for name, text in matrix().items():
            out, traj = root / name, None
            try:
                config = parse_config(text)
                traj = run(config.params, config.solver)
                code = cli.run_experiment(config, out, traj).exit_code
            except Exception as exc:  # the digest lists failures, never hides them
                code = f"1 ({type(exc).__name__}: {exc})"
            lines += _digests(out, name) if out.exists() else []
            lines.append(f"{name} exit {code}")
            if name in SNAPSHOT_RUNS and traj is not None:
                lines.append(f"{name}/snapshots {_snapshots(traj)}")
            ini = root / f"{name}.ini"
            ini.write_text(text)
            lines += _verb(f"validate_{name}", ["validate", str(ini)])
        ini = root / "dip_u0.ini"
        ini.write_text(DIP_U0)
        lines += _verb("validate_dip_u0", ["validate", str(ini)])
        lines += _verb("run_dip_u0", ["run", str(ini), "--output-dir",
                                      str(root / "dip_u0")])
        # the sweep verb runs cli.sweep and sets the exit status
        runs = [("sweep", SWEEP_CONFIG, "1"), ("sweep_parallel2", SWEEP_CONFIG, "2")]
        for name, text in sweeps().items():
            ini = root / f"{name}.ini"
            ini.write_text(text)
            runs += [(name, ini, "1"), (f"{name}_parallel2", ini, "2")]
        for name, config, workers in runs:
            out = root / name
            code = cli.main(["sweep", str(config), "--output-dir",
                             str(out), "--max-parallel", workers, "--quiet"])
            lines += _digests(out, name)
            lines.append(f"{name} exit {code}")
    for name, argv in STDOUT_VERBS.items():
        lines += _verb(name, argv)
    for name, values in layer_calls().items():
        lines.append(f"{name}/values {_sha256(repr(values).encode())}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
