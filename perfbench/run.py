"""blowuplab benchmark: wall time to a correct verdict on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form measures one workload for about S seconds and prints, as
its last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The second form runs
every workload both ways, in an order the seed picks, and prints the
end-to-end table, the per-layer table and the tracing overhead.

Workloads are closed loops: one operation at a time from this process,
at most nproc worker processes. The seed only orders how set-up
measurements, traced and untraced repeats, oracle sub-checks and (in
the second form) workloads interleave; blowuplab itself is seed-free.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_stats as bs  # noqa: E402
from entry import peak_rss_mb  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CONFIGS = HERE / "configs"
REFERENCES = json.loads((HERE / "references.json").read_text())
LAYER_MAP = json.loads((HERE / "layers.json").read_text())
TOL = REFERENCES["tolerance"]

SETUP_REPEATS = 12  # fresh-process set-ups per run, spread over its operations
OP_TIMEOUT = 120  # seconds; any single operation here takes under 15
NPROC = os.cpu_count() or 1
SWEEP_PARALLEL = min(2, NPROC)
ORACLE_CHECKS = ("jump_m48", "jump_m64", "ode")
LAYERS = ("interpreter", "import", "config", "model", "solver", "analysis",
          "comparison", "cli", "ode", "potentials", "bench")

PER_LAYER = (
    "import.blowuplab_s", "config.parse_s", "config.render_s", "model.validate_s",
    "solver.run_s", "solver.steps", "solver.us_per_step", "solver.step_us",
    "solver.samples", "solver.growth_capped_ratio", "solver.snapshot_mb",
    "analysis.fit_s", "analysis.rate_check_s", "analysis.boundary_s",
    "analysis.window_ratio",
    "comparison.dominance_s", "comparison.states_checked",
    "cli.write_trajectory_s", "cli.write_report_s", "cli.trajectory_bytes",
    "cli.sweep_busy_ratio", "cli.sweep_slowest_point_s",
    "ode.integrate_s", "ode.verify_s", "ode.samples",
    "potentials.quadrature_s", "potentials.jump_check_s.m48",
    "potentials.jump_check_s.m64", "potentials.density_calls",
    "potentials.kernel_pairs",
    *(f"self_s.{layer}" for layer in LAYERS),
    "trace.time_to_verdict_s", "trace.overhead_s", "trace.untraced_spread_s",
    "trace.spans",
)
# derived from array sizes or other counts rather than observed
COMPUTED = ("solver.us_per_step", "solver.growth_capped_ratio",
            "solver.snapshot_mb", "potentials.kernel_pairs")

E2E_UNITS = {
    "time_to_verdict_s": "s",
    "time_to_verdict_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "rel_err": "ratio",
}


class OpFailed(Exception):
    pass


@contextmanager
def deadline(seconds: int):
    def on_alarm(signum, frame):
        raise OpFailed(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Context:
    def __init__(self, args):
        self.rng = random.Random(args.seed)
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._files = 0

    def path(self, stem: str) -> Path:
        self._files += 1
        return self.work / f"{stem}-{self._files}"

    def spawn(self, args: list[str]) -> tuple[float, int, dict, float]:
        """Run entry.py in a fresh interpreter; time it from spawn to exit.

        Returns (seconds, exit code, the entry's JSON result, spawn time).
        """
        out = self.path("proc").with_suffix(".json")
        cmd = [sys.executable, str(HERE / "entry.py"), str(out), *args]
        t0 = time.perf_counter()
        # a process group of its own, so a timeout can stop sweep workers too
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            with deadline(OP_TIMEOUT):
                _, status, _ = os.wait4(proc.pid, 0)
        except OpFailed:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            raise OpFailed(f"{args[0]} exited {code} without a result")
        out.unlink()
        return seconds, code, result, t0


def forked(fn) -> dict:
    """Run fn() in a child forked from this warmed process.

    The child's VmHWM starts at the RSS it inherits, so its peak belongs
    to this one operation. fn returns a JSON-able dict.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            result = fn()
            result["peak_rss_mb"] = peak_rss_mb()
            with os.fdopen(w, "w") as f:
                json.dump(result, f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    try:
        with deadline(OP_TIMEOUT):
            with os.fdopen(r) as f:
                data = f.read()
            _, status, _ = os.wait4(pid, 0)
    except OpFailed:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise OpFailed(f"forked operation exited {code}")
    return json.loads(data)


def import_program():
    """Import blowuplab.cli from this checkout's src/, nowhere else."""
    import blowuplab.cli

    if not Path(blowuplab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: blowuplab imported from {blowuplab.cli.__file__}, "
                         f"not from {SRC}")
    return blowuplab.cli


# the files under the byte-determinism contract; sidecars such as
# timing telemetry may differ between repeats
ARTIFACTS = ("trajectory.csv", "report.txt", "config.ini", "sweep.csv")


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file() and p.name in ARTIFACTS
    }


def diff_trees(got: dict, want: dict) -> list[str]:
    names = sorted(set(got) | set(want))
    return [n for n in names if got.get(n) != want.get(n)]


def read_report(path: Path) -> dict[str, str]:
    entries = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def describe_status(report: dict[str, str]) -> str:
    """Why a run's overall status is not pass, from its report."""
    parts = []
    for check in ("rate", "boundary", "dominance"):
        status = report.get(f"{check}.status", "missing")
        if status != "pass":
            parts.append(f"{check}.status = {status}")
            if check == "rate":
                parts += [f"rate.{k} = {report.get(f'rate.{k}')}"
                          for k in ("trend_u", "trend_v")]
    return f"overall.status = {report.get('overall.status')} ({', '.join(parts)})"


def run_unit(name: str, report: dict[str, str], exit_code: int) -> dict:
    """The correctness gate of one run or sweep point."""
    causes = []
    if exit_code != 0:
        causes.append(f"exit code {exit_code}")
    if report.get("overall.status") != "pass":
        causes.append(describe_status(report))
    t_ref = REFERENCES["points"][name]["t_ref"]
    err = bs.rel_err(float(report.get("blowup.T_hat", "nan")), t_ref)
    if not err <= TOL:
        causes.append(f"rel_err {err:.3g} > {TOL}")
    return {"name": name, "passed": not causes, "cause": "; ".join(causes),
            "rel_err": err}


def new_sample(seconds, peak_mb, traced) -> dict:
    """One timed operation. `units` are its gate results, `problems` what
    makes its output wrong, `dump` its spans and counts when traced."""
    return dict(seconds=seconds, peak_mb=peak_mb, units=[], problems=[],
                traced=traced, dump=None)


# -- workloads --------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    config = ""
    min_ops = 3  # untraced operations per run, at least
    min_pairs = 2  # traced + untraced pairs per traced run, at least

    def prepare(self, ctx: Context) -> None:
        pass

    def setup(self, ctx: Context, index: int, traced: bool) -> tuple[float, dict | None]:
        """blowuplab validate <config> in a fresh process: start, import,
        config parse and validate_initial_data."""
        cfg = str(CONFIGS / self.config)
        if traced:
            op = f"setup{index}"
            seconds, _, result, t0 = ctx.spawn(["replay", "validate", cfg])
            if not result.get("passed"):
                raise OpFailed("traced validate: initial data failed")
            return seconds, with_process_spans(result, t0, seconds, op)
        seconds, code, _, _ = ctx.spawn(["cli", "validate", cfg])
        if code != 0:
            raise OpFailed(f"validate exited {code}")
        return seconds, None

    def finish(self, ctx: Context) -> dict:
        """Per-layer figures measured outside the timed operations: the
        isolated cost of one solver.step() at the workload's N."""
        import_program()
        import replay
        from blowuplab.config import load_config

        return {"solver.step_us": replay.step_us(load_config(CONFIGS / self.config))}


def with_process_spans(result: dict, t0: float, seconds: float, op: str) -> dict:
    """Root the spans of a fresh process under one operation span that
    runs from spawn to exit, with interpreter start-up (spawn to the
    entry script's first line) and shut-down (result written to exit)
    as children of their own."""
    root = "root-" + op
    for span in result["spans"]:
        span["op"] = op
        if span["parent"] is None:
            span["parent"] = root
    result["spans"] += [
        {"id": root, "name": "bench.op", "start": t0, "end": t0 + seconds,
         "parent": None, "op": op},
        {"id": root + "-start", "name": "interpreter.start", "start": t0,
         "end": result["t_start"], "parent": root, "op": op},
        {"id": root + "-exit", "name": "interpreter.exit",
         "start": result["t_done"], "end": t0 + seconds, "parent": root, "op": op},
    ]
    return result


class Sweep(Workload):
    name = "sweep-power-pq"
    why = ("a fresh `blowuplab sweep` process over p, q in {2, 3} on power at N = 201 with "
           "two workers: 56,802 explicit steps, start-up, import and the pool all show")
    config = "sweep_power_pq.ini"

    def prepare(self, ctx):
        # one serial sweep per invocation, outside the timed region; if it
        # fails, the timed sweeps differ from it and are counted as failed
        ref = ctx.path("serial")
        _, self.exit_code, _, _ = ctx.spawn(
            ["cli", "sweep", str(CONFIGS / self.config),
             "--output-dir", str(ref), "--max-parallel", "1"])
        self.reference = tree_digest(ref)
        shutil.rmtree(ref, ignore_errors=True)

    def op(self, ctx, index, traced):
        out = ctx.path("op")
        cfg = str(CONFIGS / self.config)
        if traced:
            seconds, code, result, t0 = ctx.spawn(
                ["replay", "sweep", cfg, str(out), str(SWEEP_PARALLEL)])
            with_process_spans(result, t0, seconds, f"op{index}")
        else:
            seconds, code, result, _ = ctx.spawn(
                ["cli", "sweep", cfg, "--output-dir", str(out),
                 "--max-parallel", str(SWEEP_PARALLEL)])
        sample = new_sample(seconds, result["peak_rss_mb"], traced)
        sample["dump"] = result if traced else None
        expected = 0 if traced else self.exit_code
        if code != expected:
            sample["problems"].append(f"sweep exited {code}, the serial sweep {expected}")
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:]):
            row = dict(zip(header, line.split(",")))
            point = f"{self.name}/run_{i:03d}"
            report = read_report(out / f"run_{i:03d}" / "report.txt")
            exit_code = int(report.get("overall.exit_code", "1"))
            unit = run_unit(point, report, exit_code)
            unit["name"] = f"{point} (p = {row['p']}, q = {row['q']})"
            sample["units"].append(unit)
        changed = diff_trees(tree_digest(out), self.reference)
        if changed:
            sample["problems"].append(
                f"output differs from the serial sweep: {changed}")
        shutil.rmtree(out)
        return sample


class Oracles(Workload):
    name = "oracles"
    why = ("jump_check on the sphere at m = 48 and 64 plus the ODE oracle: no "
           "stepper runs, so only potentials and ode are measured here")
    min_ops = 12  # a steady median even when the run is short

    def prepare(self, ctx):
        import_program()
        import replay

        self.replay = replay
        self.quads = replay.quadratures(NullTracer())
        warm = replay.oracles(NullTracer(), self.quads, ORACLE_CHECKS)
        self.reference = {k: [v[0], [repr(x) for x in v[1]]] for k, v in warm.items()}

    def setup(self, ctx, index, traced):
        """Fresh process: import blowuplab.cli and build the quadratures."""
        if traced:
            op = f"setup{index}"
            seconds, _, result, t0 = ctx.spawn(["replay", "oracle-setup"])
            return seconds, with_process_spans(result, t0, seconds, op)
        seconds, code, _, _ = ctx.spawn(["oracle-setup"])
        if code != 0:
            raise OpFailed(f"oracle set-up exited {code}")
        return seconds, None

    def op(self, ctx, index, traced):
        order = list(ORACLE_CHECKS)
        ctx.rng.shuffle(order)

        def body():
            tr = Tracer(f"op{index}") if traced else NullTracer()
            start = time.perf_counter()
            with tr.span("bench.op"):
                out = self.replay.oracles(tr, self.quads, order)
            result = {"seconds": time.perf_counter() - start, "out": out}
            if traced:
                span = tr.spans[-1]
                result["seconds"] = span["end"] - span["start"]
                result["dump"] = tr.dump()
            return result

        result = forked(body)
        sample = new_sample(result["seconds"], result["peak_rss_mb"], traced)
        sample["dump"] = result.get("dump")
        out = result["out"]
        jump, target = out["jump_m64"][1]
        causes = [f"{k} verdict fail" for k, (passed, _) in out.items() if not passed]
        sample["units"].append({
            "name": "oracles", "passed": not causes, "cause": "; ".join(causes),
            "rel_err": bs.rel_err(jump, REFERENCES["oracle"]["target"]),
        })
        if target != REFERENCES["oracle"]["target"]:
            sample["problems"].append(f"jump target {target!r} is not -phi/2")
        for k, (passed, values) in out.items():
            if [passed, [repr(x) for x in values]] != self.reference[k]:
                sample["problems"].append(f"{k} differs from the first repeat")
        return sample

    def finish(self, ctx):
        return {}


WORKLOADS = {w.name: w for w in (Sweep, Oracles)}


# -- measurement ------------------------------------------------------------

def plan(wl: Workload, ctx: Context) -> list[str]:
    """The operations a run starts with, in seed order, with the set-ups
    spread evenly among them from a seed-chosen offset, so that a drift
    in machine speed over the run reaches set-ups and operations alike."""
    ops = ["traced", "plain"] * wl.min_pairs if ctx.trace else ["plain"] * wl.min_ops
    ctx.rng.shuffle(ops)
    phase = ctx.rng.random()
    at = Counter(int((i + phase) * len(ops) / SETUP_REPEATS)
                 for i in range(SETUP_REPEATS))
    out = []
    for i in range(len(ops) + 1):
        out += ["setup"] * at[i] + ops[i:i + 1]
    return out


def measure(wl: Workload, ctx: Context) -> dict:
    samples: list[dict] = []
    setups: list[tuple[float, dict | None]] = []
    crashed: list[str] = []
    try:
        wl.prepare(ctx)
    except (OpFailed, OSError, ValueError, KeyError) as exc:
        # nothing to measure against: run_one reports this and exits non-zero
        crashed.append(f"prepare: {type(exc).__name__}: {exc}")
        return {"samples": samples, "setups": setups, "crashed": crashed, "extra": {}}
    plan_left = plan(wl, ctx)
    start = time.perf_counter()
    index = 0
    while True:
        if plan_left:
            kind = plan_left.pop(0)
        elif time.perf_counter() - start < ctx.seconds:
            traced_n = sum(s["traced"] for s in samples)
            kind = ("traced" if ctx.trace and traced_n <= len(samples) - traced_n
                    else "plain")
        else:
            break
        if kind == "setup":
            try:
                setups.append(wl.setup(ctx, len(setups) + 1, traced=ctx.trace))
            except (OpFailed, OSError, ValueError, KeyError) as exc:
                crashed.append(f"setup: {type(exc).__name__}: {exc}")
            continue
        index += 1
        try:
            samples.append(wl.op(ctx, index, traced=(kind == "traced")))
        except (OpFailed, OSError, ValueError, KeyError) as exc:
            crashed.append(f"op{index}: {type(exc).__name__}: {exc}")
    extra = wl.finish(ctx) if ctx.trace else {}
    return {"samples": samples, "setups": setups, "crashed": crashed, "extra": extra}


def end_to_end(wl, m) -> tuple[dict, dict]:
    plain = [s for s in m["samples"] if not s["traced"]]
    times = [s["seconds"] for s in plain]
    units = [u for s in plain for u in s["units"]]
    metrics = {
        "time_to_verdict_s": bs.median(times),
        "time_to_verdict_s.tail": bs.tail(times),
        "setup_s": bs.median([sec for sec, _ in m["setups"]]),
        "peak_rss_mb": bs.median([s["peak_mb"] for s in plain]),
        "pass_ratio": bs.pass_ratio(sum(u["passed"] for u in units), len(units)),
        "rel_err": bs.median([max(u["rel_err"] for u in s["units"]) for s in plain]),
    }
    notes = {
        "samples": len(times),
        "tail": f"p75 of {len(times)} samples",
        "setup_samples": len(m["setups"]),
        "units": len(units),
    }
    return metrics, notes


def op_layers(sample: dict) -> dict:
    """Per-layer figures of one traced operation."""
    dump = sample["dump"]
    spans, counts = dump["spans"], dump["counts"]
    totals = bs.span_totals(spans)
    own = bs.layer_self_times(spans)
    steps = counts.get("solver.steps", 0)
    samples = counts.get("solver.samples", 0)
    checks = counts.get("potentials.jump_checks", 0)
    out = {
        "import.blowuplab_s": totals.get("import.blowuplab", 0.0),
        "config.parse_s": totals.get("config.load_config", 0.0),
        "config.render_s": totals.get("config.render_config", 0.0),
        "solver.run_s": totals.get("solver.run", 0.0),
        "solver.steps": steps,
        "solver.us_per_step": totals.get("solver.run", 0.0) / steps * 1e6 if steps else 0.0,
        "solver.samples": samples,
        "solver.growth_capped_ratio": (
            counts["solver.growth_capped"] / counts["solver.dt_samples"]
            if counts.get("solver.dt_samples") else 0.0),
        "solver.snapshot_mb": counts.get("solver.snapshot_mb", 0.0),
        "analysis.fit_s": (totals.get("analysis.estimate_blowup_time", 0.0)
                           + totals.get("analysis.fit_rate", 0.0)),
        "analysis.rate_check_s": totals.get("analysis.rate_bound_check", 0.0),
        "analysis.boundary_s": totals.get("analysis.boundary_set_check", 0.0),
        "analysis.window_ratio": (counts.get("analysis.window_samples", 0) / samples
                                  if samples else 0.0),
        "comparison.dominance_s": totals.get("comparison.dominance_check", 0.0),
        "comparison.states_checked": counts.get("comparison.states_checked", 0),
        "cli.write_trajectory_s": totals.get("cli.write_trajectory", 0.0),
        "cli.write_report_s": totals.get("cli.write_report", 0.0),
        "cli.trajectory_bytes": counts.get("cli.trajectory_bytes", 0),
        "ode.integrate_s": totals.get("ode.integrate_system", 0.0),
        "ode.verify_s": totals.get("ode.verify_lemma_bounds", 0.0),
        "ode.samples": counts.get("ode.samples", 0),
        "potentials.jump_check_s.m48": totals.get("potentials.jump_check.m48", 0.0),
        "potentials.jump_check_s.m64": totals.get("potentials.jump_check.m64", 0.0),
        "potentials.density_calls": (counts.get("potentials.density_calls", 0) / checks
                                     if checks else 0),
        "potentials.kernel_pairs": counts.get("potentials.kernel_pairs", 0),
    }
    points = dump.get("points") or []
    if points:
        sweep_wall = totals.get("cli.sweep", 0.0)
        busy = sum(p["seconds"] for p in points)
        out["cli.sweep_busy_ratio"] = busy / (SWEEP_PARALLEL * sweep_wall)
        out["cli.sweep_slowest_point_s"] = max(p["seconds"] for p in points)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = own.get(layer, 0.0)
    return out


def per_layer(wl, m) -> tuple[dict, dict]:
    traced = [s for s in m["samples"] if s["traced"]]
    plain = [s for s in m["samples"] if not s["traced"]]
    rows = [op_layers(s) for s in traced]
    metrics = {name: bs.median([r.get(name, 0.0) for r in rows]) for name in PER_LAYER}
    # set-up only figures come from the traced set-up replays
    setup_rows = [bs.span_totals(d["spans"]) for _, d in m["setups"]]
    for metric, span in (("import.blowuplab_s", "import.blowuplab"),
                         ("config.parse_s", "config.load_config"),
                         ("config.render_s", "config.render_config"),
                         ("model.validate_s", "model.validate_initial_data"),
                         ("potentials.quadrature_s", "potentials.sphere_quadrature")):
        if not metrics.get(metric):
            metrics[metric] = bs.median([r.get(span, 0.0) for r in setup_rows])
    metrics.update(m["extra"])
    traced_ttv = bs.median([s["seconds"] for s in traced])
    metrics["trace.time_to_verdict_s"] = traced_ttv
    plain_times = [s["seconds"] for s in plain]
    metrics["trace.overhead_s"] = traced_ttv - bs.median(plain_times)
    # an overhead smaller than this is within the noise of the untraced repeats
    metrics["trace.untraced_spread_s"] = bs.spread(plain_times)
    metrics["trace.spans"] = bs.median([len(s["dump"]["spans"]) for s in traced])
    notes = {"traced_ops": len(traced), "untraced_ops": len(plain)}
    points = traced[0]["dump"].get("points")
    if points:
        notes["sweep_point_steps"] = [p["steps"] for p in sorted(points, key=lambda p: p["index"])]
    return metrics, notes


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": NPROC,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]()
    ctx = Context(args)
    env = environment(args.seed)
    try:
        m = measure(wl, ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    samples = m["samples"]
    if not m["setups"] or not any(not s["traced"] for s in samples) or (
            args.trace and not any(s["traced"] for s in samples)):
        for line in m["crashed"]:
            print(line, file=sys.stderr)
        print("error: no set-up or no operation completed", file=sys.stderr)
        return 1
    problems = m["crashed"] + [f"op: {p}" for s in samples for p in s["problems"]]
    failed = len(m["crashed"]) + sum(bool(s["problems"]) for s in samples)
    if args.trace:
        metrics, notes = per_layer(wl, m)
    else:
        metrics, notes = end_to_end(wl, m)
    gate = [u for s in samples if not s["traced"] for u in s["units"]]
    causes = sorted(Counter(f"{u['name']}: {u['cause']}"
                            for u in gate if not u["passed"]).items())

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    for name, value in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:34s} {value:>16.6g} {unit_of(name)}{label}")
    for key, value in notes.items():
        print(f"  # {key}: {value}")
    failing = sum(not u["passed"] for u in gate)
    print(f"  # gate: {len(gate) - failing} of {len(gate)} units passed"
          + "".join(f"\n  #   failed {n} times: {c}" for c, n in causes))
    for p in problems:
        print(f"  ! {p}")

    WORK.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "environment": env, "metrics": metrics,
              "units": {k: unit_of(k) for k in metrics}, "notes": notes,
              "gate_failures": causes, "problems": problems,
              "samples": [{k: v for k, v in s.items() if k != "dump"}
                          for s in samples],
              "setup_s": [sec for sec, _ in m["setups"]]}
    (WORK / f"{stem}.results.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [sp for s in samples if s["dump"] for sp in s["dump"]["spans"]]
        spans += [sp for _, d in m["setups"] if d for sp in d["spans"]]
        (WORK / f"{stem}.spans.json").write_text(json.dumps(spans))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples) + len(m["crashed"]),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_us", "us_per_step")):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload, untraced then traced, in seed order; print tables."""
    rng = random.Random(args.seed)
    names = list(WORKLOADS)
    rng.shuffle(names)
    results: dict[tuple[str, int], dict] = {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            results[(name, trace)] = json.loads(lines[-1])
    print("\nend-to-end metrics (untraced)")
    print(f"  {'metric':26s}" + "".join(f"{n:>18s}" for n in WORKLOADS))
    for metric, unit in E2E_UNITS.items():
        cells = "".join(
            f"{results[(n, 0)]['metrics'][metric]['value']:>18.6g}" for n in WORKLOADS)
        print(f"  {metric + ' [' + unit + ']':26s}{cells}")
    print("\nper-layer metrics (traced); layer -> end-to-end metric it moves")
    for entry in LAYER_MAP["layers"]:
        print(f"  {entry['layer']}: moves {', '.join(entry['moves'])}; "
              f"matters on {entry['matters']}; bypassed on {entry['bypassed']}")
        for metric in entry["metrics"]:
            cells = "".join(
                f"{results[(n, 1)]['metrics'].get(metric, {}).get('value', 0.0):>18.6g}"
                for n in WORKLOADS)
            print(f"    {metric:32s}{cells}")
    print("\ntracing overhead (traced minus untraced time_to_verdict_s, in s), "
          "against the range of the untraced times in the same run")
    for n in WORKLOADS:
        traced = results[(n, 1)]["metrics"]
        overhead = traced["trace.overhead_s"]["value"]
        noise = traced["trace.untraced_spread_s"]["value"]
        verdict = "within noise" if abs(overhead) <= noise else "above noise"
        print(f"  {n:18s} {overhead:+.4f}  (untraced range {noise:.4f}: {verdict})")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values())}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blowuplab" / "__init__.py").is_file():
        print(f"error: no blowuplab package under {SRC}; run from the root of "
              "a blowuplab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
