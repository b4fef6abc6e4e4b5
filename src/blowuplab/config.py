"""Experiment configuration: a small INI dialect over the library types.

A config file has up to five sections. [problem] is the only one with
required keys (p, q, R, n, flux); everything else falls back to the
defaults below, chosen to match the reference p = q = 2 experiment.

    [problem]   p, q, R, n, flux        (required)
                u0_base = 0.5           u0 = u0_base + u0_quad r^2
                u0_quad = 0.5
                v0_base = 0.5           v0 = v0_base + v0_quad r^2
                v0_quad = 0.5
    [solver]    N = 201                 grid nodes
                cfl = 0.4               diffusion step fraction
                growth_cap = 0.1        max relative boundary growth per step
                u_stop = 600.0          blow-up stop threshold
                t_end =                 optional hard time limit
                record_every = 10       sample cadence in accepted steps
                state_every = 1         field snapshot cadence in samples
    [analysis]  interior_radius = 0.5   the radius a of the interior check
                rate_tol = 0.2          one-sided trend tolerance
                residual_max = 0.5      fit residual gate
                dominance_scale = 1.0   amplitude headroom for the envelope
    [output]    dir = runs
    [sweep]     p, q, N, flux           axes; omitted axes reuse [problem]
                max_runs = 64

Values are plain `key = value` lines, diff-friendly on purpose; lists
are comma-separated. Unknown sections or keys are rejected rather than
ignored so a typo cannot silently revert a knob to its default. Runs
are seed-free and deterministic, so [output] deterministic accepts only
true; the echo always writes it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .model import FluxFamily, ProblemParams, QuadraticRadial
from .solver import SolverConfig

_SECTIONS = {
    "problem": {
        "p", "q", "R", "n", "flux",
        "u0_base", "u0_quad", "v0_base", "v0_quad",
    },
    "solver": {
        "N", "cfl", "growth_cap", "u_stop", "t_end",
        "record_every", "state_every",
    },
    "analysis": {
        "interior_radius", "rate_tol", "residual_max", "dominance_scale",
    },
    "output": {"dir", "deterministic"},
    "sweep": {"p", "q", "N", "flux", "max_runs"},
}

_REQUIRED = ("p", "q", "R", "n", "flux")


@dataclass(frozen=True)
class SweepAxes:
    """Cross-product axes for `sweep`; every omitted axis is a singleton."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    N: tuple[int, ...]
    flux: tuple[FluxFamily, ...]
    max_runs: int

    def __len__(self) -> int:
        return len(self.p) * len(self.q) * len(self.N) * len(self.flux)


@dataclass(frozen=True)
class ExperimentConfig:
    params: ProblemParams
    solver: SolverConfig
    rate_tol: float
    residual_max: float
    dominance_scale: float
    output_dir: str
    sweep: SweepAxes

    @property
    def interior_radius(self) -> float:
        """The radius a of the interior check; the solver records at it."""
        return self.solver.interior_radius


def _parse_flux(raw: str) -> FluxFamily:
    try:
        return FluxFamily(raw.strip())
    except ValueError:
        valid = ", ".join(f.value for f in FluxFamily)
        raise ConfigError(f"unknown flux {raw.strip()!r}, expected one of: {valid}")


class _Section:
    """One config section with typed, error-annotated getters."""

    def __init__(self, name: str, data: dict[str, str]):
        self.name = name
        self.data = data

    def _fetch(self, key: str, default, caster):
        raw = self.data.get(key, "")
        if raw.strip() == "":
            if default is _MISSING:
                raise ConfigError(f"missing required key [{self.name}] {key}")
            return default
        try:
            return caster(raw.strip())
        except ConfigError:
            raise
        except (ValueError, TypeError):
            raise ConfigError(f"cannot parse [{self.name}] {key} = {raw.strip()!r}")

    def real(self, key, default=None):
        return self._fetch(key, default, float)

    def integer(self, key, default=None):
        return self._fetch(key, default, int)

    def flag(self, key, default):
        def to_bool(s: str) -> bool:
            low = s.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(s)

        return self._fetch(key, default, to_bool)

    def real_list(self, key, default):
        return self._fetch(
            key, default, lambda s: tuple(float(v) for v in s.split(","))
        )

    def int_list(self, key, default):
        return self._fetch(key, default, lambda s: tuple(int(v) for v in s.split(",")))

    def flux_list(self, key, default):
        return self._fetch(
            key, default, lambda s: tuple(_parse_flux(v) for v in s.split(","))
        )


_MISSING = object()


def parse_config(text: str) -> ExperimentConfig:
    """Build a validated ExperimentConfig from INI text."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    # keys like R and N are case-significant
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}")

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    def section(name: str) -> _Section:
        if parser.has_section(name):
            return _Section(name, dict(parser[name]))
        return _Section(name, {})

    prob = section("problem")
    for key in _REQUIRED:
        if prob.data.get(key, "").strip() == "":
            raise ConfigError(f"missing required key [problem] {key}")

    flux = _parse_flux(prob.data["flux"])
    initial = QuadraticRadial(
        a_u=prob.real("u0_base", 0.5),
        b_u=prob.real("u0_quad", 0.5),
        a_v=prob.real("v0_base", 0.5),
        b_v=prob.real("v0_quad", 0.5),
    )
    try:
        params = ProblemParams(
            p=prob.real("p", _MISSING),
            q=prob.real("q", _MISSING),
            R=prob.real("R", _MISSING),
            n=prob.integer("n", _MISSING),
            flux=flux,
            initial=initial,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    solv = section("solver")
    anal = section("analysis")
    interior_radius = anal.real("interior_radius", 0.5)
    try:
        solver = SolverConfig(
            N=solv.integer("N", 201),
            cfl=solv.real("cfl", 0.4),
            growth_cap=solv.real("growth_cap", 0.1),
            u_stop=solv.real("u_stop", 600.0),
            t_end=solv.real("t_end", None),
            record_every=solv.integer("record_every", 10),
            state_every=solv.integer("state_every", 1),
            interior_radius=interior_radius,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    if interior_radius >= params.R:
        raise ConfigError(
            f"interior_radius = {interior_radius} must be below R = {params.R}"
        )

    out = section("output")
    if not out.flag("deterministic", True):
        raise ConfigError("runs are always deterministic; the flag cannot be off")

    sweep_sec = section("sweep")
    # a key written with no value is an explicit empty axis, not a default
    for axis in ("p", "q", "N", "flux"):
        if axis in sweep_sec.data and sweep_sec.data[axis].strip() == "":
            raise ConfigError(f"sweep axis {axis} is empty")
    axes = SweepAxes(
        p=sweep_sec.real_list("p", (params.p,)),
        q=sweep_sec.real_list("q", (params.q,)),
        N=sweep_sec.int_list("N", (solver.N,)),
        flux=sweep_sec.flux_list("flux", (params.flux,)),
        max_runs=sweep_sec.integer("max_runs", 64),
    )
    if axes.max_runs < 1:
        raise ConfigError(f"max_runs must be positive, got {axes.max_runs}")

    return ExperimentConfig(
        params=params,
        solver=solver,
        rate_tol=anal.real("rate_tol", 0.20),
        residual_max=anal.real("residual_max", 0.5),
        dominance_scale=anal.real("dominance_scale", 1.0),
        output_dir=out.data.get("dir", "runs").strip() or "runs",
        sweep=axes,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)


def with_axes_point(
    config: ExperimentConfig, p: float, q: float, N: int, flux: FluxFamily
) -> ExperimentConfig:
    """One sweep combination as a standalone config.

    ProblemParams revalidates, so an axis point violating a family
    constraint raises ValueError for the sweep to record.
    """
    params = replace(config.params, p=p, q=q, flux=flux)
    solver = replace(config.solver, N=N)
    return replace(config, params=params, solver=solver)


def render_config(config: ExperimentConfig) -> str:
    """Serialize the effective configuration, defaults included.

    The output parses back to an identical config, which is what the
    per-run echo file is for.
    """
    params, solver, axes = config.params, config.solver, config.sweep
    initial = params.initial
    if not isinstance(initial, QuadraticRadial):
        raise ConfigError("only quadratic radial initial data can be serialized")
    lines = [
        "[problem]",
        f"p = {params.p!r}",
        f"q = {params.q!r}",
        f"R = {params.R!r}",
        f"n = {params.n}",
        f"flux = {params.flux.value}",
        f"u0_base = {initial.a_u!r}",
        f"u0_quad = {initial.b_u!r}",
        f"v0_base = {initial.a_v!r}",
        f"v0_quad = {initial.b_v!r}",
        "",
        "[solver]",
        f"N = {solver.N}",
        f"cfl = {solver.cfl!r}",
        f"growth_cap = {solver.growth_cap!r}",
        f"u_stop = {solver.u_stop!r}",
        f"t_end = {'' if solver.t_end is None else repr(solver.t_end)}",
        f"record_every = {solver.record_every}",
        f"state_every = {solver.state_every}",
        "",
        "[analysis]",
        f"interior_radius = {config.interior_radius!r}",
        f"rate_tol = {config.rate_tol!r}",
        f"residual_max = {config.residual_max!r}",
        f"dominance_scale = {config.dominance_scale!r}",
        "",
        "[output]",
        f"dir = {config.output_dir}",
        "deterministic = true",
        "",
        "[sweep]",
        f"p = {', '.join(repr(v) for v in axes.p)}",
        f"q = {', '.join(repr(v) for v in axes.q)}",
        f"N = {', '.join(str(v) for v in axes.N)}",
        f"flux = {', '.join(f.value for f in axes.flux)}",
        f"max_runs = {axes.max_runs}",
    ]
    return "\n".join(lines) + "\n"
