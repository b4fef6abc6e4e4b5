"""Experiment configuration: a small INI dialect over the library types.

`_KEYS` below lists every section and key, in the order the `config.ini`
echo writes them, with the dataclass field each key sets; those fields
hold the defaults, but SolverConfig.for_problem decides an omitted
[solver] cfl and [analysis] interior_radius. Only [problem] p, q, R, n
and flux are required, and the [sweep] axes default to the base point.
Values are plain `key = value` lines, lists comma-separated. Unknown
sections or keys are refused, so a typo cannot silently revert a knob to
its default, and so are non-finite numbers. Runs are seed-free and
deterministic, so [output] deterministic accepts only true; the echo
always writes it.
"""

from __future__ import annotations

import configparser
import math
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .analysis import DEFAULT_RATE_TOL, DEFAULT_RESIDUAL_MAX
from .errors import ConfigError
from .model import FluxFamily, ProblemParams, QuadraticRadial
from .solver import SolverConfig


@dataclass(frozen=True)
class SweepAxes:
    """Cross-product axes for `sweep`; every omitted axis is a singleton."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    N: tuple[int, ...]
    flux: tuple[FluxFamily, ...]
    max_runs: int = 64

    def __post_init__(self):
        if self.max_runs < 1:
            raise ValueError(f"max_runs must be positive, got {self.max_runs}")

    def __len__(self) -> int:
        return len(self.p) * len(self.q) * len(self.N) * len(self.flux)


@dataclass(frozen=True)
class ExperimentConfig:
    params: ProblemParams
    solver: SolverConfig
    sweep: SweepAxes
    rate_tol: float = DEFAULT_RATE_TOL
    residual_max: float = DEFAULT_RESIDUAL_MAX
    dominance_scale: float = 1.0
    output_dir: str = "runs"

    def __post_init__(self):
        # fit cfl and the radius to the problem; the echo writes those used
        object.__setattr__(self, "solver", self.solver.for_problem(self.params))
        # a tolerance no run can meet, or a non-finite one that no run can
        # fail, is a mistake in the config, not a run's verdict
        for key in ("rate_tol", "residual_max", "dominance_scale"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} = {getattr(self, key)} must be finite")
        if self.rate_tol < 0:
            raise ValueError(f"rate_tol must be nonnegative, got {self.rate_tol}")
        for key in ("residual_max", "dominance_scale"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        # the config.ini echo must parse back to the same directory: an INI
        # value loses surrounding blanks, ends at a line break, reads empty
        # as the default, and "#" after "dir = " or a blank starts a comment
        d = self.output_dir
        if not d or d != d.strip() or re.search(r"[\r\n]|(^|\s)#", d):
            raise ValueError(
                "output_dir must be non-empty, without surrounding blanks, "
                f"line breaks or '#' at the start or after a blank, got {d!r}"
            )

    @property
    def interior_radius(self) -> float:
        """The radius a of the interior check; the solver records at it."""
        return self.solver.interior_radius


class _Kind(NamedTuple):
    """How one key's value is read from and written to the INI text."""

    parse: Callable[[str], Any]
    show: Callable[[Any], str]
    many: bool = False


def _real(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_flux(raw: str) -> FluxFamily:
    try:
        return FluxFamily(raw.strip())
    except ValueError:
        valid = ", ".join(f.value for f in FluxFamily)
        raise ConfigError(f"unknown flux {raw.strip()!r}, expected one of: {valid}")


def _deterministic(raw: str) -> bool:
    if raw.lower() in ("false", "no", "0", "off"):
        raise ConfigError("runs are always deterministic; the flag cannot be off")
    if raw.lower() not in ("true", "yes", "1", "on"):
        raise ValueError(raw)
    return True


def _many(kind: _Kind) -> _Kind:
    return _Kind(lambda raw: tuple(kind.parse(v) for v in raw.split(",")),
                 lambda values: ", ".join(kind.show(v) for v in values), many=True)


# only t_end can be None ("no time limit"); the echo leaves it empty
_REAL = _Kind(_real, lambda v: "" if v is None else repr(v))
_INT = _Kind(int, str)
_FLUX = _Kind(_parse_flux, lambda f: f.value)
_TEXT = _Kind(str, str)
# checked, never stored: there is no field to turn off
_ALWAYS_TRUE = _Kind(_deterministic, lambda _: "true")

# section -> key -> (ExperimentConfig attribute path, kind), in echo order
_KEYS: dict[str, dict[str, tuple[str | None, _Kind]]] = {
    "problem": {
        "p": ("params.p", _REAL),
        "q": ("params.q", _REAL),
        "R": ("params.R", _REAL),
        "n": ("params.n", _INT),
        "flux": ("params.flux", _FLUX),
        "u0_base": ("params.initial.a_u", _REAL),
        "u0_quad": ("params.initial.b_u", _REAL),
        "v0_base": ("params.initial.a_v", _REAL),
        "v0_quad": ("params.initial.b_v", _REAL),
    },
    "solver": {
        "N": ("solver.N", _INT),
        "cfl": ("solver.cfl", _REAL),
        "growth_cap": ("solver.growth_cap", _REAL),
        "u_stop": ("solver.u_stop", _REAL),
        "t_end": ("solver.t_end", _REAL),
        "record_every": ("solver.record_every", _INT),
        "state_every": ("solver.state_every", _INT),
    },
    "analysis": {
        "interior_radius": ("solver.interior_radius", _REAL),
        "rate_tol": ("rate_tol", _REAL),
        "residual_max": ("residual_max", _REAL),
        "dominance_scale": ("dominance_scale", _REAL),
    },
    "output": {
        "dir": ("output_dir", _TEXT),
        "deterministic": (None, _ALWAYS_TRUE),
    },
    "sweep": {
        "p": ("sweep.p", _many(_REAL)),
        "q": ("sweep.q", _many(_REAL)),
        "N": ("sweep.N", _many(_INT)),
        "flux": ("sweep.flux", _many(_FLUX)),
        "max_runs": ("sweep.max_runs", _INT),
    },
}


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
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    # owner path ("" is the ExperimentConfig itself) -> field -> value
    given: dict[str, dict[str, Any]] = defaultdict(dict)
    for section, keys in _KEYS.items():
        data = parser[section] if parser.has_section(section) else {}
        for key, (path, kind) in keys.items():
            raw = data.get(key, "").strip()
            if not raw:
                # an axis written with no value is an error, not a default
                if kind.many and key in data:
                    raise ConfigError(f"sweep axis {key} is empty")
                continue
            try:
                value = kind.parse(raw)
            except ValueError:
                raise ConfigError(f"cannot parse [{section}] {key} = {raw!r}")
            if path is not None:
                owner, _, field = path.rpartition(".")
                given[owner][field] = value
    for key in ("p", "q", "R", "n", "flux"):
        if key not in given["params"]:
            raise ConfigError(f"missing required key [problem] {key}")

    try:
        initial = QuadraticRadial(**given["params.initial"])
        params = ProblemParams(initial=initial, **given["params"])
        solver = SolverConfig(**given["solver"])
        sweep = SweepAxes(**{"p": (params.p,), "q": (params.q,), "N": (solver.N,),
                             "flux": (params.flux,), **given["sweep"]})
        return ExperimentConfig(params=params, solver=solver, sweep=sweep, **given[""])
    except ValueError as exc:
        raise ConfigError(str(exc))


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
    blocks = []
    for section, keys in _KEYS.items():
        lines = [f"[{section}]"]
        for key, (path, kind) in keys.items():
            value = None if path is None else attrgetter(path)(config)
            lines.append(f"{key} = {kind.show(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
