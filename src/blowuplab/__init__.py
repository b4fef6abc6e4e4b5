"""Numerical laboratory for coupled heat equations with nonlinear
boundary flux, tracked to the brink of finite-time blow-up.

The library is organized as a pipeline: model (problem data and flux
families) -> solver (adaptive method of lines on a radial grid) ->
analysis (blow-up time extrapolation, rate and boundary-set checks),
with three independent supports: ode (the boundary-modulus comparison
system solved to near machine precision), comparison (an explicit
supersolution for dominance arguments) and potentials (heat-kernel
layer potentials on spheres: jump relation, surface integrability).
`config` and `cli` wrap everything into reproducible experiments.
"""

import importlib

from .analysis import (
    boundary_set_check,
    estimate_blowup_time,
    fit_rate,
    rate_bound_check,
)
from .comparison import ComparisonParams, c2_min, dominance_check
from .config import ExperimentConfig, load_config, parse_config, render_config
from .model import (
    FluxFamily,
    ProblemParams,
    QuadraticRadial,
    boundary_flux,
    make_grid,
    rate_exponents,
    validate_initial_data,
)
from .solver import SolverConfig, StopReason, Trajectory, run

__version__ = "0.1.0"

# the oracle modules load on first access, so `run`, `sweep` and
# `validate` never compile them
_ORACLE_EXPORTS = {
    "OdeParams": "ode",
    "integrate_system": "ode",
    "verify_lemma_bounds": "ode",
    "circle_quadrature": "potentials",
    "heat_kernel": "potentials",
    "jump_check": "potentials",
    "single_layer": "potentials",
    "sphere_quadrature": "potentials",
    "surface_integral_bound": "potentials",
}


def __getattr__(name: str):
    module = _ORACLE_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

__all__ = [
    "ComparisonParams",
    "ExperimentConfig",
    "FluxFamily",
    "OdeParams",
    "ProblemParams",
    "QuadraticRadial",
    "SolverConfig",
    "StopReason",
    "Trajectory",
    "boundary_flux",
    "boundary_set_check",
    "c2_min",
    "circle_quadrature",
    "dominance_check",
    "estimate_blowup_time",
    "fit_rate",
    "heat_kernel",
    "integrate_system",
    "jump_check",
    "load_config",
    "make_grid",
    "parse_config",
    "rate_bound_check",
    "rate_exponents",
    "render_config",
    "run",
    "single_layer",
    "sphere_quadrature",
    "surface_integral_bound",
    "validate_initial_data",
    "verify_lemma_bounds",
]
