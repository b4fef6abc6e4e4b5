"""Explicit forward-Euler integration of the coupled radial system.

Space is discretized on the uniform radial grid with second-order centered
stencils. At r = 0 the symmetry condition turns the operator into
2n(f_1 - f_0)/dr^2; at r = R a ghost node enforces the Neumann coupling to
second order. Time stepping is forward Euler with an adaptive step:

    dt = min( cfl * dr^2,  growth_cap * (1 + max(u, v)) / max|rates| )

The first term is the diffusion limit, the second caps the relative growth
of the fields per step so the runaway near blow-up is traced rather than
jumped over. Runs stop on one of three conditions: the flux exponent
argument at the boundary exceeds u_stop (the expected ending for blowing-up
solutions), simulated time reaches t_end, or dt underflows: it falls below
UNDERFLOW_FACTOR * dr^2, or t + dt rounds back to t. A step that cannot
advance t is refused before it touches the fields, so every recorded
sample after the first has dt > 0 and t strictly increases.

Stability note: the explicit step is stable for cfl below 2*dr^2/rho(n)
where rho is the spectral radius of the discrete operator. Measured bounds
are cfl < 0.50, 0.41, 0.33 for n = 1, 2, 3. The default cfl of 0.4 is fine
for n <= 2; pass something below 1/3 for n = 3.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowupGuard, StepUnderflow
from .model import (
    EXP_GUARD,
    FieldState,
    InvalidInitialData,
    ProblemParams,
    RadialGrid,
    boundary_flux,
    interior_nodes,
    make_grid,
    radial_laplacian,
    validate_initial_data,
)

log = logging.getLogger(__name__)

# dt below this multiple of dr^2 means the run cannot advance
UNDERFLOW_FACTOR = 1e-16

# measured stability limits for the explicit step, by dimension
STABLE_CFL = {1: 0.50, 2: 0.41, 3: 1.0 / 3.0}


class StopReason(enum.Enum):
    BLOWUP_THRESHOLD = "blowup_threshold"
    TIME_LIMIT = "time_limit"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class SolverConfig:
    N: int = 201
    cfl: float = 0.4
    growth_cap: float = 0.1
    u_stop: float = 600.0
    t_end: float | None = None
    record_every: int = 10
    interior_radius: float = 0.5
    # full field snapshots every k-th recorded sample; 0 disables snapshots
    state_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if not 0.0 < self.growth_cap <= 0.5:
            raise ValueError(
                f"growth_cap must lie in (0, 0.5], got {self.growth_cap}"
            )
        if not 0.0 < self.u_stop < EXP_GUARD:
            raise ValueError(
                f"u_stop must lie in (0, {EXP_GUARD}), got {self.u_stop}"
            )
        if self.t_end is not None and self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.state_every < 0:
            raise ValueError("state_every must be nonnegative")
        if self.interior_radius <= 0:
            raise ValueError("interior_radius must be positive")


@dataclass(frozen=True)
class StopInfo:
    reason: StopReason
    t_stop: float
    last_state: FieldState
    # flux exponent arguments at the stop, for simultaneity checks
    arg_u: float
    arg_v: float
    detail: str = ""


@dataclass(frozen=True)
class Trajectory:
    """Recorded scalar series of a run plus sparse field snapshots.

    M is the running max of u (attained at the boundary for growing
    solutions) and Nmax the same for v. flux_u is the flux induced by
    u's boundary value (it drives v) and flux_v the one induced by v.
    """

    t: np.ndarray
    dt: np.ndarray
    M: np.ndarray
    Nmax: np.ndarray
    argmax_u: np.ndarray
    argmax_v: np.ndarray
    sup_u_interior: np.ndarray
    sup_v_interior: np.ndarray
    flux_u: np.ndarray
    flux_v: np.ndarray
    states: tuple[FieldState, ...]
    state_samples: np.ndarray
    stop: StopInfo
    steps: int
    config: SolverConfig

    def __len__(self) -> int:
        return len(self.t)


COLUMNS = (
    "t",
    "dt",
    "M",
    "Nmax",
    "argmax_u",
    "argmax_v",
    "sup_u_interior",
    "sup_v_interior",
    "flux_u",
    "flux_v",
)


def apply_neumann(
    state: FieldState, params: ProblemParams, grid: RadialGrid
) -> tuple[float, float]:
    """Ghost values closing the coupled Neumann conditions.

    u's outward derivative equals the flux induced by v at the boundary
    and vice versa: (ghost - f[N-2]) / (2 dr) = flux.
    """
    fu = boundary_flux(params.flux, float(state.v[-1]), params.p)
    fv = boundary_flux(params.flux, float(state.u[-1]), params.q)
    ghost_u = float(state.u[-2]) + 2.0 * grid.dr * fu
    ghost_v = float(state.v[-2]) + 2.0 * grid.dr * fv
    return ghost_u, ghost_v


def flux_exponent_args(
    params: ProblemParams, u_bdry: float, v_bdry: float
) -> tuple[float, float]:
    """Exponent arguments (from u, from v) that the stop criterion watches.

    For the exponential families these are the arguments of exp() in the
    two fluxes; the run must stop while they are far below the overflow
    guard. The power family has no exponential but the same quantities
    serve as a scale-free stop measure.
    """
    arg = params.flux.arg
    return arg(u_bdry, params.q), arg(v_bdry, params.p)


def adapt_dt(
    state: FieldState,
    config: SolverConfig,
    rates: tuple[np.ndarray, np.ndarray],
    grid: RadialGrid,
) -> float:
    """Adaptive step for the current right-hand sides.

    Raises
    ------
    StepUnderflow
        When the step falls below UNDERFLOW_FACTOR * dr^2 and the run
        cannot advance in float64.
    """
    dr2 = grid.dr**2
    dt = config.cfl * dr2
    max_rate = max(
        float(np.abs(rates[0]).max()), float(np.abs(rates[1]).max())
    )
    if max_rate > 0.0:
        peak = max(float(state.u.max()), float(state.v.max()))
        dt = min(dt, config.growth_cap * (1.0 + peak) / max_rate)
    if dt < UNDERFLOW_FACTOR * dr2:
        raise StepUnderflow(
            f"dt = {dt:.3e} below {UNDERFLOW_FACTOR:g} * dr^2 at t = {state.t:.6g}"
        )
    return dt


def step(
    state: FieldState,
    params: ProblemParams,
    grid: RadialGrid,
    config: SolverConfig,
) -> FieldState:
    """One forward-Euler update with the ghost-node Neumann closure."""
    ghost_u, ghost_v = apply_neumann(state, params, grid)
    rate_u = radial_laplacian(state.u, grid, params.n, ghost_u)
    rate_v = radial_laplacian(state.v, grid, params.n, ghost_v)
    dt = adapt_dt(state, config, (rate_u, rate_v), grid)
    if config.t_end is not None:
        dt = min(dt, config.t_end - state.t)
    t = state.t + dt
    if t == state.t:
        raise StepUnderflow(
            f"t + dt == t: dt = {dt:.3e} is below the resolution "
            f"of t = {state.t:.6g}"
        )
    u = state.u + dt * rate_u
    v = state.v + dt * rate_v
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NumericalBlowupGuard(f"non-finite field values at t = {state.t:.6g}")
    return FieldState(t=t, u=u, v=v)


def run(params: ProblemParams, config: SolverConfig) -> Trajectory:
    """Integrate from the configured initial data until a stop condition.

    The trajectory records every record_every-th step plus the initial and
    final states. Identical inputs produce bitwise identical trajectories.

    Raises
    ------
    InvalidInitialData
        If the initial data fail validation.
    FluxOverflow
        If u_stop was set so close to the overflow guard that a single
        step overshot it.
    """
    grid = make_grid(params.R, config.N)
    if config.interior_radius >= params.R:
        raise ValueError(
            f"interior_radius must be below R = {params.R}, "
            f"got {config.interior_radius}"
        )
    if config.cfl > STABLE_CFL[params.n] + 1e-12:
        log.warning(
            "cfl = %g exceeds the measured stability limit %g for n = %d",
            config.cfl,
            STABLE_CFL[params.n],
            params.n,
        )
    report = validate_initial_data(params.initial, grid, params.n, params)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InvalidInitialData(f"initial data failed: {', '.join(failed)}")

    u0, v0 = params.initial.evaluate(grid)
    state = FieldState(t=0.0, u=u0, v=v0)
    k = interior_nodes(grid, config.interior_radius)
    rows: list[tuple] = []
    states: list[FieldState] = []
    state_samples: list[int] = []

    # each pass visits one state: decide whether it is the stop state,
    # sample it, then advance; so no state is ever sampled twice
    steps, dt, detail, reason = 0, 0.0, "", None
    while True:
        arg_u, arg_v = flux_exponent_args(
            params, float(state.u[-1]), float(state.v[-1])
        )
        # the threshold applies to stepped states: the initial data always
        # take one step
        if steps and max(arg_u, arg_v) > config.u_stop:
            reason = StopReason.BLOWUP_THRESHOLD
        elif config.t_end is not None and state.t >= config.t_end:
            reason = StopReason.TIME_LIMIT
        else:
            try:
                new = step(state, params, grid, config)
            except StepUnderflow as exc:
                reason, detail = StopReason.STEP_UNDERFLOW, str(exc)
            except NumericalBlowupGuard as exc:
                # non-finite values mean the discrete solution left float
                # range; report it as the blow-up ending it is
                reason, detail = StopReason.BLOWUP_THRESHOLD, str(exc)

        # the stop state is always the last sample and, with snapshots
        # on, the last snapshot
        if reason is not None or steps % config.record_every == 0:
            u, v = state.u, state.v
            # unguarded: past the stop the argument may exceed the overflow
            # guard, in which case inf is the honest value to write
            with np.errstate(over="ignore"):
                flux_u = params.flux.from_arg(arg_u)
                flux_v = params.flux.from_arg(arg_v)
            # one value per name in COLUMNS, in that order
            rows.append((
                state.t, dt,
                float(u.max()), float(v.max()), int(u.argmax()), int(v.argmax()),
                float(u[:k].max()), float(v[:k].max()),
                flux_u, flux_v,
            ))
            sample = len(rows) - 1
            if config.state_every and (
                reason is not None or sample % config.state_every == 0
            ):
                states.append(state)
                state_samples.append(sample)
        if reason is not None:
            break
        steps += 1
        dt = new.t - state.t
        state = new

    columns = {
        name: np.array(values, dtype=int if name.startswith("argmax") else float)
        for name, values in zip(COLUMNS, zip(*rows))
    }
    return Trajectory(
        **columns,
        states=tuple(states),
        state_samples=np.array(state_samples, dtype=int),
        stop=StopInfo(reason, state.t, state, arg_u, arg_v, detail),
        steps=steps,
        config=config,
    )
