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
sample after the first has dt > 0 and t strictly increases; if the
first step is refused, run() raises StepUnderflow.

The state is one (rows, N) float64 array F: u in row 0 and v in row 1,
or u alone for a run that is its own mirror (below). One function,
_march, steps F for run() and, for one step, for step(); so there is
one update rule. It builds every buffer and view a step reads once, and
at N = 201 a step costs numpy's call overhead more than arithmetic, so
a step makes no array, view or numpy or Python call it can do without:
- the whole step runs in _march's frame on locals: the flux, the
  ghosts, the Laplacian, max |G|, dt, the update and the bound;
- the Laplacian is four ufunc calls on the differences f[i+1] - f[i];
- one flat take reads the eight end values (u's four twice with one
  row), and the flux, ghost and end-node arithmetic is inline on Python
  floats (boundary_flux runs only to raise or pass a NaN on);
- max |G| is argmax plus item() in place, which beats numpy's reduce on
  small arrays and returns the first NaN, and dt reaches the update as
  a 0-d array, which numpy does not convert;
- the max and min of the state are read only when they decide
  something: the max when max(ends), a lower bound on it, cannot rule
  out the growth cap, and both, as the finiteness check, when the
  running bound max|F| <= bound + dt max|G| reaches CHECKED_ABOVE or
  max |G| is not finite. So every dt, stop reason and stop detail is
  what the full reductions give.
A sample copies F into the next slot of a block of SAMPLE_BLOCK states
(_Samples); the maxima of a whole block are read at once, as argmax
along the nodes and the values there, so each has the bits of its row's
item(argmax()), and its snapshot slots are copied out. The FieldStates,
views of those rows, are built once at the end; the stop state is the
last sample and, with snapshots on, the last snapshot.

The two rows are treated alike, so with u0 = v0 the run with p and q
swapped is the run mirrored (Trajectory.mirrored), bit for bit; a sweep
solves such a pair once. For the same reason, with p = q and u0 = v0
(QuadraticRadial.symmetric) v is u at every step: run() then steps the
(1, N) state u, whose end values _march reads in v's place too,
and each snapshot's u and v are one array. That is the same arithmetic
on half the array, so the trajectory has the same bits.

Stability note: the explicit step is stable for cfl below 2*dr^2/rho(n)
where rho is the spectral radius of the discrete operator. Measured bounds
are cfl < 0.50, 0.41, 0.33 for n = 1, 2, 3 (STABLE_CFL); run() refuses a
larger cfl. SolverConfig.for_problem sets an unset cfl to DEFAULT_CFL[n]
and refuses a ball that float64 cannot grid.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import NumericalBlowupGuard, StepUnderflow
from .model import (
    EXP_GUARD,
    FieldState,
    InvalidInitialData,
    ProblemParams,
    RadialGrid,
    boundary_flux,
    make_grid,
    validate_initial_data,
)

# dt below this multiple of dr^2 means the run cannot advance
UNDERFLOW_FACTOR = 1e-16

# a state whose max |F| may have reached this is checked node by node for
# non-finite values; below it, far from the float64 maximum, none can be
CHECKED_ABOVE = 1e300

# measured stability limits for the explicit step, by dimension, and the
# cfl a config that leaves it unset gets
STABLE_CFL = {1: 0.50, 2: 0.41, 3: 1.0 / 3.0}
DEFAULT_CFL = {1: 0.4, 2: 0.4, 3: 0.3}

# samples per block of the recorder: a sample copies the state into the
# next slot of a (SAMPLE_BLOCK, rows, N) block, whose maxima are read by
# axis reductions once it is full or the run stops
SAMPLE_BLOCK = 64


class StopReason(enum.Enum):
    BLOWUP_THRESHOLD = "blowup_threshold"
    TIME_LIMIT = "time_limit"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class SolverConfig:
    N: int = 201
    # None is DEFAULT_CFL[n], decided by for_problem
    cfl: float | None = None
    growth_cap: float = 0.1
    u_stop: float = 600.0
    t_end: float | None = None
    record_every: int = 10
    # the radius a at which a run records its interior suprema; None is
    # R/2, decided by for_problem
    interior_radius: float | None = None
    # full field snapshots every k-th recorded sample; 0 disables snapshots
    state_every: int = 1

    def __post_init__(self):
        if self.cfl is not None and not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if not 0.0 < self.growth_cap <= 0.5:
            raise ValueError(
                f"growth_cap must lie in (0, 0.5], got {self.growth_cap}"
            )
        if not 0.0 < self.u_stop < EXP_GUARD:
            raise ValueError(
                f"u_stop must lie in (0, {EXP_GUARD}), got {self.u_stop}"
            )
        if self.t_end is not None and not 0.0 < self.t_end < math.inf:
            raise ValueError(
                f"t_end must be positive and finite, got {self.t_end}"
            )
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.state_every < 0:
            raise ValueError("state_every must be nonnegative")
        if self.interior_radius is not None and not self.interior_radius > 0:
            raise ValueError(
                f"interior_radius must be positive, got {self.interior_radius}"
            )

    def for_problem(self, params: ProblemParams) -> SolverConfig:
        """This config on params' problem, self if nothing is unset: an
        unset cfl becomes DEFAULT_CFL[n] and an unset interior_radius
        R/2. Raises ValueError if float64 cannot grid the ball, if cfl
        exceeds STABLE_CFL[n] or if the radius is not below R."""
        n, R = params.n, params.R
        dr = R / max(self.N - 1, 1)  # make_grid refuses N < MIN_NODES
        if dr * dr < sys.float_info.min or not R * R < math.inf:
            raise ValueError(f"R = {R:g} with N = {self.N} is beyond float64: "
                             f"dr^2 = {dr * dr:.3g}, R^2 = {R * R:.3g}")
        cfl = DEFAULT_CFL[n] if self.cfl is None else self.cfl
        a = R / 2 if self.interior_radius is None else self.interior_radius
        if cfl > STABLE_CFL[n] + 1e-12:
            raise ValueError(
                f"cfl = {cfl:g} exceeds the measured stability limit "
                f"{STABLE_CFL[n]:g} for n = {n}"
            )
        if a >= R:
            raise ValueError(f"interior_radius = {a} must be below R = {R}")
        if (cfl, a) == (self.cfl, self.interior_radius):
            return self
        return replace(self, cfl=cfl, interior_radius=a)


@dataclass(frozen=True)
class StopInfo:
    reason: StopReason
    t_stop: float
    detail: str = ""


@dataclass(frozen=True)
class Trajectory:
    """Recorded scalar series of a run plus sparse field snapshots.

    M is the running max of u (attained at the boundary for growing
    solutions) and Nmax the same for v. flux_u is the flux induced by
    u's boundary value (it drives v) and flux_v the one induced by v.
    Each snapshot in states is a recorded sample and carries that
    sample's t; t strictly increases, so the times place them. Its
    arrays are read-only views of arrays that hold only snapshots, and where
    the run stepped u alone (p = q and u0 = v0) its u and v are the
    same array.
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
    stop: StopInfo
    steps: int
    config: SolverConfig

    def __len__(self) -> int:
        return len(self.t)

    def mirrored(self) -> Trajectory:
        """This trajectory with u and v swapped in every column and state.

        With u0 = v0 bit for bit, the run with p and q swapped is this
        one mirrored, bit for bit: _march treats the two rows alike,
        and u's flux exponent meets v's boundary value where v's met u's.
        """
        return replace(
            self,
            M=self.Nmax, Nmax=self.M,
            argmax_u=self.argmax_v, argmax_v=self.argmax_u,
            sup_u_interior=self.sup_v_interior, sup_v_interior=self.sup_u_interior,
            flux_u=self.flux_v, flux_v=self.flux_u,
            states=tuple(FieldState(s.t, s.v, s.u) for s in self.states),
        )


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


def _march(params: ProblemParams, grid: RadialGrid, config: SolverConfig,
           F0: np.ndarray, t: float, record=None):
    """Step the state F0 at time t until a stop condition, or once
    without record. Returns (t, F, G, steps, reason, detail): the last
    state F at t and G, the rates last computed; after one step, the
    Laplacian of F0.

    F0, a C-contiguous float64 array of shape (rows, N), is F = [u; v]
    with two rows, or [u] with one when u is v; it becomes the first of
    the two state buffers, and a step from one writes the other.
    record(t, dt, F, flux_u, flux_v) takes every record_every-th state
    and the stop state, dt being the step that reached it. Without
    record nothing is recorded, no stop condition is checked (they
    apply to stepped states) and StepUnderflow and NumericalBlowupGuard
    propagate: that is step(). StepUnderflow on the first step always
    propagates: a run that never leaves its initial data shows nothing.

    An interior node's Laplacian is written on the two differences
    around it,

        Delta f_i = upper_i (f[i+1] - f[i]) - lower_i (f[i] - f[i-1]),
        upper_i, lower_i = 1 / dr^2 +- (n - 1) / (2 r_i dr),

    in four numpy calls over the rows as one flat array; upper and lower
    are the tridiagonal operator's off-diagonals, 0 on the end nodes
    between two rows, which the end-node arithmetic on Python floats
    overwrites. end_nodes are the flat indices of the nodes 0, 1, N-2,
    N-1 of u and of v, u's four twice with one row, so a step runs the
    same code on either. Every buffer and view a step reads is built
    here, and a step runs in this frame (module docstring).
    boundary_flux and _finite_bound are looked up when they are called.
    """
    rows, N = F0.shape
    flux, p, q, n = params.flux, params.p, params.q, params.n
    arg, from_arg, arg_limit = flux.arg, flux.from_arg, flux.arg_limit
    u_stop, t_end, record_every = config.u_stop, config.t_end, config.record_every
    growth_cap = config.growth_cap
    dr2, two_dr = grid.dr**2, 2.0 * grid.dr
    dt_max, dt_min = config.cfl * dr2, UNDERFLOW_FACTOR * dr2
    origin, drift_R = 2.0 * n, (n - 1) / grid.R
    drift = (n - 1) / (two_dr * grid.r[1:-1])
    inv_dr2, pad = 1.0 / dr2, np.zeros(2)
    upper = np.concatenate([inv_dr2 + drift, pad] * rows)[:-2]
    lower = np.concatenate([inv_dr2 - drift, pad] * rows)[:-2]
    end_nodes = np.array(
        [row * N + j for row in (0, rows - 1) for j in (0, 1, N - 2, N - 1)]
    )
    states = (F0, np.empty((rows, N)))
    flat = [F.reshape(-1) for F in states]
    # f[i+1] and f[i] of each flat state, and f[i+1] - f[i] as both of
    # its windows
    shifted = [(f[1:], f[:-1]) for f in flat]
    d = np.empty(rows * N - 1)
    d_next, d_prev = d[1:], d[:-1]
    rates = np.empty((rows, N))
    G, work, dt_0d = rates.reshape(-1), np.empty(rows * N), np.empty(())
    inner = G[1:-1]
    # the flat indices of u's last node and of v's first and last
    u_last, v_first, v_last = N - 1, (rows - 1) * N, rows * N - 1
    subtract, multiply, add, absolute = np.subtract, np.multiply, np.add, np.abs
    # max |F| of the state at t
    bound = float(np.abs(F0).max())

    # each pass visits one state (t, F): decide whether it is the stop
    # state, step it, then sample it; so no state is sampled twice
    i, steps, dt, reason, detail = 0, 0, 0.0, None, ""
    while True:
        f = flat[i]
        # the end values, and the flux exponent arguments the stop
        # criterion watches
        ends = f.take(end_nodes).tolist()
        x0, x1, xm, xN, y0, y1, ym, yN = ends
        arg_u, arg_v = arg(xN, q), arg(yN, p)
        # the stop criteria apply to stepped states: the initial data
        # always take one step (at t = 0 < t_end the limit cannot hold)
        if steps:
            if max(arg_u, arg_v) > u_stop:
                reason = StopReason.BLOWUP_THRESHOLD
            elif t_end is not None and t >= t_end:
                reason = StopReason.TIME_LIMIT
        if reason is None:
            try:
                # boundary_flux on both boundary values, v's first; it
                # runs itself only to raise its error or to pass a NaN
                # through
                if xN >= 0.0 and yN >= 0.0 and arg_v < arg_limit and arg_u < arg_limit:
                    flux_v, flux_u = from_arg(arg_v), from_arg(arg_u)
                else:
                    flux_v = boundary_flux(flux, yN, p)
                    flux_u = boundary_flux(flux, xN, q)
                # Neumann closure: u's outward derivative is the flux
                # induced by v at the boundary and vice versa,
                # (ghost - f[N-2]) / (2 dr) = flux
                ghost_u, ghost_v = xm + two_dr * flux_v, ym + two_dr * flux_u
                # the Laplacian: four calls on the interior nodes ...
                f_next, f_prev = shifted[i]
                subtract(f_next, f_prev, d)
                multiply(upper, d_next, inner)
                # in place: each difference is read once, by its own product
                multiply(lower, d_prev, d_prev)
                subtract(inner, d_prev, inner)
                # ... and the end nodes on Python floats; with one row
                # v's are u's
                G[0] = origin * (x1 - x0) / dr2
                G[u_last] = (ghost_u - 2.0 * xN + xm) / dr2 + drift_R * (ghost_u - xm) / two_dr
                if v_first:
                    G[v_first] = origin * (y1 - y0) / dr2
                    G[v_last] = (ghost_v - 2.0 * yN + ym) / dr2 + drift_R * (ghost_v - ym) / two_dr
                # max |G|; argmax returns the first NaN
                absolute(G, work)
                max_rate = work.item(work.argmax())
                if not max_rate < math.inf:
                    # a non-finite node makes an inf or NaN rate next
                    # to it; only step() can be handed such a state,
                    # since run() steps only states proved or found
                    # finite
                    _finite_bound(f, t)
                h = dt_max
                if max_rate > 0.0:
                    # min() keeps its first argument unless the second
                    # is smaller. The cap grows with the peak, in floats
                    # too, so where the end values' max already rules
                    # it out the peak would as well
                    capped = growth_cap * (1.0 + max(ends)) / max_rate
                    if capped < h:
                        capped = growth_cap * (1.0 + f.item(f.argmax())) / max_rate
                        if capped < h:
                            h = capped
                if h < dt_min:
                    raise StepUnderflow(
                        f"dt = {h:.3e} below {UNDERFLOW_FACTOR:g} * dr^2 at t = {t:.6g}"
                    )
                if t_end is not None and t_end - t < h:
                    h = t_end - t
                t_new = t + h
                if t_new == t:
                    raise StepUnderflow(
                        f"t + dt == t: dt = {h:.3e} is below the resolution "
                        f"of t = {t:.6g}"
                    )
                # h reaches the update as a 0-d array, which numpy
                # does not convert
                dt_0d[()] = h
                add(f, multiply(G, dt_0d, work), flat[1 - i])
                # |f + h g| <= |f| + h |g| survives rounding; NaN fails
                # the test
                bound += h * max_rate
                if not bound < CHECKED_ABOVE:
                    bound = _finite_bound(flat[1 - i], t)
            except StepUnderflow as exc:
                if record is None or not steps:
                    raise
                reason, detail = StopReason.STEP_UNDERFLOW, str(exc)
            except NumericalBlowupGuard as exc:
                if record is None:
                    raise
                # non-finite values mean the discrete solution left
                # float range; report it as the blow-up ending it is
                reason, detail = StopReason.BLOWUP_THRESHOLD, str(exc)
            else:
                if record is None:
                    return t_new, states[1 - i], rates, 1, None, ""

        # the stop state is always the last sample
        if reason is not None:
            # past the stop, inf is the honest flux to write
            with np.errstate(over="ignore"):
                record(t, dt, states[i], from_arg(arg_u), from_arg(arg_v))
            return t, states[i], rates, steps, reason, detail
        if steps % record_every == 0:
            # the step's fluxes are from_arg of this state's arguments
            record(t, dt, states[i], flux_u, flux_v)
        steps += 1
        dt = t_new - t
        t = t_new
        i = 1 - i


def _finite_bound(f: np.ndarray, t: float) -> float:
    """max |f| of the flat state f, or NumericalBlowupGuard if a value
    is not finite: exactly when the max or the min is not (a NaN, which
    argmax and argmin return first, fails both comparisons)."""
    hi, lo = f.item(f.argmax()), f.item(f.argmin())
    if not (-math.inf < lo and hi < math.inf):
        raise NumericalBlowupGuard(f"non-finite field values at t = {t:.6g}")
    return max(hi, -lo)


def _block_maxima(block: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The max, argmax and max over the first k nodes of every row of
    block, shape (m, rows, N), as three (m, rows) arrays. Each max is
    the value at argmax, the first maximum (or the first NaN), so it has
    the bits of a row's item(argmax())."""
    at = block.argmax(axis=2)
    inner = block[:, :, :k]
    return (
        np.take_along_axis(block, at[:, :, None], axis=2)[:, :, 0],
        at,
        np.take_along_axis(inner, inner.argmax(axis=2)[:, :, None], axis=2)[:, :, 0],
    )


class _Samples:
    """The recorded samples of one run, in blocks.

    add() copies the state F into the next slot of a (SAMPLE_BLOCK,
    rows, N) block and keeps t, dt and the fluxes. A full block, and the
    last one at close(), has its maxima read at once (_block_maxima)
    and its snapshot slots copied out, read-only, before it is reused.
    So the samples hold the snapshots' bytes plus one block.
    """

    def __init__(self, shape: tuple[int, int], k: int, state_every: int):
        self.block = np.empty((SAMPLE_BLOCK, *shape))
        self.used = self.count = 0
        self.k, self.state_every = k, state_every
        self.scalars: list[tuple] = []       # (t, dt, flux_u, flux_v) per sample
        self.maxima: list[tuple] = []        # _block_maxima of each block
        self.snapshots: list[np.ndarray] = []  # (s, rows, N), read-only
        self.snapshot_samples: list[int] = []  # their sample indices

    def add(self, t: float, dt: float, F: np.ndarray, flux_u: float, flux_v: float):
        if self.used == SAMPLE_BLOCK:
            self._flush(last=False)
        self.block[self.used] = F
        self.used += 1
        self.scalars.append((t, dt, flux_u, flux_v))

    def _flush(self, last: bool) -> None:
        m, first, every = self.used, self.count, self.state_every
        b = self.block[:m]
        self.maxima.append(_block_maxima(b, self.k))
        self.used, self.count = 0, first + m
        if not every:
            return
        # every state_every-th sample and, in the last block, the stop state
        slots = list(range(-first % every, m, every))
        if last and slots[-1:] != [m - 1]:
            slots.append(m - 1)
        snapshots = b[slots]
        snapshots.flags.writeable = False
        self.snapshots.append(snapshots)
        self.snapshot_samples.extend(first + j for j in slots)

    def close(self) -> tuple[dict[str, np.ndarray], tuple[FieldState, ...]]:
        """The columns, by COLUMNS name, and the snapshots, once the
        stop state has been added. A snapshot's u and v are views of
        its sample's rows, one view when u is v."""
        self._flush(last=True)
        t, dt, flux_u, flux_v = zip(*self.scalars)
        top, at, inner = (np.concatenate(c) for c in zip(*self.maxima))
        # in COLUMNS order, each column its own array
        columns = dict(zip(COLUMNS, map(np.array, (
            t, dt, top[:, 0], top[:, -1], at[:, 0], at[:, -1],
            inner[:, 0], inner[:, -1], flux_u, flux_v,
        ))))
        states = tuple(
            FieldState(self.scalars[j][0], F[0], F[-1])
            for j, F in zip(self.snapshot_samples, chain.from_iterable(self.snapshots))
        )
        return columns, states


def step(
    state: FieldState,
    params: ProblemParams,
    grid: RadialGrid,
    config: SolverConfig,
) -> FieldState:
    """One forward-Euler update with the ghost-node Neumann closure: the
    stepper's loop, run for one step, with config fitted to params."""
    F = np.array((state.u, state.v), dtype=float)
    t, (u, v), *_ = _march(params, grid, config.for_problem(params), F, state.t)
    return FieldState(t=t, u=u, v=v)


def run(params: ProblemParams, config: SolverConfig) -> Trajectory:
    """Integrate from the configured initial data until a stop condition.

    The trajectory records every record_every-th step plus the initial and
    final states, and config.for_problem(params) as its config. Identical
    inputs produce bitwise identical trajectories.

    Raises
    ------
    ValueError
        If the config does not fit the problem (SolverConfig.for_problem).
    InvalidInitialData
        If the initial data fail validation.
    FluxOverflow
        If the initial data already put a flux exponent argument at the
        overflow guard. A stepped state never does: u_stop lies below the
        guard and each state's threshold test runs before its flux.
    StepUnderflow
        If the first step cannot advance: its dt falls below
        UNDERFLOW_FACTOR * dr^2.
    """
    grid = make_grid(params.R, config.N)
    config = config.for_problem(params)
    report = validate_initial_data(params.initial, grid, params.n, params)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InvalidInitialData(f"initial data failed: {', '.join(failed)}")

    u0, v0 = params.initial.evaluate(grid)
    # a run that is its own mirror has u = v at every step: step u alone
    one = params.p == params.q and params.initial.symmetric
    F = np.array((u0,) if one else (u0, v0))
    # the nodes with r <= a (a tiny slack counts exact node hits)
    a = config.interior_radius * (1.0 + 1e-12)
    k = int(np.searchsorted(grid.r, a, side="right"))
    samples = _Samples(F.shape, k, config.state_every)
    t, _, _, steps, reason, detail = _march(params, grid, config, F, 0.0, samples.add)
    columns, states = samples.close()
    return Trajectory(
        **columns,
        states=states,
        stop=StopInfo(reason, t, detail),
        steps=steps,
        config=config,
    )
