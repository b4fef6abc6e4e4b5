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

The state is one (rows, N) float64 array F: u in row 0 and v in row 1,
or u alone for a run that is its own mirror (below). One kernel,
_Kernel, owns the discretisation and updates F. It owns the two state
buffers, the rate and difference buffers and, built once, every view of
them a step reads, so a step makes no array, view or reshape: run()
flips the index of the current buffer. At N = 201 a step costs numpy's
call overhead more than arithmetic, so a step makes no numpy or Python
call it can do without:
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
A sample reads its maxima with argmax too, row by row (_sample_maxima).
run() builds a FieldState only for snapshots, from one copy of each row
of F, made read-only; the stop state is the last recorded row and, with
snapshots on, the last snapshot. step() is a thin wrapper that takes one
FieldState through the same two-row kernel, so there is one update rule.

The two rows are treated alike, so with u0 = v0 the run with p and q
swapped is the run mirrored (Trajectory.mirrored), bit for bit; a sweep
solves such a pair once. For the same reason, with p = q and u0 = v0
(QuadraticRadial.symmetric) v is u at every step: run() then steps the
(1, N) state u, whose end values the kernel reads in v's place too,
and each snapshot's u and v are one array. That is the same arithmetic
on half the array, so the trajectory has the same bits.

Stability note: the explicit step is stable for cfl below 2*dr^2/rho(n)
where rho is the spectral radius of the discrete operator. Measured bounds
are cfl < 0.50, 0.41, 0.33 for n = 1, 2, 3 (STABLE_CFL); run() refuses a
larger cfl. A config file that leaves cfl out gets DEFAULT_CFL[n].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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
# cfl a config file gets when it leaves the key out
STABLE_CFL = {1: 0.50, 2: 0.41, 3: 1.0 / 3.0}
DEFAULT_CFL = {1: 0.4, 2: 0.4, 3: 0.3}


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
    # the radius a at which a run records its interior suprema; None is
    # R/2, decided by in_ball
    interior_radius: float | None = None
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

    def in_ball(self, R: float) -> SolverConfig:
        """This config on a ball of radius R: an unset interior_radius
        becomes R/2, its one default."""
        if self.interior_radius is not None:
            return self
        return replace(self, interior_radius=R / 2)


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
    arrays are read-only copies, and where the run stepped u alone (p =
    q and u0 = v0) its u and v are the same array.
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
        one mirrored, bit for bit: the kernel treats the two rows alike,
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


class _Kernel:
    """The forward-Euler update of the state F of shape (rows, N): F =
    [u; v] with two rows, or F = [u] with one when u is v.

    It is built once per run and owns the two state buffers (states)
    and the rate and difference buffers, with every view of them a step
    reads, so a step allocates no array and makes no view: advance()
    steps states[i] into states[1 - i]. end_nodes are the flat indices
    of the nodes 0, 1, N-2, N-1 of u and of v, u's four twice with one
    row, so a step runs the same code on either.

    laplacian() writes an interior node on the two differences around it,

        Delta f_i = upper_i (f[i+1] - f[i]) - lower_i (f[i] - f[i-1]),
        upper_i, lower_i = 1 / dr^2 +- (n - 1) / (2 r_i dr),

    in four numpy calls over the rows as one flat array; upper and lower
    are the tridiagonal operator's off-diagonals, 0 on the end nodes
    between two rows, which it overwrites. The end nodes (module
    docstring) are done on Python floats.
    """

    def __init__(
        self, params: ProblemParams, grid: RadialGrid, config: SolverConfig,
        rows: int = 2,
    ):
        self.params, self.config = params, config
        N, n = grid.N, params.n
        self.dr2, self.two_dr = grid.dr**2, 2.0 * grid.dr
        self.origin, self.drift_R = 2.0 * n, (n - 1) / grid.R
        drift = (n - 1) / (self.two_dr * grid.r[1:-1])
        inv_dr2, pad = 1.0 / self.dr2, np.zeros(2)
        self.upper = np.concatenate([inv_dr2 + drift, pad] * rows)[:-2]
        self.lower = np.concatenate([inv_dr2 - drift, pad] * rows)[:-2]
        self.end_nodes = np.array(
            [row * N + j for row in (0, rows - 1) for j in (0, 1, N - 2, N - 1)]
        )
        # each row's first and last flat index, with the offset of its
        # four values in ends
        self._end_rows = [(row * N, row * N + N - 1, 4 * row) for row in range(rows)]
        self.states = (np.empty((rows, N)), np.empty((rows, N)))
        self.rates = np.empty((rows, N))
        self.flat = [F.reshape(-1) for F in self.states]
        # f[i+1] and f[i] of each flat state, and f[i+1] - f[i] as both
        # of its windows
        self._shifted = [(f[1:], f[:-1]) for f in self.flat]
        d = np.empty(rows * N - 1)
        self._diff = d, d[1:], d[:-1]
        self._rates_flat, self._abs = self.rates.reshape(-1), np.empty(rows * N)
        self._inner = self._rates_flat[1:-1]
        self._dt = np.empty(())
        self._dt_max = config.cfl * self.dr2
        self._dt_min = UNDERFLOW_FACTOR * self.dr2

    def laplacian(self, i: int, ends: list[float], ghosts) -> None:
        """Write the Laplacian of states[i] into rates; ends is states[i]'s
        values at end_nodes and ghosts holds one ghost value per row."""
        f_next, f_prev = self._shifted[i]
        d, d_next, d_prev = self._diff
        inner = self._inner
        np.subtract(f_next, f_prev, d)
        np.multiply(self.upper, d_next, inner)
        # in place: each difference is read once, by its own product
        np.multiply(self.lower, d_prev, d_prev)
        np.subtract(inner, d_prev, inner)
        # the end nodes of each row, on Python floats
        o = self._rates_flat
        dr2, two_dr, drift_R = self.dr2, self.two_dr, self.drift_R
        for (first, last, j), ghost in zip(self._end_rows, ghosts):
            x0, x1, xm, xN = ends[j:j + 4]
            o[first] = self.origin * (x1 - x0) / dr2
            o[last] = (ghost - 2.0 * xN + xm) / dr2 + drift_R * (ghost - xm) / two_dr

    def advance(
        self, t: float, i: int, ends: list[float], arg_u: float, arg_v: float,
        bound: float,
    ) -> tuple[float, float]:
        """Write the state one step after (t, states[i]) into states[1 - i].

        ends is states[i]'s values at end_nodes, arg_u and arg_v the flux
        exponent arguments of its boundary values and bound an upper
        bound on its max |F|. Returns the new time and such a bound for
        the new state, the next step's bound. The state's max and min
        are read only when they decide dt or a stop (module docstring).
        """
        params, config = self.params, self.config
        uN, vN = ends[3], ends[7]
        flux = params.flux
        limit = flux.arg_limit
        # boundary_flux on both boundary values, v's first; it runs
        # itself only to raise its error or to pass a NaN through
        if uN >= 0.0 and vN >= 0.0 and arg_v < limit and arg_u < limit:
            flux_v, flux_u = flux.from_arg(arg_v), flux.from_arg(arg_u)
        else:
            flux_v = boundary_flux(flux, vN, params.p)
            flux_u = boundary_flux(flux, uN, params.q)
        # Neumann closure: u's outward derivative is the flux induced by
        # v at the boundary and vice versa, (ghost - f[N-2]) / (2 dr) =
        # flux; with one row laplacian() uses u's ghost alone
        two_dr = self.two_dr
        self.laplacian(i, ends, (ends[2] + two_dr * flux_v,
                                 ends[6] + two_dr * flux_u))
        # max |G|; argmax returns the first NaN
        work = self._abs
        np.abs(self._rates_flat, work)
        max_rate = work.item(work.argmax())
        if not max_rate < math.inf:
            # a non-finite node makes an inf or NaN rate next to it; only
            # step() can be handed such a state, since run() steps only
            # states this method proved or found finite
            _finite_bound(self.flat[i], t)
        dt = self._dt_max
        if max_rate > 0.0:
            # min() keeps its first argument unless the second is smaller.
            # The cap grows with the peak, in floats too, so where the
            # end values' max already rules it out the peak would as well
            capped = config.growth_cap * (1.0 + max(ends)) / max_rate
            if capped < dt:
                f = self.flat[i]
                capped = config.growth_cap * (1.0 + f.item(f.argmax())) / max_rate
                if capped < dt:
                    dt = capped
        if dt < self._dt_min:
            raise StepUnderflow(
                f"dt = {dt:.3e} below {UNDERFLOW_FACTOR:g} * dr^2 at t = {t:.6g}"
            )
        if config.t_end is not None and config.t_end - t < dt:
            dt = config.t_end - t
        if t + dt == t:
            raise StepUnderflow(
                f"t + dt == t: dt = {dt:.3e} is below the resolution "
                f"of t = {t:.6g}"
            )
        G = self.rates
        self._dt[()] = dt
        np.add(self.states[i], np.multiply(G, self._dt, G), self.states[1 - i])
        # |f + dt g| <= |f| + dt |g| survives rounding; NaN fails the test
        bound += dt * max_rate
        if not bound < CHECKED_ABOVE:
            bound = _finite_bound(self.flat[1 - i], t)
        return t + dt, bound


def _finite_bound(f: np.ndarray, t: float) -> float:
    """max |f| of the flat state f, or NumericalBlowupGuard if a value
    is not finite: exactly when the max or the min is not (a NaN, which
    argmax and argmin return first, fails both comparisons)."""
    hi, lo = f.item(f.argmax()), f.item(f.argmin())
    if not (-math.inf < lo and hi < math.inf):
        raise NumericalBlowupGuard(f"non-finite field values at t = {t:.6g}")
    return max(hi, -lo)


def _sample_maxima(rows: tuple) -> list:
    """[max u, max v, argmax u, argmax v, max u[:k], max v[:k]] as Python
    numbers, rows being (u, v, u[:k], v[:k]), u and v one array when u
    is v: the reductions max(axis=1), argmax(axis=1) and
    [:, :k].max(axis=1) of [u; v], since item(argmax()) is the first
    maximum."""
    u, v, u_in, v_in = rows
    a_u, a_v = u.argmax(), v.argmax()
    return [u.item(a_u), v.item(a_v), int(a_u), int(a_v),
            u_in.item(u_in.argmax()), v_in.item(v_in.argmax())]


def step(
    state: FieldState,
    params: ProblemParams,
    grid: RadialGrid,
    config: SolverConfig,
) -> FieldState:
    """One forward-Euler update with the ghost-node Neumann closure."""
    kernel = _Kernel(params, grid, config)
    F = kernel.states[0]
    F[:] = state.u, state.v
    ends = F.take(kernel.end_nodes).tolist()
    arg = params.flux.arg
    t, _ = kernel.advance(
        state.t, 0, ends, arg(ends[3], params.q), arg(ends[7], params.p),
        float(np.abs(F).max()),
    )
    u, v = kernel.states[1]
    return FieldState(t=t, u=u, v=v)


def check_fits(params: ProblemParams, config: SolverConfig) -> None:
    """Raise ValueError unless cfl is within STABLE_CFL[params.n] and
    the interior radius below R."""
    n, a = params.n, config.in_ball(params.R).interior_radius
    if config.cfl > STABLE_CFL[n] + 1e-12:
        raise ValueError(
            f"cfl = {config.cfl:g} exceeds the measured stability limit "
            f"{STABLE_CFL[n]:g} for n = {n}"
        )
    if a >= params.R:
        raise ValueError(f"interior_radius = {a} must be below R = {params.R}")


def run(params: ProblemParams, config: SolverConfig) -> Trajectory:
    """Integrate from the configured initial data until a stop condition.

    The trajectory records every record_every-th step plus the initial and
    final states, and config.in_ball(params.R) as its config. Identical
    inputs produce bitwise identical trajectories.

    Raises
    ------
    ValueError
        If the config does not fit the problem (check_fits).
    InvalidInitialData
        If the initial data fail validation.
    FluxOverflow
        If the initial data already put a flux exponent argument at the
        overflow guard. A stepped state never does: u_stop lies below the
        guard and each state's threshold test runs before its flux.
    """
    grid = make_grid(params.R, config.N)
    config = config.in_ball(params.R)
    check_fits(params, config)
    report = validate_initial_data(params.initial, grid, params.n, params)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InvalidInitialData(f"initial data failed: {', '.join(failed)}")

    u0, v0 = params.initial.evaluate(grid)
    # a run that is its own mirror has u = v at every step: step u alone
    one = params.p == params.q and params.initial.symmetric
    kernel = _Kernel(params, grid, config, rows=1 if one else 2)
    i = 0
    F = kernel.states[i]
    F[:] = u0 if one else (u0, v0)
    # the nodes with r <= a (a tiny slack counts exact node hits)
    a = config.interior_radius * (1.0 + 1e-12)
    k = int(np.searchsorted(grid.r, a, side="right"))
    # u, v, u[:k] and v[:k] of each state buffer, for _sample_maxima
    sampled = [(G[0], G[-1], G[0, :k], G[-1, :k]) for G in kernel.states]
    rows: list[tuple] = []
    states: list[FieldState] = []
    flux, p, q = params.flux, params.p, params.q
    arg, advance = flux.arg, kernel.advance
    flat, end_nodes = kernel.flat, kernel.end_nodes
    u_stop, t_end, record_every = config.u_stop, config.t_end, config.record_every

    # each pass visits one state (t, F): decide whether it is the stop
    # state, sample it, then advance; so no state is ever sampled twice
    t, bound = 0.0, float(np.abs(F).max())
    steps, dt, detail, reason = 0, 0.0, "", None
    while True:
        # the end values and the flux exponent arguments
        # that the stop criterion watches
        ends = flat[i].take(end_nodes).tolist()
        arg_u, arg_v = arg(ends[3], q), arg(ends[7], p)
        # the threshold applies to stepped states: the initial data always
        # take one step
        if steps and max(arg_u, arg_v) > u_stop:
            reason = StopReason.BLOWUP_THRESHOLD
        elif t_end is not None and t >= t_end:
            reason = StopReason.TIME_LIMIT
        else:
            try:
                t_new, bound = advance(t, i, ends, arg_u, arg_v, bound)
            except StepUnderflow as exc:
                reason, detail = StopReason.STEP_UNDERFLOW, str(exc)
            except NumericalBlowupGuard as exc:
                # non-finite values mean the discrete solution left float
                # range; report it as the blow-up ending it is
                reason, detail = StopReason.BLOWUP_THRESHOLD, str(exc)

        # the stop state is always the last sample and, with snapshots
        # on, the last snapshot
        if reason is not None or steps % record_every == 0:
            # a state that stepped on has its arguments below the overflow
            # guard; past the stop, inf is the honest value to write
            if reason is None:
                flux_u, flux_v = flux.from_arg(arg_u), flux.from_arg(arg_v)
            else:
                with np.errstate(over="ignore"):
                    flux_u, flux_v = flux.from_arg(arg_u), flux.from_arg(arg_v)
            # one value per name in COLUMNS, in that order
            rows.append((
                t, dt, *_sample_maxima(sampled[i]), flux_u, flux_v,
            ))
            sample = len(rows) - 1
            if config.state_every and (
                reason is not None or sample % config.state_every == 0
            ):
                # the buffers are reused, so a snapshot owns a copy of each
                # row, read-only since with one row u and v are one array
                c = [row.copy() for row in F]
                for row in c:
                    row.flags.writeable = False
                states.append(FieldState(t, c[0], c[-1]))
        if reason is not None:
            break
        steps += 1
        dt = t_new - t
        t = t_new
        i = 1 - i
        F = kernel.states[i]

    columns = {
        name: np.array(values, dtype=int if name.startswith("argmax") else float)
        for name, values in zip(COLUMNS, zip(*rows))
    }
    return Trajectory(
        **columns,
        states=tuple(states),
        stop=StopInfo(reason, t, detail),
        steps=steps,
        config=config,
    )
