"""Explicit interior comparison function and its supersolution check.

All growth in the boundary-coupled system happens at r = R; interior
points stay bounded. The quantitative device behind that statement is
the comparison function

    z(r, t) = C1 / [h(r) + C2 (T - t)]^m,     h(r) = (R^2 - r^2)^2,

a caloric supersolution (z_t - Delta z >= 0 on the whole ball, for all
t < T) once C2 is large enough. On the boundary h vanishes, so z grows
there like (T - t)^{-m} and C1 can scale it above any solution with a
C (T-t)^{-m} boundary bound; the maximum principle then keeps z on top
everywhere. For |x| <= a < R the depth satisfies h >= (R^2 - a^2)^2
uniformly in t, trapping the solution under C1 (R^2 - a^2)^{-2m}.

Every derivative of z used here is closed form. The residual's sign is
the entire content of the supersolution property, and finite
differences near t -> T would drown it in truncation noise:

    z_t - Delta z = m C1 D^{-m-2} [ D (C2 + Delta h) - 16 (m+1) r^2 h ]

with D = h + C2 (T - t) and Delta h = 8 r^2 - 4 n (R^2 - r^2). The
sufficient constant c2_min keeps the bracket positive through the
chain D >= h, Delta h >= -4 n R^2, 16 (m+1) r^2 h <= 16 (m+1) R^2 D;
the chain is not tight, so slightly smaller C2 often still works. The
sign genuinely flips below R^2 max(4n, 16m + 8): the first branch is
-Delta h at the center, the second comes from the boundary corner
where h -> 0 and t -> T together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadRadius, BadTime, ConfigError, DominanceViolated
from .model import FieldState

# c1 selection makes z touch the data at the worst sample, where float
# rounding could flip the sign of an exact-zero margin. One part in 1e9
# of headroom is far below any meaningful margin and ends the touch.
C1_HEADROOM = 1.0 + 1e-9

# states per stacked block of dominance_check: 64 rows of 401 nodes are
# 205 kB, and the whole (k, N) stack of a long run is never formed
DOMINANCE_CHUNK = 64


def c2_min(n: int, R: float, m: float) -> float:
    """Drift constant that certifies the supersolution property."""
    if n < 1 or R <= 0 or m <= 0:
        raise ValueError(f"need n >= 1, R > 0, m > 0, got n = {n}, R = {R}, m = {m}")
    return 4.0 * n * R**2 + 16.0 * R**2 * (m + 1.0) + 1.0


def boundary_weight(r, R: float):
    """h(r) = (R^2 - r^2)^2, the squared leading boundary distance."""
    return (R * R - np.asarray(r) ** 2) ** 2


def weight_laplacian(r, R: float, n: int):
    """Radial n-dimensional Laplacian of h, exactly 8r^2 - 4n(R^2 - r^2)."""
    r = np.asarray(r)
    return 8.0 * r**2 - 4.0 * n * (R * R - r**2)


@dataclass(frozen=True)
class ComparisonParams:
    """Amplitude, drift, exponent and geometry of one comparison function.

    The supersolution property additionally needs C2 >= c2_min(n, R, m);
    that is a theorem hypothesis rather than a type constraint, so it is
    exposed as is_supersolution and only dominance_check insists on it.
    Probing the residual below c2_min is how the margin tests work.
    """

    C1: float
    C2: float
    m: float
    T: float
    R: float
    n: int

    def __post_init__(self) -> None:
        for name in ("C1", "C2", "m", "T", "R"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} must be finite")
        if self.C1 <= 0 or self.C2 <= 0 or self.m <= 0:
            raise ValueError(
                f"C1 = {self.C1}, C2 = {self.C2}, m = {self.m} must all be positive"
            )
        if self.T <= 0:
            raise ValueError(f"horizon T = {self.T} must be positive")
        if self.R <= 0:
            raise ValueError(f"radius R = {self.R} must be positive")
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension n = {self.n} not supported, use 1, 2 or 3")

    @property
    def is_supersolution(self) -> bool:
        return self.C2 >= c2_min(self.n, self.R, self.m)


def _depth(r, t, params: ComparisonParams):
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(r < 0) or np.any(r > params.R):
        raise BadRadius(f"r must lie in [0, {params.R}]")
    if np.any(t < 0) or np.any(t >= params.T):
        raise BadTime(f"t must lie in [0, {params.T}), the function lives below T")
    return r, t, boundary_weight(r, params.R) + params.C2 * (params.T - t)


def comparison_value(r, t, params: ComparisonParams):
    """z(r, t). Scalars or broadcastable arrays in r and t."""
    _, _, depth = _depth(r, t, params)
    out = params.C1 * depth ** (-params.m)
    return float(out) if np.ndim(out) == 0 else out


def supersolution_residual(r, t, params: ComparisonParams):
    """z_t - Delta z from the closed-form derivatives.

    Nonnegative everywhere on [0, R] x [0, T) whenever
    C2 >= c2_min(n, R, m); see the module docstring for the chain and
    for where the sign really flips when C2 is pushed below that.
    """
    r, t, depth = _depth(r, t, params)
    h = boundary_weight(r, params.R)
    bracket = depth * (params.C2 + weight_laplacian(r, params.R, params.n))
    bracket = bracket - 16.0 * (params.m + 1.0) * r**2 * h
    out = params.m * params.C1 * depth ** (-params.m - 2.0) * bracket
    return float(out) if np.ndim(out) == 0 else out


def interior_bound(a: float, params: ComparisonParams) -> float:
    """Uniform-in-time bound C1 (R^2 - a^2)^{-2m} for z on |x| <= a."""
    if not 0.0 <= a < params.R:
        raise BadRadius(f"interior radius a = {a} must lie in [0, {params.R})")
    return float(params.C1 * (params.R**2 - a**2) ** (-2.0 * params.m))


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a z >= solution sweep over recorded states."""

    c1: float
    margin: float
    r_at_min: float
    t_at_min: float
    states_checked: int


def dominance_check(
    states: Sequence[FieldState],
    r: np.ndarray,
    params: ComparisonParams,
    rate_sup: float,
    c1_scale: float = 1.0,
    field: str = "u",
) -> DominanceReport:
    """Verify z >= solution at every recorded state and node.

    The amplitude is selected, not taken from params: C1 is the larger
    of rate_sup C2^m (which puts z above a rate_sup (T-t)^{-m} boundary
    bound) and the smallest value covering the initial state, then
    scaled by c1_scale. rate_sup is the measured supremum of
    M(t) (T - t)^{m} from the rate check; T here should be the fitted
    horizon of the same run.

    The states are scanned in chunks of DOMINANCE_CHUNK, each stacked
    once, so the work arrays hold O(DOMINANCE_CHUNK N) floats whatever
    the number of states; only their k times are gathered. The
    reported minimum is the one a single argmin over the stacked (k, N)
    gaps would pick: the first in (state, node) order, with a NaN gap
    beating every number.

    Raises DominanceViolated when the margin min(z - field) is
    negative. With the automatic selection that points at an
    under-resolved run or a horizon estimate that is off, not at a
    failure of the comparison argument.
    """
    if field not in ("u", "v"):
        raise ValueError(f"field must be 'u' or 'v', got {field!r}")
    if len(states) == 0:
        raise ValueError("no states to check")
    if not params.is_supersolution:
        raise ConfigError(
            f"C2 = {params.C2} is below c2_min = {c2_min(params.n, params.R, params.m)}; "
            f"without the supersolution property dominance proves nothing"
        )
    # inf would select C1 = inf and pass with margin inf
    if not 0 <= rate_sup < math.inf:
        raise ValueError(f"rate_sup must be nonnegative and finite, got {rate_sup}")
    if not 0 <= c1_scale < math.inf:
        raise ValueError(f"c1_scale must be nonnegative and finite, got {c1_scale}")

    r = np.asarray(r, dtype=float)
    for s in states:
        nodes = len(getattr(s, field))
        if nodes != r.size:
            raise ValueError(f"states have {nodes} nodes, r has {r.size}")
    times = np.array([s.t for s in states])
    if np.any(times >= params.T):
        raise BadTime(
            f"state at t = {times.max()} is not below the horizon T = {params.T}"
        )

    h = boundary_weight(r, params.R)
    initial_term = float(
        (getattr(states[0], field) * (h + params.C2 * params.T) ** params.m).max()
    )
    boundary_term = rate_sup * params.C2**params.m
    c1 = c1_scale * max(boundary_term, initial_term) * C1_HEADROOM

    # (margin, state, node) of the minimum so far; an all-inf first
    # state leaves it at (inf, 0, 0), which is also argmin's answer
    margin, k, i = math.inf, 0, 0
    C2, T, neg_m = params.C2, params.T, -params.m
    for start in range(0, len(states), DOMINANCE_CHUNK):
        chunk = states[start:start + DOMINANCE_CHUNK]
        # c1 * depth^-m - values, a row per state; in place is bit-equal,
        # products commute
        gap = h + C2 * (T - times[start:start + len(chunk)])[:, None]
        gap **= neg_m
        gap *= c1
        gap -= np.stack([getattr(s, field) for s in chunk])
        # argmin is the first minimum in (state, node) order, or the
        # first NaN
        j = int(gap.argmin())
        g = gap.item(j)
        # strictly smaller, so ties keep the earlier chunk
        if g < margin or (math.isnan(g) and not math.isnan(margin)):
            margin, (k, i) = g, divmod(start * r.size + j, r.size)
    if margin < 0:
        raise DominanceViolated(
            f"z - {field} reaches {margin:.6e} at r = {r[i]:.6g}, "
            f"t = {times[k]:.6g} with C1 = {c1:.6g}"
        )
    return DominanceReport(
        c1=c1,
        margin=margin,
        r_at_min=float(r[i]),
        t_at_min=float(times[k]),
        states_checked=len(states),
    )
