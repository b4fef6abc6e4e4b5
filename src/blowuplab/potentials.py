"""Heat kernel, sphere quadrature, single-layer potentials, jump relation.

The boundary-representation argument for the coupled system rests on two
reusable facts about the fundamental solution

    Gamma(x, t) = (4 pi t)^{-n/2} exp(-|x|^2 / (4 t)):

the normal derivative of a single-layer potential picks up -phi/2 when
the evaluation point crosses the layer, and surface integrals of
|x - y|^{-a} over the sphere stay bounded exactly for a < n - 1. Both
are verified here numerically rather than assumed.

Quadrature design. On the circle the nodes are midpoints of equal arcs.
On the sphere the polar direction is Gauss-Legendre in s = sin(theta/2)
against the exact surface element ds = 4 R^2 s ds dphi. The s variable
is chosen because the chord distance from the north pole is exactly
2 R s: the integrand of the a = 1 surface bound becomes a constant in s
and the quadrature reproduces 4 pi R with no discretization error at
all, while the endpoint clustering of the Legendre nodes resolves the
near-pole region at scale R/m^2, which is what the jump check needs
when it walks toward the boundary. Neither rule ever places a node on
the pole itself, so the singular point of the surface-bound integrand
is excluded by construction.

Polar axis. On a radial problem the density depends on time alone, so
phi must return a scalar, and the layer and the surface bound are
invariant under rotations of the sphere. Every sphere point is rotated
onto the polar axis, to (0, 0, |x|) (jump_check's normal rotates with
its point), where every point of a polar ring is the same distance away
and the rule is exact in azimuth. So the sphere rule holds one node per
ring, its azimuth-0 node, weighted with the sum of the ring's 2 m
uniform azimuthal weights: m nodes where the product rule with 2 m
azimuths holds 2 m^2, with the same sums at the pole to rounding
(2.5e-13 relative at most over m = 24 to 96). Off the axis that product
rule is coarse, since its nodes cluster at the poles: at the equator
its m = 48 jump check reads -0.678, not -0.50098, and its a = 1 surface
bound does not converge by m = 64. The circle rule keeps its m nodes
and its points.

Time integration of the layer grades geometric panels toward tau = t,
where (t - tau)^{-n/2} concentrates; four-point Gauss per panel then
keeps the product rule accurate down to the panel floor.

Layer sums compute only what can be nonzero. Away from the layer most
sigma columns have exponents -|x - y|^2/(4 sigma) far below EXP_ZERO,
where exp is exactly 0.0. A column is skipped only if its kernel is
exactly zero, its largest exponent below EXP_ZERO, and its density is
finite, so a NaN or inf density still reaches the sum. Inside the live
columns exp runs only where the exponent is above EXP_ZERO, and the
entries at or below it are set to 0.0, which is what exp returns
there. On numpy 2.4.6 (2-core Xeon) exp costs 1.4 ns per argument
at -1 but 22 ns at -746 and below and 120-200 ns in the subnormal
band between -708 and -746. Every entry goes through the same
elementwise operations in the same order, so no bit changes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadRadius, BadTime, BadWindow, ConfigError, ResolutionError

PANEL_NODES = 4
_GAUSS = np.polynomial.legendre.leggauss(PANEL_NODES)

# jump_check refuses approach distances closer to the layer than this
# multiple of the nearest quadrature node: below that the discrete sum
# is smooth across the boundary and the jump is invisible by
# construction, so values there would only pollute the extrapolation.
RESOLUTION_FACTOR = 2.0

CONVERGENCE_RTOL = 1e-3
SPHERE_TOL = 1e-9

# np.exp of any float64 at or below this is exactly 0.0, so a heat
# kernel sigma column whose largest exponent lies below it is all zeros.
EXP_ZERO = -746.0


def heat_kernel(x, t, n: int):
    """Fundamental solution (4 pi t)^{-n/2} exp(-|x|^2/(4t)).

    x is a single point (1-D array of length n) or a scalar standing
    for the distance |x|; any other shape is refused with ValueError.
    t may be a scalar or an array.
    """
    if n < 1:
        raise ValueError(f"dimension n = {n} must be at least 1")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise BadTime("the kernel lives on finite t > 0")
    x = np.asarray(x, dtype=float)
    if x.shape not in ((), (n,)):
        raise ValueError(
            f"x of shape {x.shape} is neither a distance, shape (), nor a "
            f"point in dimension n = {n}, shape ({n},)"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point x = {x} must be finite")
    r2 = float(x * x) if x.ndim == 0 else float(x @ x)
    out = (4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-r2 / (4.0 * t))
    return float(out) if np.ndim(out) == 0 else out


# eq=False: the generated __eq__ would compare the arrays inside a tuple
@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes and positive weights summing to the surface measure of S_R.

    A sphere rule's node stands for its polar ring, so it is exact in
    azimuth at points on the polar axis, where the layer sums rotate
    every point (see the module docstring).
    """

    n: int
    R: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise ConfigError(f"surface quadrature supports n = 2 or 3, got {self.n}")
        _check_radius(self.R)
        if self.nodes.ndim != 2 or self.nodes.shape != (self.weights.size, self.n):
            raise ConfigError(
                f"nodes shape {self.nodes.shape} does not match "
                f"{self.weights.size} weights in dimension {self.n}"
            )
        if np.any(self.weights <= 0):
            raise ConfigError("quadrature weights must be positive")
        radii = np.sqrt((self.nodes**2).sum(axis=1))
        if np.any(np.abs(radii - self.R) > SPHERE_TOL * self.R):
            raise ConfigError("quadrature nodes do not lie on the sphere")
        measure = self.surface_measure
        if abs(float(self.weights.sum()) - measure) > 1e-12 * measure:
            raise ConfigError(
                f"weights sum to {self.weights.sum()!r}, surface measure is {measure!r}"
            )

    @property
    def M_q(self) -> int:
        return int(self.weights.size)

    @property
    def surface_measure(self) -> float:
        return 2.0 * math.pi * self.R if self.n == 2 else 4.0 * math.pi * self.R**2


def _check_radius(R: float) -> None:
    if not (math.isfinite(R) and R > 0):
        raise ConfigError(f"radius R = {R} must be positive and finite")
    # float products give inf where R**2 would raise OverflowError
    if not math.isfinite(4.0 * math.pi * R * R):
        raise ConfigError(
            f"radius R = {R} is too large: the sphere's measure 4 pi R^2 "
            f"overflows float64"
        )
    if R * R < sys.float_info.min:
        raise ConfigError(f"radius R = {R} is too small: R^2 underflows float64")


def circle_quadrature(R: float, m: int) -> SphereQuadrature:
    """Midpoint rule on m equal arcs; no node sits at angle zero."""
    _check_radius(R)
    if m < 4:
        raise ConfigError(f"m = {m} arcs is too few, need at least 4")
    angles = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    nodes = R * np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(m, 2.0 * math.pi * R / m)
    return SphereQuadrature(n=2, R=R, nodes=nodes, weights=weights)


def sphere_quadrature(R: float, m: int) -> SphereQuadrature:
    """m polar rings at Gauss-Legendre nodes in s = sin(theta/2), each its
    azimuth-0 node weighted with the sum of 2m uniform azimuthal weights."""
    _check_radius(R)
    if m < 4:
        raise ConfigError(f"m = {m} polar rings is too few, need at least 4")
    xg, wg = np.polynomial.legendre.leggauss(m)
    s = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    sin_theta = 2.0 * s * np.sqrt(1.0 - s**2)
    cos_theta = 1.0 - 2.0 * s**2
    nodes = np.column_stack([R * sin_theta, np.zeros(m), R * cos_theta])
    azimuthal = 4.0 * R**2 * s * ws * (math.pi / m)
    weights = np.broadcast_to(azimuthal[:, None], (m, 2 * m)).sum(axis=1)
    return SphereQuadrature(n=3, R=R, nodes=nodes, weights=weights)


def _sigma_panels(t: float, t1: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for int_0^{t - t1} d sigma, panels halving
    toward sigma = 0 and the last panel closing the gap to zero."""
    if not (math.isfinite(t1) and math.isfinite(t)):
        raise BadWindow(f"need finite t1 and t, got t1 = {t1}, t = {t}")
    if t1 >= t:
        raise BadWindow(f"need t1 < t, got t1 = {t1}, t = {t}")
    if not math.isfinite(t - t1):
        raise BadWindow(f"need a finite width t - t1, got t1 = {t1}, t = {t}")
    if steps < 4:
        raise ValueError(f"steps = {steps} is too few panels, need at least 4")
    # the smallest node is h (1 + x_0), h = (t - t1) 2^-steps the last
    # panel's half width. Halving is exact while it stays normal, and
    # 0.5 ** k is zero past k = 1074, so past `usable` panels that node
    # is below the smallest normal float64: subnormal and inexact, or
    # zero, where the kernel is singular. Refused before any allocation.
    usable = min(math.frexp((t - t1) + (t - t1) * _GAUSS[0][0])[1] + 1021, 1075)
    if steps > usable:
        raise ValueError(
            f"steps = {steps} panels halve the window {t1:g} to {t:g} below "
            f"float64's normal range; at most {usable} keep its nodes normal"
        )
    uppers = (t - t1) * 0.5 ** np.arange(steps)
    lowers = np.append(uppers[1:], 0.0)
    # halved before the sum, so a window near the float64 maximum does not
    # overflow; halving a normal float is exact, so this rounds as
    # 0.5 * (uppers + lowers) does
    mid = 0.5 * uppers + 0.5 * lowers
    half = 0.5 * uppers - 0.5 * lowers
    xg, wg = _GAUSS
    sigma = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    omega = (half[:, None] * wg[None, :]).ravel()
    return sigma, omega


def _inside(x: np.ndarray, quad: SphereQuadrature) -> None:
    if x.shape != (quad.n,):
        raise BadRadius(f"point shape {x.shape} does not match dimension {quad.n}")
    # "not <=" refuses a NaN coordinate too
    if not float(x @ x) <= (quad.R * (1.0 + SPHERE_TOL)) ** 2:
        raise BadRadius(f"|x| = {math.sqrt(float(x @ x)):.6g} is outside the ball")


def _on_axis(x: np.ndarray) -> np.ndarray:
    """A sphere point rotated onto the polar axis, (0, 0, |x|); a circle
    point as it is."""
    if x.size == 2:
        return x
    return np.array([0.0, 0.0, math.sqrt(float(x @ x))])


def _density(phi: Callable, points: np.ndarray, taus) -> np.ndarray:
    """phi(points, tau) at each tau, one value each: on a radial problem
    the density depends on time alone, so any other return is refused."""
    values = [phi(points, tau) for tau in taus]
    if any(np.ndim(value) for value in values):
        raise ValueError(
            "phi must return a scalar: a radial density depends on time alone"
        )
    return np.array(values, dtype=float)


def _magnitude(density: np.ndarray) -> float:
    """The largest finite |density|."""
    return float(np.abs(density[np.isfinite(density)]).max(initial=0.0))


def _layer_sum(
    x: np.ndarray,
    quad: SphereQuadrature,
    sigma: np.ndarray,
    omega: np.ndarray,
    density: np.ndarray,
    eta: np.ndarray | None = None,
) -> float:
    """The layer at x as a kernel sum with one density value per sigma node.

    With a unit vector eta the kernel is differentiated along eta in x,
    giving the layer's normal derivative. At a boundary point x that
    integrand behaves like 1/|x - y|, the borderline the polar rule
    integrates exactly, so this converges where one-sided finite
    differences at the boundary stall.

    Only the live sigma columns are summed (see the module docstring);
    a dead column contributes an exact zero to the sum over omega.
    Within the live columns exp runs only on exponents above EXP_ZERO,
    and the rest are set to the 0.0 that exp would return there, so
    they skip numpy's slow path for tiny arguments.
    """
    vec = x - quad.nodes
    d2 = (vec**2).sum(axis=1)
    live = ~((-d2.min() / (4.0 * sigma) < EXP_ZERO) & np.isfinite(density))
    s = sigma[live]
    kernel = -d2[:, None] / (4.0 * s)
    # "<=" lets a NaN exponent through exp
    dead = kernel <= EXP_ZERO
    np.exp(kernel, out=kernel, where=~dead)
    kernel[dead] = 0.0
    kernel *= (4.0 * np.pi * s) ** (-quad.n / 2.0)
    if eta is not None:
        kernel *= -(vec @ eta)[:, None] / (2.0 * s)
    kernel *= density[live]
    columns = np.zeros(sigma.size)
    columns[live] = quad.weights @ kernel
    return float(columns @ omega)


def single_layer(
    x,
    t: float,
    phi: Callable,
    t1: float,
    quad: SphereQuadrature,
    steps: int = 48,
) -> float:
    """Single-layer heat potential over S_R x [t1, t] evaluated at (x, t).

    phi(points, tau) is called with the rule's (M, n) nodes and each
    time node and must return a scalar, else ValueError: the density of
    a radial problem depends on time alone. A sphere point is evaluated
    at its rotation onto the polar axis (see the module docstring).
    Evaluation exactly on a quadrature node makes the kernel singular
    and returns inf; the nodes never include the poles, so polar-axis
    evaluation is safe. Where R and the window make the kernel scale
    overflow float64, or a finite density is large enough to overflow
    the sum, it raises ConfigError rather than return an inf or a NaN;
    a panel count that halves the window below float64's normal range
    raises ValueError.
    """
    sigma, omega = _sigma_panels(t, t1, steps)
    x = np.asarray(x, dtype=float)
    _inside(x, quad)
    density = _density(phi, quad.nodes, t - sigma)
    # at the scale-free window 0.05 R^2, R below about 6e-100 overflows
    # the kernel scale; a NaN or inf density raises no overflow, so it
    # still reaches the sum
    try:
        with np.errstate(over="raise"):
            return _layer_sum(_on_axis(x), quad, sigma, omega, density)
    except FloatingPointError as exc:
        raise ConfigError(
            f"single layer at R = {quad.R:g}, window {t1:g} to {t:g} and "
            f"density magnitude up to {_magnitude(density):g} leaves "
            f"float64 range: {exc}"
        ) from exc


@dataclass(frozen=True)
class JumpReport:
    """Boundary normal derivative minus its interior limit, vs -phi/2."""

    jump: float
    target: float
    boundary_term: float
    interior_limit: float
    distances: np.ndarray
    derivatives: np.ndarray
    resolution: float
    passed: bool


def jump_check(
    x0,
    phi: Callable,
    t: float,
    quad: SphereQuadrature,
    approach_distances: Sequence[float],
    steps: int = 48,
    tol_jump: float = 0.05,
) -> JumpReport:
    """Measure the -phi/2 jump of the single layer's normal derivative.

    The layer spans S_R x [0, t]. Crossing it from inside, the normal
    derivative's boundary principal value sits half a density below its
    interior limit. The check walks x = x0 - d eta inward along the outward normal eta,
    takes a centered difference of the potential at each d (step d/8),
    fits a polynomial in d to extrapolate the interior limit, and
    subtracts that from the direct boundary quadrature; the difference
    should be -phi(x0, t)/2 whatever R and t are. phi is called and
    checked as in single_layer, and a sphere point x0 is rotated onto
    the polar axis, its normal with it. Where R, t and the
    distances make the kernel scale, the slope factor or the fit's
    powers of d overflow float64, or a finite density is large enough to
    overflow the sums, the check raises ConfigError rather than report
    from an inf.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (quad.n,):
        raise BadRadius(f"point shape {x0.shape} does not match dimension {quad.n}")
    r0 = math.sqrt(float(x0 @ x0))
    if not abs(r0 - quad.R) <= SPHERE_TOL * quad.R:
        raise BadRadius(f"|x0| = {r0:.6g} is not on the sphere of radius {quad.R}")
    d = np.asarray(approach_distances, dtype=float)
    if d.size == 0 or not np.all(np.isfinite(d) & (d > 0)) or np.any(np.diff(d) >= 0):
        raise ValueError(
            "approach distances must be finite, positive and strictly decreasing"
        )
    if not (math.isfinite(tol_jump) and tol_jump >= 0):
        raise ValueError(f"tol_jump = {tol_jump} must be finite and nonnegative")
    x0 = _on_axis(x0)
    near = math.sqrt(float(((quad.nodes - x0) ** 2).sum(axis=1).min()))
    resolution = RESOLUTION_FACTOR * near
    if d.min() < resolution:
        raise ResolutionError(
            f"approach distance {d.min():.3g} is below the quadrature "
            f"resolution scale {resolution:.3g}; refine the quadrature "
            f"or stop farther out"
        )
    eta = x0 / r0
    # every evaluation shares t and the sigma panels, so one density
    sigma, omega = _sigma_panels(t, 0.0, steps)
    density = _density(phi, quad.nodes, t - sigma)

    def u_at(dist: float) -> float:
        x = x0 - dist * eta
        _inside(x, quad)
        return _layer_sum(x, quad, sigma, omega, density)

    # with the CLI's scale-free defaults, R above about 7e77 overflows the
    # fit's powers of d, and R below about 3e-76 the slope factor or the
    # kernel scale; a finite density near the float64 maximum overflows
    # the sums, while a NaN or inf density raises no overflow, so it
    # still reaches the sums
    try:
        with np.errstate(over="raise"):
            derivs = np.empty(d.size)
            for i, di in enumerate(d):
                h = di / 8.0
                derivs[i] = (u_at(di - h) - u_at(di + h)) / (2.0 * h)
            boundary = _layer_sum(x0, quad, sigma, omega, density, eta=eta)
            fit = np.polynomial.polynomial.polyfit(d, derivs, min(2, d.size - 1))
    except FloatingPointError as exc:
        raise ConfigError(
            f"jump check at R = {quad.R:g}, window {t:g}, distances "
            f"{d[0]:g} to {d[-1]:g} and density magnitude up to "
            f"{_magnitude(density):g} leaves float64 range: {exc}"
        ) from exc
    interior_limit = float(fit[0])
    jump = boundary - interior_limit

    target = -0.5 * float(_density(phi, x0[None, :], [t])[0])
    return JumpReport(
        jump=jump,
        target=target,
        boundary_term=boundary,
        interior_limit=interior_limit,
        distances=d,
        derivatives=derivs,
        resolution=resolution,
        passed=bool(abs(jump - target) <= tol_jump),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Surface-bound values over a refinement sequence of quadratures."""

    values: np.ndarray
    rel_changes: np.ndarray
    converged: bool
    diverging: bool
    limit: float


def surface_integral_bound(
    x, a: float, quads: Sequence[SphereQuadrature]
) -> ConvergenceReport:
    """Evaluate int_{S_R} |x - y|^{-a} ds_y over refining quadratures.

    A sphere point is rotated onto the polar axis, where the rule is
    exact in azimuth. Bounded uniformly exactly for a < n - 1 even with
    x on the sphere; at and above that threshold the refinements grow
    without saturating. converged means the last two refinements agree to
    CONVERGENCE_RTOL; diverging means the values only ever grew and the
    last pair still disagrees.
    """
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"exponent a = {a} must be finite and nonnegative")
    if len(quads) < 2:
        raise ValueError("need at least two refinement levels")
    n, R = quads[0].n, quads[0].R
    if any(q.n != n or q.R != R for q in quads):
        raise ValueError("refinement sequence mixes dimensions or radii")
    x = np.asarray(x, dtype=float)
    _inside(x, quads[0])
    x = _on_axis(x)

    values = np.empty(len(quads))
    for k, quad in enumerate(quads):
        dist = np.sqrt(((quad.nodes - x) ** 2).sum(axis=1))
        values[k] = float(quad.weights @ dist**-a)
    rel = np.abs(np.diff(values)) / np.maximum(np.abs(values[1:]), 1e-300)
    converged = bool(rel[-1] < CONVERGENCE_RTOL)
    diverging = bool(not converged and np.all(np.diff(values) > 0))
    return ConvergenceReport(
        values=values,
        rel_changes=rel,
        converged=converged,
        diverging=diverging,
        limit=float(values[-1]) if converged else float("nan"),
    )
