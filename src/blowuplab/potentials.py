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
against the exact surface element ds = 4 R^2 s ds dphi, with a uniform
azimuth. The s variable is chosen because the chord distance from the
north pole is exactly 2 R s: the integrand of the a = 1 surface bound
becomes a constant in s and the quadrature reproduces 4 pi R with no
discretization error at all, while the endpoint clustering of the
Legendre nodes resolves the near-pole region at scale R/m^2, which is
what the jump check needs when it walks toward the boundary. Neither
rule ever places a node on the pole itself, so the singular point of
the surface-bound integrand is excluded by construction.

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
band between -708 and -746, and at m = 64 a third to two thirds of the
live entries of a jump check sit at or below EXP_ZERO. Every entry
goes through the same elementwise operations in the same order, so no
bit changes.

Polar rings. On a radial problem the density depends on time alone, and
at a point on the polar axis every node of a polar ring of the sphere
rule is the same distance from the point, so the layer sum over the
2 m^2 nodes is a sum over m rings. `single_layer` and `jump_check` sum
over rings when all three of these hold:

1. the rule came from `sphere_quadrature`, which lays its nodes out
   ring by ring and records the ring size (a circle rule, a hand-built
   rule or a `dataclasses.replace` copy keeps the full sum, even where
   its layout is exactly ring by ring);
2. the point is on the polar axis: x[0] == x[1] == 0 exactly, and so is
   eta where eta is given (`jump_check` walks along x0's normal, so
   checking x0 is enough);
3. phi returned a scalar at every sigma node, so the density is
   constant in space (an array return keeps the full sum, even one
   constant on every ring).

The reduced rule keeps each ring's first node and the ring's weight
sum, and `_layer_sum` runs on it unchanged. The sum moves by rounding
only. Within a ring z and the weights are bit-equal and x^2 + y^2
agrees with the ring's first node to 4 ulp (the tests check this), so
a node's kernel entry moves by at most 4 eps |exponent| relative
(exponent above -746), and the reordered sums round differently. Over
3,000 random draws of m, R, t, the axis point and eta the reduced sum
stayed within 8e-14 of the sum of |w K density| (the property test
asserts 1e-12), and the reports of `jump_check` at m = 24 to 96 move by
at most 2.5e-13 relative.

A scalar density is stored as one row and handed out broadcast over the
rule's nodes, on the axis or off it, so its block costs one float per
sigma node and each product reads the numbers a filled block holds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
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

# node rows per block of a layer sum's elementwise passes: at the 113
# live columns of an m = 64 boundary evaluation a block is 0.46 MB, so
# it stays in cache from the exponent to the density product, and the
# block's slice of the column-major density block is contiguous per column
KERNEL_BLOCK_ROWS = 512


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


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and positive weights summing to the surface measure of S_R."""

    n: int
    R: float
    nodes: np.ndarray
    weights: np.ndarray
    # nodes per polar ring, recorded by sphere_quadrature; 0 for any other
    # rule, a replace() copy included, whose layer sums take every node
    _ring_nodes: int = field(default=0, init=False, compare=False, repr=False)

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

    @cached_property
    def _ring_rule(self) -> SphereQuadrature:
        """Each polar ring's first node with the ring's weight sum."""
        k = self._ring_nodes
        return SphereQuadrature(
            n=self.n, R=self.R, nodes=self.nodes[::k],
            weights=self.weights.reshape(-1, k).sum(axis=1),
        )


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
    """Product rule with m Gauss-Legendre nodes in s = sin(theta/2) and
    2m uniform azimuths; 2 m^2 nodes total."""
    _check_radius(R)
    if m < 4:
        raise ConfigError(f"m = {m} polar nodes is too few, need at least 4")
    xg, wg = np.polynomial.legendre.leggauss(m)
    s = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    c = np.sqrt(1.0 - s**2)
    sin_theta = 2.0 * s * c
    cos_theta = 1.0 - 2.0 * s**2
    phi = np.arange(2 * m) * (math.pi / m)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    nodes = np.empty((m * 2 * m, 3))
    nodes[:, 0] = R * np.outer(sin_theta, cos_phi).ravel()
    nodes[:, 1] = R * np.outer(sin_theta, sin_phi).ravel()
    nodes[:, 2] = R * np.repeat(cos_theta, 2 * m)
    weights = np.repeat(4.0 * R**2 * s * ws, 2 * m) * (math.pi / m)
    quad = SphereQuadrature(n=3, R=R, nodes=nodes, weights=weights)
    object.__setattr__(quad, "_ring_nodes", 2 * m)
    return quad


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


def _density_block(
    phi: Callable,
    quad: SphereQuadrature,
    t: float,
    sigma: np.ndarray,
    x: np.ndarray | None = None,
    eta: np.ndarray | None = None,
) -> tuple[SphereQuadrature, np.ndarray, np.ndarray]:
    """The rule a layer sum at x runs on, phi on its nodes at every sigma
    node, and which sigma columns are finite.

    phi is called once per sigma column on every node. A scalar return
    is constant in space, so while every return is a scalar the block is
    one row, handed out broadcast over the rule's nodes; from a point on
    the polar axis (and eta, where given) that rule is the ring rule of
    a rule with polar rings (conditions 2 and 3 of the module
    docstring). From the first array return every node is stored, and
    the rule is quad. The full block is column-major, so filling a sigma
    column and taking the live columns copy contiguous memory.
    """
    row = np.empty((1, sigma.size))
    block = None
    for g, tau in enumerate(t - sigma):
        values = phi(quad.nodes, tau)
        if block is None:
            if np.ndim(values) == 0:
                row[0, g] = values
                continue
            block = np.empty((quad.M_q, sigma.size), order="F")
            block[:, :g] = row[:, :g]
        block[:, g] = values
    if block is not None:
        return quad, block, np.isfinite(block).all(axis=0)
    on_axis = x is not None and x[0] == x[1] == 0.0 and (
        eta is None or eta[0] == eta[1] == 0.0
    )
    rule = quad._ring_rule if on_axis and quad._ring_nodes else quad
    return rule, np.broadcast_to(row, (rule.M_q, sigma.size)), np.isfinite(row[0])


def _magnitude(density: np.ndarray, finite: np.ndarray) -> float:
    """The largest |density| over the finite sigma columns; a broadcast
    row is read once."""
    if not density.strides[0]:
        density = density[:1]
    return float(np.abs(density[:, finite]).max(initial=0.0))


def _layer_sum(
    x: np.ndarray,
    quad: SphereQuadrature,
    sigma: np.ndarray,
    omega: np.ndarray,
    density: np.ndarray,
    finite: np.ndarray,
    eta: np.ndarray | None = None,
) -> float:
    """The layer at x as a kernel sum over the density block.

    With a unit vector eta the kernel is differentiated along eta in x,
    giving the layer's normal derivative. At a boundary point x that
    integrand behaves like 1/|x - y|, the borderline the polar rule
    integrates exactly, so this converges where one-sided finite
    differences at the boundary stall.

    Only the live sigma columns are summed (see the module docstring);
    a dead column contributes an exact zero to the sum over omega.
    Within the live columns exp runs only on exponents above EXP_ZERO,
    and the rest are set to the 0.0 that exp would return there, so
    they skip numpy's slow path for tiny arguments. The elementwise
    passes run over blocks of KERNEL_BLOCK_ROWS node rows, each entry
    through the same operations in the same order, and one matvec
    reduces the whole C-ordered kernel, so the result has the bits of
    a single pass over the full kernel.
    """
    vec = x - quad.nodes
    d2 = (vec**2).sum(axis=1)
    live = ~((-d2.min() / (4.0 * sigma) < EXP_ZERO) & finite)
    s = sigma[live]
    minus_d2, four_s = -d2[:, None], 4.0 * s
    scale = (4.0 * np.pi * s) ** (-quad.n / 2.0)
    slope = None if eta is None else -(vec @ eta)[:, None]
    kernel = np.empty((d2.size, s.size))
    for start in range(0, d2.size, KERNEL_BLOCK_ROWS):
        rows = slice(start, start + KERNEL_BLOCK_ROWS)
        block = kernel[rows]
        np.divide(minus_d2[rows], four_s, out=block)
        # "<=" lets a NaN exponent through exp
        dead = block <= EXP_ZERO
        np.exp(block, out=block, where=~dead)
        np.copyto(block, 0.0, where=dead)
        block *= scale
        if slope is not None:
            block *= slope[rows] / (2.0 * s)
        block *= density[rows, live]
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

    phi(points, tau) must accept an (M, n) node block and a scalar time
    and return a scalar or an (M,) array. Evaluation exactly on a
    quadrature node makes the kernel singular and returns inf; the
    nodes never include the poles, so polar-axis evaluation is safe.
    A scalar return is constant in space and stored as one row; there it
    is summed over the polar rings (see the module docstring). Where R
    and the window make the kernel scale overflow float64, or a finite
    density is large enough to overflow the sum, it raises ConfigError
    rather than return an inf or a NaN; a panel count that halves the
    window below float64's normal range raises ValueError.
    """
    sigma, omega = _sigma_panels(t, t1, steps)
    x = np.asarray(x, dtype=float)
    _inside(x, quad)
    rule, density, finite = _density_block(phi, quad, t, sigma, x)
    # at the scale-free window 0.05 R^2, R below about 6e-100 overflows
    # the kernel scale; a NaN or inf density raises no overflow, so it
    # still reaches the sum
    try:
        with np.errstate(over="raise"):
            return _layer_sum(x, rule, sigma, omega, density, finite)
    except FloatingPointError as exc:
        raise ConfigError(
            f"single layer at R = {quad.R:g}, window {t1:g} to {t:g} and "
            f"density magnitude up to {_magnitude(density, finite):g} leaves "
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
    should be -phi(x0, t)/2 whatever R and t are. A density phi returns
    as a scalar is stored as one row, and from a pole it is summed over
    the polar rings (see the module docstring). Where R, t and the
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
    # block; eta and the walk stay on the polar axis with x0
    sigma, omega = _sigma_panels(t, 0.0, steps)
    rule, density, finite = _density_block(phi, quad, t, sigma, x0)

    def u_at(dist: float) -> float:
        x = x0 - dist * eta
        _inside(x, quad)
        return _layer_sum(x, rule, sigma, omega, density, finite)

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
            boundary = _layer_sum(x0, rule, sigma, omega, density, finite, eta=eta)
            fit = np.polynomial.polynomial.polyfit(d, derivs, min(2, d.size - 1))
    except FloatingPointError as exc:
        raise ConfigError(
            f"jump check at R = {quad.R:g}, window {t:g}, distances "
            f"{d[0]:g} to {d[-1]:g} and density magnitude up to "
            f"{_magnitude(density, finite):g} leaves float64 range: {exc}"
        ) from exc
    interior_limit = float(fit[0])
    jump = boundary - interior_limit

    phi0 = float(np.asarray(phi(x0[None, :], t)).reshape(-1)[0])
    target = -0.5 * phi0
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

    Bounded uniformly exactly for a < n - 1 even with x on the sphere;
    at and above that threshold the refinements grow without
    saturating. converged means the last two refinements agree to
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
