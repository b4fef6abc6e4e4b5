"""Problem definition for coupled radial heat equations with boundary flux.

Two fields u, v evolve under the radial heat operator on a ball of radius
R in dimension n. They are coupled only through the outward normal flux at
r = R, where each field's flux is a nonlinear function of the other field's
boundary value. Three flux families are supported:

    exp_power   flux(w) = exp(w**e)   (e > 1)
    power       flux(w) = w**e        (e > 1)
    exp_linear  flux(w) = exp(e * w)  (e > 0)

where e is the exponent attached to the driving field (p acts on v, q acts
on u). For exp_power and power the pair (p, q) defines rate exponents

    alpha = (p + 1) / (p*q - 1),   beta = (q + 1) / (p*q - 1)

which control the expected growth of boundary maxima near blow-up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateExponents,
    FluxOverflow,
    GridTooCoarse,
    InvalidInitialData,
)

# exp() overflows float64 near 709.78; stop well short of it
EXP_GUARD = 700.0

MIN_NODES = 16


def rate_exponents(p: float, q: float) -> tuple[float, float]:
    """Growth exponents (alpha, beta) for the exponent pair (p, q).

    alpha = (p+1)/(pq-1) governs the u series and beta = (q+1)/(pq-1) the
    v series. They satisfy p*beta = alpha + 1 and q*alpha = beta + 1.

    Raises
    ------
    DegenerateExponents
        If p*q <= 1, where no blow-up rate of this form exists.
    """
    if p * q <= 1.0:
        raise DegenerateExponents(f"p*q must exceed 1, got p={p}, q={q}")
    denom = p * q - 1.0
    return (p + 1.0) / denom, (q + 1.0) / denom


def _exp(arg: float) -> float:
    return float(np.exp(arg))


def _pow(w: float, e: float) -> float:
    try:
        return w**e
    except OverflowError:  # past float64; boundary_flux refuses inf
        return math.inf


class FluxFamily(enum.Enum):
    """The flux families, each with every fact that sets it apart.

    For a driving field with boundary value w and exponent e (p or q):
    arg(w, e) is the flux exponent argument the stop criterion watches
    (inf where w**e leaves float64), from_arg(arg) the flux, and
    arg_limit the argument at which from_arg would overflow.
    transform(M, e) is the modulus transform y in the rate law
    y = log C - s log(T - t) of the field with boundary modulus M,
    rate_targets(p, q) gives 2 s for u and v (exp_linear flattens
    e^{qM} (T - t)^{1/2}: a 1/2-rate for both), and p and q must exceed
    min_exponent.
    """

    EXP_POWER = (
        "exp_power", _pow, _exp, EXP_GUARD,
        lambda M, e: M, rate_exponents, 1,
    )
    POWER = (
        "power", _pow, float, math.inf,
        lambda M, e: np.log(M), rate_exponents, 1,
    )
    EXP_LINEAR = (
        "exp_linear", lambda w, e: e * w, _exp, EXP_GUARD,
        lambda M, e: e * M, lambda p, q: (1.0, 1.0), 0,
    )

    def __new__(cls, value, arg, from_arg, arg_limit, transform, rate_targets, low):
        member = object.__new__(cls)
        member._value_ = value
        member.arg, member.from_arg, member.arg_limit = arg, from_arg, arg_limit
        member.transform, member.rate_targets = transform, rate_targets
        member.min_exponent = low
        return member


@dataclass(frozen=True)
class QuadraticRadial:
    """Initial pair u0 = a_u + b_u r^2, v0 = a_v + b_v r^2.

    The radial derivative 2*b*r and the Laplacian, the constant 2*n*b,
    are exact, so a field is nondecreasing and subharmonic exactly when
    its b is nonnegative; validate_initial_data decides on that sign.
    """

    a_u: float = 0.5
    b_u: float = 0.5
    a_v: float = 0.5
    b_v: float = 0.5

    @property
    def symmetric(self) -> bool:
        """u0 = v0: equal coefficients, 0.0 and -0.0 alike. They give
        bit-equal fields on every accepted input, since a + b r^2 is -0.0
        only for data refused as negative or identically zero."""
        return (self.a_u, self.b_u) == (self.a_v, self.b_v)

    def evaluate(self, grid: "RadialGrid") -> tuple[np.ndarray, np.ndarray]:
        r2 = grid.r * grid.r
        return self.a_u + self.b_u * r2, self.a_v + self.b_v * r2


@dataclass(frozen=True)
class ProblemParams:
    p: float
    q: float
    R: float
    n: int
    flux: FluxFamily
    initial: QuadraticRadial

    def __post_init__(self):
        for name in ("p", "q", "R"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} must be finite")
        if self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {self.n}")
        low = self.flux.min_exponent
        if self.p <= low or self.q <= low:
            raise ValueError(
                f"{self.flux.value} requires p > {low} and q > {low}, "
                f"got p={self.p}, q={self.q}"
            )


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_i = i * dr on [0, R], dr = R / (N - 1)."""

    N: int
    R: float
    dr: float
    r: np.ndarray


@dataclass(frozen=True)
class FieldState:
    t: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ConditionCheck:
    # value is what the condition bounds below by 0 (validate_initial_data)
    name: str
    passed: bool
    value: float


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: tuple[ConditionCheck, ...]


def make_grid(R: float, N: int) -> RadialGrid:
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if N < MIN_NODES:
        raise GridTooCoarse(f"need at least {MIN_NODES} nodes, got {N}")
    dr = R / (N - 1)
    r = np.linspace(0.0, R, N)
    return RadialGrid(N=N, R=R, dr=dr, r=r)


def boundary_flux(flux: FluxFamily, w: float, e: float) -> float:
    """Outward normal flux induced by a boundary value w of the driving field.

    It computes flux.arg(w, e) itself; a NaN w gives a NaN flux.

    Parameters
    ----------
    flux : FluxFamily
        Which nonlinearity to apply.
    w : float
        Boundary value of the driving field, must be nonnegative.
    e : float
        Exponent attached to the driving field (p or q).

    Raises
    ------
    FluxOverflow
        When the exponent argument reaches the family's arg_limit: the
        overflow guard of the exponential families, or inf, which an
        overflowing w**e gives. A correctly configured run stops on its
        threshold before this can happen.
    """
    if w < 0:
        raise ValueError(f"flux argument must be nonnegative, got {w}")
    arg = flux.arg(w, e)
    if arg >= flux.arg_limit:
        raise FluxOverflow(f"exponent argument {arg:.3g} >= {flux.arg_limit}")
    return flux.from_arg(arg)


def validate_initial_data(
    spec: QuadraticRadial,
    grid: RadialGrid,
    n: int,
    params: ProblemParams | None = None,
) -> ValidationReport:
    """Check initial data against the structural conditions.

    Both fields, evaluated on the grid, must be finite, nonnegative and
    not identically zero, or InvalidInitialData is raised. A field
    a + b r^2 is nondecreasing and subharmonic exactly when b >= 0, so
    its two checks pass on that sign and carry the exact values they
    bound: f'(R) = 2 b R (monotone_*) and Delta f = 2 n b
    (subharmonic_*). With b >= 0 each rounding step of a + b r r is
    monotone, so the evaluated field peaks at r = R as well.

    When ``params`` is given, the flux each boundary value induces is
    computed too, v0's first, so data whose flux exponent argument
    already reaches the overflow guard raise FluxOverflow.
    """
    u0, v0 = spec.evaluate(grid)
    for name, f in (("u0", u0), ("v0", v0)):
        if not np.all(np.isfinite(f)):
            raise InvalidInitialData(f"{name} contains non-finite values")
        if f.min() < 0:
            raise InvalidInitialData(f"{name} is negative at node {int(f.argmin())}")
        if f.max() == 0.0:
            raise InvalidInitialData(f"{name} is identically zero")
    checks = []
    for name, b in (("u0", spec.b_u), ("v0", spec.b_v)):
        ok = bool(b >= 0)
        checks += [ConditionCheck(f"monotone_{name}", ok, 2.0 * b * grid.R),
                   ConditionCheck(f"subharmonic_{name}", ok, 2.0 * n * b)]

    if params is not None:
        boundary_flux(params.flux, float(v0[-1]), params.p)
        boundary_flux(params.flux, float(u0[-1]), params.q)
    return ValidationReport(all(c.passed for c in checks), tuple(checks))
