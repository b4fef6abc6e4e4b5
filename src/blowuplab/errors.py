"""Exception types shared across the package.

Everything derives from BlowupLabError so callers can catch the whole
family at the CLI boundary without masking genuine bugs.
"""


class BlowupLabError(Exception):
    pass


class DegenerateExponents(BlowupLabError):
    """Raised when p*q <= 1, where the rate exponents are undefined."""


class FluxOverflow(BlowupLabError):
    """Flux exponent argument reached the overflow guard.

    In a run only the initial data can get there: u_stop lies below the
    guard and each stepped state's threshold test runs before its flux.
    """


class InvalidInitialData(BlowupLabError):
    """Initial data non-finite, negative, all zero or failing a structural check."""


class GridTooCoarse(BlowupLabError):
    pass


class StepUnderflow(BlowupLabError):
    """The step cannot advance t: dt < 1e-16 * dr^2, or t + dt == t."""


class NumericalBlowupGuard(BlowupLabError):
    """Non-finite field values produced by a step."""


class FitFailed(BlowupLabError):
    pass


class BadRadius(BlowupLabError):
    pass


class BadTime(BlowupLabError):
    pass


class BadWindow(BlowupLabError):
    pass


class ResolutionError(BlowupLabError):
    """Requested evaluation finer than the quadrature can resolve."""


class ParamsTooStiff(BlowupLabError):
    """ODE series overflowed before enough samples were collected."""


class DominanceViolated(BlowupLabError):
    """Comparison function dipped below the numerical solution.

    Usually means the run is under-resolved or the fitted horizon is
    off, not that the bound itself fails; the message carries the worst
    margin and where it occurred.
    """


class ConfigError(BlowupLabError):
    pass
