"""Problem parameters, derived exponents, and the shared error taxonomy.

The problem under study is the critical-exponent equation on the unit ball,

    -Delta u = lambda * u + |u|^(2*-2) * u   in B_1 c R^n,   u = 0 on dB_1,

with 2* = 2n/(n-2) the critical Sobolev exponent.  Every other module works
with a `Params` instance; all quantities are dimensionless and everything is
64-bit floating point.

Derived exponents, all functions of n alone (the `Params` properties):

    two_star = 2n/(n-2)
    beta     = 2/(n-2)          inner rescaling exponent, y = M^beta x
    rate_exp = 2 - 2*beta       growth-rate exponent (2n-8)/(n-2)
    green_exp = (n-2)/(2n-8)    divergence order of the annulus amplitude,
                                defined only for n >= 5
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Error(Exception):
    """Base class for all package errors.

    `code` is a stable, machine-readable slug; the CLI prints it and maps it
    to exit codes.
    """

    code = "error"


class InvalidDimension(Error):
    code = "invalid-dimension"


class UndefinedExponent(Error):
    code = "undefined-exponent"


class NonpositiveLambda(Error):
    code = "nonpositive-lambda"


class InvalidLambda(Error):
    code = "invalid-lambda"


class SingularPoint(Error):
    code = "singular-point"


class IntegrationFailed(Error):
    code = "integration-failed"

    def __init__(self, message: str, last_radius: float | None = None):
        super().__init__(message)
        self.last_radius = last_radius


class BlowUpDetected(Error):
    code = "blow-up-detected"


class NoBracketFound(Error):
    code = "no-bracket-found"

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class NonconvergentBisection(Error):
    code = "nonconvergent-bisection"


class CertificationFailed(Error):
    code = "certification-failed"


class MissingInteriorZero(Error):
    code = "missing-interior-zero"


class MissingMinimum(Error):
    code = "missing-minimum"


class UndefinedConstants(Error):
    code = "undefined-constants"


class UndefinedResidual(Error):
    code = "undefined-residual"


class OutOfDomain(Error):
    code = "out-of-domain"


class EmptyWindow(Error):
    code = "empty-window"


class EmptyDomain(Error):
    code = "empty-domain"


class RegionEmpty(Error):
    code = "region-empty"


class EpsilonOutOfRange(Error):
    code = "epsilon-out-of-range"


class ConfigError(Error):
    code = "config-parse-error"


class InsufficientRecords(ConfigError):
    """Too few records for a report: an input error, as a ConfigError."""

    code = "insufficient-records"


class FileIOError(Error):
    code = "file-io-error"


def check_dimension(n) -> None:
    """Raise InvalidDimension unless n is an integer >= 3."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidDimension(f"dimension must be an integer, got {n!r}")
    if n < 3:
        raise InvalidDimension(f"dimension must be >= 3, got {n}")


@dataclass(frozen=True)
class Params:
    """Problem instance: dimension n and coefficient lambda.

    lam = 0 is admitted so the pure critical equation (whose explicit
    ground state is the standard bubble) can serve as an integrator oracle;
    boundary-value solving additionally requires 0 < lam < lambda_1(B_1),
    which `shooting.solve_nodal` checks.  A non-finite lam raises
    InvalidLambda and a negative one NonpositiveLambda, the code
    solve_nodal gives lam = 0.
    """

    n: int
    lam: float

    def __post_init__(self):
        check_dimension(self.n)
        if not math.isfinite(self.lam):
            raise InvalidLambda(f"lambda must be finite and >= 0, got {self.lam}")
        if self.lam < 0.0:
            raise NonpositiveLambda(f"lambda must be >= 0, got {self.lam}")

    @property
    def two_star(self) -> float:
        return 2.0 * self.n / (self.n - 2.0)

    @property
    def beta(self) -> float:
        return 2.0 / (self.n - 2.0)

    @property
    def rate_exp(self) -> float:
        return 2.0 - 2.0 * self.beta

    @property
    def green_exp(self) -> float:
        # (n-2)/(2n-8) divides by zero at n=4 and is meaningless below n=5.
        if self.n < 5:
            raise UndefinedExponent(
                "green_exp = (n-2)/(2n-8) is defined only for n >= 5"
            )
        return (self.n - 2.0) / (2.0 * self.n - 8.0)


@dataclass(frozen=True)
class NodalFeatures:
    """Scalar features of a radial solution with two nodal regions.

    r_lambda is the node (sign-change radius), s_lambda the global minimum
    point in (r_lambda, 1), m_plus = u(0), m_minus = |u(s_lambda)|.
    du_node and du_boundary are u'(r_lambda) and u'(1).  sigma, rho, gamma
    are the rescaling radii M_+^beta r, M_-^beta r, M_-^beta s.
    """

    r_lambda: float
    s_lambda: float
    m_plus: float
    m_minus: float
    du_node: float
    du_boundary: float
    sigma: float
    rho: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.r_lambda < self.s_lambda < 1.0):
            raise Error(
                "nodal structure violated: need 0 < r_lambda < s_lambda < 1, "
                f"got r_lambda={self.r_lambda}, s_lambda={self.s_lambda}"
            )
        if self.m_plus <= 0.0 or self.m_minus <= 0.0:
            raise Error("extrema m_plus, m_minus must be positive")
        if self.du_node >= 0.0:
            raise Error("u'(r_lambda) must be negative at the node")
        if self.du_boundary <= 0.0:
            raise Error("u'(1) must be positive (negative part returning to zero)")


def check_lambda_grid(grid) -> None:
    """Raise ConfigError unless the lambda grid is finite, positive and
    strictly decreasing, checked in that order."""
    # NaN fails every comparison, so the order check alone would pass it
    if not all(math.isfinite(lam) for lam in grid):
        raise ConfigError(f"lambda grid must be finite, got {list(grid)}")
    if not all(lam > 0.0 for lam in grid):
        raise ConfigError(f"lambda grid must be positive, got {list(grid)}")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("lambda grid must be strictly decreasing")
