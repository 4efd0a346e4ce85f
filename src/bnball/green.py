"""Green function of the Laplacian on the unit ball with zero boundary data.

The module convention is G(x,y) = kappa_n (|x-y|^{2-n} - (|x|^2|y|^2 + 1
- 2 x.y)^{-(n-2)/2}) with kappa_n = 1/(n(2-n)omega_n), omega_n the surface
measure of the unit sphere.  The reflection term makes G vanish on the
boundary in both arguments, and the expression is symmetric in (x, y).
kappa_n is negative, so G < 0 inside the ball.
"""

from __future__ import annotations

from .bubble import omega_n
from .model import InvalidDimension, OutOfDomain


def kappa(n: int) -> float:
    """The normalization constant 1/(n(2-n)omega_n); negative for n >= 3."""
    if n < 3:
        raise InvalidDimension(f"Green kernel needs n >= 3, got {n}")
    return 1.0 / (n * (2.0 - n) * omega_n(n))


def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 < r < 1.0:
        raise OutOfDomain(f"radius must lie in (0,1), got {r}")
    return r


def green_at_center(n: int, r: float) -> float:
    """G(x, 0) for |x| = r: kappa_n (r^{2-n} - 1), zero at the boundary."""
    r = _check_radius(r)
    return kappa(n) * (r ** (2.0 - n) - 1.0)


def green_gradient_at_center(n: int, r: float) -> float:
    """Radial derivative of G(.,0): kappa_n (2-n) r^{1-n}, positive."""
    r = _check_radius(r)
    return kappa(n) * (2.0 - n) * r ** (1.0 - n)


def unit_source_green_at_center(n: int, r: float) -> float:
    """G(x,0) normalized so a unit point source at the origin is reproduced.

    A kernel c r^{2-n} pushes flux omega_n (2-n) c through every sphere
    around the origin, so Delta G = delta needs c = 1/((2-n) omega_n): n
    times the surface-measure constant kappa_n used by green_at_center.
    The small-lambda profile limit of the solutions is proportional to this
    normalization, which is what the representation formula
    u(x) = -int G(x,y) (Delta u)(y) dy produces.
    """
    return float(n) * green_at_center(n, r)


def unit_source_green_gradient_at_center(n: int, r: float) -> float:
    """Radial derivative matching unit_source_green_at_center."""
    return float(n) * green_gradient_at_center(n, r)

