"""Green function of the Laplacian on the unit ball, at the origin.

The package uses one normalization: the kernel with a unit point source
at the origin.  A kernel c r^{2-n} pushes flux omega_n (2-n) c through
every sphere around the origin, so Delta G = delta needs c = 1/((2-n)
omega_n) = n kappa_n, with kappa_n = 1/(n(2-n)omega_n) and omega_n the
surface measure of the unit sphere.  Restricted to y = 0, the two-point
kernel G(x,y) = kappa_n (|x-y|^{2-n} - (|x|^2|y|^2 + 1 - 2 x.y)^{-(n-2)/2})
vanishes on the boundary and is negative inside the ball.  The
small-lambda profile limit of the solutions is proportional to the
unit-source kernel, which is what the representation formula
u(x) = -int G(x,y) (Delta u)(y) dy produces.
"""

from __future__ import annotations

from .bubble import omega_n
from .model import InvalidDimension, OutOfDomain


def _kappa_and_radius(n: int, r: float) -> tuple[float, float]:
    """kappa_n = 1/(n(2-n)omega_n), negative for n >= 3, and the radius."""
    r = float(r)
    if not 0.0 < r < 1.0:
        raise OutOfDomain(f"radius must lie in (0,1), got {r}")
    if n < 3:
        raise InvalidDimension(f"Green kernel needs n >= 3, got {n}")
    return 1.0 / (n * (2.0 - n) * omega_n(n)), r


def unit_source_green_at_center(n: int, r: float) -> float:
    """G(x,0) for |x| = r with a unit source: n kappa_n (r^{2-n} - 1)."""
    kappa, r = _kappa_and_radius(n, r)
    return float(n) * (kappa * (r ** (2.0 - n) - 1.0))


def unit_source_green_gradient_at_center(n: int, r: float) -> float:
    """Radial derivative of unit_source_green_at_center: n kappa_n (2-n) r^{1-n}."""
    kappa, r = _kappa_and_radius(n, r)
    return float(n) * (kappa * (2.0 - n) * r ** (1.0 - n))
