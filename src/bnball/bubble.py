"""Standard bubbles, dimensional constants, and the first ball eigenvalue.

The bubble (Aubin-Talenti instanton) with concentration mu centered at the
origin is

    delta_mu(s) = [n(n-2) mu^2]^((n-2)/4) * (mu^2 + s^2)^(-(n-2)/2),

the explicit positive solution of -Delta u = u^(2*-1) on R^n.  At the
normalization mu = sqrt(n(n-2)) it satisfies delta_mu(0) = 1 and is the
universal limit profile of blow-up; delta(n, s) evaluates it.

The dimensional constants are moments of that unit-height bubble:

    c1(n) = int_0^inf delta^(2*-1) s^(n-1) ds
    c2(n) = 2 int_0^inf delta^2 s^(n-1) ds          (finite for n >= 5)
    c3(n) = c1^2 / c2
    S^(n/2) = omega_n int_0^inf delta^(2*) s^(n-1) ds
    c_tilde(n) = omega_n c2^((n-2)/(2n-8)) / c1^(4/(2n-8))

with omega_n = 2 pi^(n/2) / Gamma(n/2) the surface measure of S^(n-1).
With K = n(n-2), the substitution s = sqrt(K) t gives each moment in closed
form, int_0^inf delta^p s^(n-1) ds = K^(n/2) B(n/2, q) / 2 with
q = p(n-2)/2 - n/2: q = 1 for c1, (n-4)/2 for c2 and n/2 for S^(n/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize as _sciopt
from scipy import special as _special

from .model import Params, UndefinedConstants, check_dimension


def omega_n(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1), 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def delta(n: int, s):
    """The unit-height bubble, delta_mu at mu = sqrt(n(n-2)), at radius s
    (scalar or array)."""
    check_dimension(n)
    mu = math.sqrt(n * (n - 2.0))
    s = np.asarray(s, dtype=float)
    pref = (n * (n - 2.0) * mu * mu) ** ((n - 2.0) / 4.0)
    out = pref * (mu * mu + s * s) ** (-(n - 2.0) / 2.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DimensionalConstants:
    c1: float
    c2: float
    c3: float
    c_tilde: float
    s_pow: float
    omega_n: float
    lambda1: float


def _moment(n: int, q: float) -> float:
    """int_0^inf delta(s)^p s^(n-1) ds of the unit-height bubble, with
    q = p(n-2)/2 - n/2 passed exactly.  Raises OverflowError when K^(n/2)
    does not fit a float."""
    return (n * (n - 2.0)) ** (n / 2.0) * float(_special.beta(n / 2.0, q)) / 2.0


@lru_cache(maxsize=None, typed=True)
def lambda_1(n: int) -> float:
    """First Dirichlet eigenvalue of the unit ball: the squared first
    positive zero of the Bessel function J_(n/2-1).

    The zero is bracketed by stepping out from the order (J_nu > 0 on
    (0, j_nu1)) and then polished by bracketed root-finding, once per
    dimension: the value is cached, per argument type, so a float or bool
    n still meets check_dimension.
    """
    check_dimension(n)
    nu = n / 2.0 - 1.0

    def j(x: float) -> float:
        return float(_special.jv(nu, x))

    a = nu + 0.1
    step = 0.25
    # J_nu has no zero before nu, so this scan meets the first sign change.
    while j(a) * j(a + step) > 0.0:
        a += step
        if a > 2.0 * nu + 50.0:
            raise RuntimeError("failed to bracket the first Bessel zero")
    z = _sciopt.brentq(j, a, a + step, xtol=1e-14, rtol=8.9e-16)
    return z * z


@lru_cache(maxsize=None)
def constants(n: int) -> DimensionalConstants:
    """All dimensional constants for dimension n, from the Beta-function
    moments of the unit-height bubble.  They are finite floats for
    5 <= n <= 81.  Below, the c2 integral diverges; above, a field that
    overflows raises UndefinedConstants naming it.
    """
    exps = Params(n=n, lam=0.0)
    if n < 5:
        raise UndefinedConstants(
            f"the second bubble moment diverges for n={n}; need n >= 5"
        )
    # K^(n/2) is the first factor to overflow (n >= 144): only c1 can raise.
    try:
        c1 = _moment(n, 1.0)
    except OverflowError:
        raise UndefinedConstants(f"c1 is not a finite float for n={n}") from None
    c2 = 2.0 * _moment(n, (n - 4.0) / 2.0)
    c3 = c1 * c1 / c2
    om = omega_n(n)
    s_pow = om * _moment(n, n / 2.0)
    c_tilde = om * c2**exps.green_exp / c1 ** (4.0 / (2.0 * n - 8.0))
    cst = DimensionalConstants(
        c1=c1,
        c2=c2,
        c3=c3,
        c_tilde=c_tilde,
        s_pow=s_pow,
        omega_n=om,
        lambda1=lambda_1(n),
    )
    for name, value in vars(cst).items():
        if not math.isfinite(value):
            raise UndefinedConstants(f"{name} is not a finite float for n={n}")
    return cst
