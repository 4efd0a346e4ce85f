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
Production values come from adaptive quadrature; the Beta-function closed
forms are kept in the test suite as independent oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate as _sciint
from scipy import optimize as _sciopt
from scipy import special as _special

from .model import (
    NonconvergentIntegral,
    Params,
    UndefinedConstants,
    check_dimension,
)


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


def _moment(n: int, power: float) -> float:
    """int_0^inf delta(s)^power s^(n-1) ds of the unit-height bubble.

    The axis is split at 10 mu; the tail is compactified by s = 10 mu / t so
    ordinary adaptive quadrature handles the improper part.  Raises
    NonconvergentIntegral when quad warns or its error estimate exceeds
    1e-12 of the value.
    """
    r0 = 10.0 * math.sqrt(n * (n - 2.0))

    def g(s: float) -> float:
        return delta(n, s) ** power * s ** (n - 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error", _sciint.IntegrationWarning)
        try:
            head, e_head = _sciint.quad(g, 0.0, r0, epsabs=0.0, epsrel=1e-13, limit=200)
            tail, e_tail = _sciint.quad(
                lambda t: g(r0 / t) * r0 / (t * t),
                0.0,
                1.0,
                epsabs=0.0,
                epsrel=1e-13,
                limit=200,
            )
        except _sciint.IntegrationWarning as exc:
            raise NonconvergentIntegral(f"quadrature did not converge: {exc}") from exc

    value = head + tail
    if not math.isfinite(value) or (e_head + e_tail) > max(1e-12 * abs(value), 5e-300):
        raise NonconvergentIntegral(
            f"quadrature error estimate {e_head + e_tail:.3e} exceeds "
            f"1e-12 * |value| for value {value:.6e}"
        )
    return value


def lambda_1(n: int) -> float:
    """First Dirichlet eigenvalue of the unit ball: the squared first
    positive zero of the Bessel function J_(n/2-1).

    The zero is bracketed by stepping out from the order (J_nu > 0 on
    (0, j_nu1)) and then polished by bracketed root-finding.
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
        if a > nu + 50.0:
            raise RuntimeError("failed to bracket the first Bessel zero")
    z = _sciopt.brentq(j, a, a + step, xtol=1e-14, rtol=8.9e-16)
    return z * z


@lru_cache(maxsize=None)
def constants(n: int) -> DimensionalConstants:
    """All dimensional constants for dimension n, by adaptive quadrature of
    the unit-height bubble.  c2 (and everything downstream of it) requires
    n >= 5 for its integral to converge.
    """
    exps = Params(n=n, lam=0.0)
    if n < 5:
        raise UndefinedConstants(
            f"the second bubble moment diverges for n={n}; need n >= 5"
        )
    two_star = exps.two_star
    c1 = _moment(n, two_star - 1.0)
    c2 = 2.0 * _moment(n, 2.0)
    c3 = c1 * c1 / c2
    om = omega_n(n)
    s_pow = om * _moment(n, two_star)
    c_tilde = om * c2**exps.green_exp / c1 ** (4.0 / (2.0 * n - 8.0))
    return DimensionalConstants(
        c1=c1,
        c2=c2,
        c3=c3,
        c_tilde=c_tilde,
        s_pow=s_pow,
        omega_n=om,
        lambda1=lambda_1(n),
    )

