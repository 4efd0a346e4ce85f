"""Bubble profiles, dimensional constants, and their oracles.

The five bubble constants are checked against conftest.BUBBLE_MOMENTS, 50
digits computed once by direct mpmath quadrature and pinned.  omega_n is
checked against the surface-area formula 2 pi^{n/2} / Gamma(n/2) and the
eigenvalue against the pinned square of the first Bessel zero j_{n/2-1,1}.
"""

import math

import numpy as np
import pytest
from scipy import special

import conftest
from bnball.bubble import constants, delta, lambda_1, omega_n
from bnball.model import UndefinedConstants

OMEGA_7 = 33.073361792319808

LAMBDA1 = {
    3: math.pi**2,
    4: 14.681970642123893,
    7: 33.217461914268369,
    8: 40.706465818200318,
    9: 48.831193643619199,
    10: 57.582940903291125,
}


def test_omega_n_value():
    assert omega_n(7) == pytest.approx(OMEGA_7, rel=1e-14)
    assert omega_n(7) == pytest.approx(16.0 * math.pi**3 / 15.0, rel=1e-14)
    assert omega_n(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_bubble_normalization():
    assert delta(7, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert delta(9, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_bubble_at_mu():
    # (mu^2/(mu^2+mu^2))^{(n-2)/2} = 2^{-5/2} at n=7
    val = delta(7, math.sqrt(35.0))
    assert val == pytest.approx(2.0 ** (-2.5), rel=1e-14)


def test_bubble_strictly_decreasing():
    rng = np.random.default_rng(7)
    s = np.sort(rng.uniform(0.0, 50.0, size=64))
    vals = delta(7, s)
    assert np.all(np.diff(vals) < 0.0)


def test_bubble_callable():
    """Scalars give floats, arrays give arrays of the same shape."""
    assert isinstance(delta(7, 1.0), float)
    s = np.linspace(0.0, 5.0, 11)
    assert np.array_equal(delta(7, s), [delta(7, x) for x in s])


def test_constants_frozen_n7():
    c = constants(7)
    assert conftest.worst_moment_gap(7, c) < 1e-15
    assert c.omega_n == pytest.approx(OMEGA_7, rel=1e-15)
    assert c.lambda1 == pytest.approx(LAMBDA1[7], rel=1e-12)


@pytest.mark.parametrize("n", sorted(conftest.BUBBLE_MOMENTS))
def test_constants_against_beta_oracles(n):
    """The closed forms hold each constant within 2e-15 relative of the
    50-digit table (adaptive quadrature missed this, at 2.9e-15)."""
    c = constants(n)
    assert conftest.worst_moment_gap(n, c) < 2e-15
    assert c.omega_n == pytest.approx(
        2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0), rel=1e-14
    )


def test_constants_finite_or_undefined():
    """Every field is a finite float, or the dimension is UndefinedConstants
    naming the field; all are finite through n = 81."""
    defined = []
    for n in range(5, 401):
        try:
            c = constants(n)
        except UndefinedConstants as exc:
            assert "is not a finite float" in str(exc)
            continue
        assert all(math.isfinite(v) for v in vars(c).values()), n
        defined.append(n)
    assert set(range(5, 82)) <= set(defined)


def test_constants_undefined_below_n5():
    with pytest.raises(UndefinedConstants):
        constants(4)


@pytest.mark.parametrize("n", sorted(LAMBDA1))
def test_lambda_1(n):
    assert lambda_1(n) == pytest.approx(LAMBDA1[n], rel=1e-12)


@pytest.mark.parametrize("n", [40_000, 100_000])
def test_lambda_1_large_order(n):
    """j_{nu,1} - nu grows like 1.856 nu^(1/3); the scan still brackets the
    first zero, and J_nu there is at rounding level."""
    nu = n / 2.0 - 1.0
    z = math.sqrt(lambda_1(n))
    assert z > nu
    eps = np.finfo(float).eps
    assert abs(special.jv(nu, z)) <= 4.0 * eps * z * abs(special.jvp(nu, z))
