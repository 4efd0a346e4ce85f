"""Bubble profiles, dimensional constants, and their closed-form oracles.

Frozen reference values below come from independent closed forms evaluated
once and pinned: the Beta-function reduction of the bubble moments, the
surface-area formula omega_n = 2 pi^{n/2} / Gamma(n/2), and the first
Bessel zero j_{n/2-1,1} squared for the eigenvalue.
"""

import math

import numpy as np
import pytest

from bnball import bubble
from bnball.bubble import constants, delta, lambda_1, omega_n
from bnball.model import NonconvergentIntegral, UndefinedConstants

C1_7 = 36235.988671485148
C2_7 = 31127.773853175976
C3_7 = 42182.485686043669
S_POW_7 = 64343.757902225117
OMEGA_7 = 33.073361792319808
C_TILDE_7 = 167.62610369572509

LAMBDA1 = {
    3: math.pi**2,
    4: 14.681970642123893,
    7: 33.217461914268369,
    8: 40.706465818200318,
    9: 48.831193643619199,
    10: 57.582940903291125,
}


def beta_oracle(n):
    """Closed forms of the bubble moments: c1, c2, S^{n/2}, omega_n."""
    K = n * (n - 2.0)
    om = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    c1 = K ** (n / 2.0) / n
    c2 = (
        K ** (n / 2.0)
        * math.gamma(n / 2.0)
        * math.gamma((n - 4.0) / 2.0)
        / math.gamma(n - 2.0)
    )
    s_pow = om * K ** (n / 2.0) * math.gamma(n / 2.0) ** 2 / (2.0 * math.gamma(n))
    return c1, c2, s_pow, om


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


def test_integral_rejects_divergent_tail():
    """The second moment diverges at n = 4; quadrature reports it."""
    with pytest.raises(NonconvergentIntegral):
        bubble._moment(4, 2.0)


def test_moment_rejects_a_large_error_estimate(monkeypatch):
    """A quadrature whose error estimate exceeds 1e-12 of the value is
    NonconvergentIntegral, not a number."""
    quad = bubble._sciint.quad

    def loose(*args, **kwargs):
        value, error = quad(*args, **kwargs)
        return value, 1e-9 * abs(value)

    monkeypatch.setattr(bubble._sciint, "quad", loose)
    with pytest.raises(NonconvergentIntegral, match="error estimate"):
        bubble._moment(7, 2.0)


def test_constants_frozen_n7():
    c = constants(7)
    assert c.c1 == pytest.approx(C1_7, rel=1e-12)
    assert c.c2 == pytest.approx(C2_7, rel=1e-12)
    assert c.c3 == pytest.approx(C3_7, rel=1e-12)
    assert c.s_pow == pytest.approx(S_POW_7, rel=1e-12)
    assert c.omega_n == pytest.approx(OMEGA_7, rel=1e-12)
    assert c.c_tilde == pytest.approx(C_TILDE_7, rel=1e-12)
    assert c.lambda1 == pytest.approx(LAMBDA1[7], rel=1e-12)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_constants_against_beta_oracles(n):
    c = constants(n)
    c1o, c2o, s_pow_o, om = beta_oracle(n)
    assert c.c1 == pytest.approx(c1o, rel=1e-10)
    assert c.c2 == pytest.approx(c2o, rel=1e-10)
    assert c.s_pow == pytest.approx(s_pow_o, rel=1e-10)
    assert c.omega_n == pytest.approx(om, rel=1e-14)
    assert c.c3 == pytest.approx(c.c1 * c.c1 / c.c2, rel=1e-12)
    gexp = (n - 2.0) / (2.0 * n - 8.0)
    c_tilde_o = om * c2o**gexp / c1o ** (4.0 / (2.0 * n - 8.0))
    assert c.c_tilde == pytest.approx(c_tilde_o, rel=1e-12)


def test_constants_undefined_below_n5():
    with pytest.raises(UndefinedConstants):
        constants(4)


@pytest.mark.parametrize("n", sorted(LAMBDA1))
def test_lambda_1(n):
    assert lambda_1(n) == pytest.approx(LAMBDA1[n], rel=1e-12)
