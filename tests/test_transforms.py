"""The inner rescaling RadialProfile.rescaled and the lambda-absorbing frame."""

import numpy as np
import pytest

from conftest import norm_invariance_check, polynomial_profile
from bnball.model import ConfigError, Params
from bnball.ode import Event, integrate
from bnball.shooting import solve_nodal


@pytest.fixture(scope="module")
def tight_k1():
    """Positive solution integrated tightly enough for finite-difference checks."""
    return solve_nodal(Params(n=7, lam=2.0), 1, rtol=1e-12, atol=1e-14)


def absorb(profile):
    """The lambda-absorbing frame w(rho) = lambda^{-(n-2)/4} u(rho / sqrt(lambda)).

    It is the inner rescaling at M = lambda^{(n-2)/4}: M^beta = sqrt(lambda)
    and the rescaled lambda is 1, so w solves
    w'' + ((n-1)/rho) w' + w + |w|^{2*-2} w = 0.
    """
    params = profile.params
    return profile.rescaled(params.lam ** ((params.n - 2) / 4))


def absorbed_equation_residual(profile, samples=200):
    """Largest scaled defect of the radial equation at the profile's own
    lambda, on interior points.

    u'' is formed by a five-point finite difference of the exact first
    derivative (step 1e-3 of the domain span), so the result mixes the
    integration error of the profile with the difference-quotient
    truncation; for solution profiles both sit near 1e-9.  The defect at
    each point is scaled by the sum of the magnitudes of the equation's
    terms.
    """
    n = profile.params.n
    two_star = profile.params.two_star
    lo = float(profile.knots[0])
    hi = float(profile.knots[-1])
    h = 1e-3 * (hi - lo)
    rho = np.linspace(lo + 2.5 * h, hi - 2.5 * h, samples)
    w, dw = profile.u_du(rho)
    d2w = (
        profile.du(rho - 2 * h)
        - 8.0 * profile.du(rho - h)
        + 8.0 * profile.du(rho + h)
        - profile.du(rho + 2 * h)
    ) / (12.0 * h)
    nonlin = np.abs(w) ** (two_star - 2.0) * w
    first = (n - 1.0) / rho * dw
    linear = profile.params.lam * w
    defect = d2w + first + linear + nonlin
    scale = np.abs(d2w) + np.abs(first) + np.abs(linear) + np.abs(nonlin)
    scale = np.where(scale == 0.0, 1.0, scale)
    return float(np.max(np.abs(defect) / scale))


def test_scaling_map_factors():
    """Radii scale by M^beta, u by 1/M, u' by 1/(M M^beta); at
    M = lambda^{(n-2)/4} the radius factor is sqrt(lambda)."""
    profile = polynomial_profile((1.0, -1.0), n=7, lam=2.0)
    m = profile.rescaled(32.0)
    c = 32.0 ** 0.4
    assert np.allclose(m.knots, c * profile.knots, rtol=1e-15, atol=0.0)
    assert np.allclose(m.values, profile.values / 32.0, rtol=1e-15, atol=0.0)
    assert np.allclose(m.derivs, profile.derivs / (32.0 * c), rtol=1e-15, atol=0.0)
    assert m.a == 1.0 / 32.0
    assert m.params.lam == pytest.approx(2.0 / 32.0 ** 0.8, rel=1e-15)
    a = polynomial_profile((1.0, -1.0), n=7, lam=4.0).rescaled(4.0 ** 1.25)
    assert a.r_end == pytest.approx(2.0, rel=1e-15)
    assert a.a == pytest.approx(4.0 ** -1.25, rel=1e-15)
    assert a.params.lam == pytest.approx(1.0, rel=1e-15)


def test_scaling_map_round_trip_radii():
    """u~(M^beta r) = u(r) / M, and the inverse map restores the radii."""
    profile = polynomial_profile((1.0, -3.0, 2.0), n=9, lam=1.0)
    M = 7.5
    c = M ** (2.0 / 7.0)
    scaled = profile.rescaled(M)
    r = np.linspace(0.1, 0.95, 17)
    assert np.allclose(scaled.u(c * r), profile.u(r) / M, rtol=1e-14, atol=0.0)
    back = scaled.rescaled(1.0 / M)
    assert np.allclose(back.knots, profile.knots, rtol=1e-15, atol=0.0)


def test_scaling_map_validation():
    profile = polynomial_profile((1.0, -1.0))
    for M in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            profile.rescaled(M)


def test_scaling_map_extreme_lambda():
    """At n=7 and M = 1e160, (M M)^beta would overflow though the rescaled
    lambda, lambda M^{-2 beta} = 2e-128, is a float: it is carried, not 0."""
    scaled = polynomial_profile((1.0, -1.0), n=7, lam=2.0).rescaled(1e160)
    assert scaled.params.lam == pytest.approx(2e-128, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("M", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_scaling_map_out_of_float_range_is_config_error(M):
    """At n=3, beta = 2: M = 1e200 overflows M^beta, and M = 1e-200
    underflows it to 0, so 1/(M M^beta) has no float value.  Both are the
    ConfigError of a non-finite M, not a raw arithmetic error."""
    profile = polynomial_profile((1.0, -1.0), n=3, lam=1.0)
    with pytest.raises(ConfigError, match="out of the positive floats"):
        profile.rescaled(M)


def test_rescale_round_trip():
    profile = polynomial_profile((1.0, -3.0, 2.0), n=7, lam=2.0)
    M = 5.0
    back = profile.rescaled(M).rescaled(1.0 / M)
    assert np.allclose(back.knots, profile.knots, rtol=1e-14, atol=0.0)
    assert np.allclose(back.values, profile.values, rtol=1e-14, atol=1e-300)
    assert np.allclose(back.derivs, profile.derivs, rtol=1e-14, atol=1e-300)
    assert back.params.lam == pytest.approx(2.0, rel=1e-14)
    r = np.linspace(0.05, 0.95, 11)
    assert np.allclose(back.u(r), profile.u(r), rtol=1e-13, atol=0.0)


def test_rescale_zero_profile_stays_zero():
    scaled = polynomial_profile((0.0,), lam=1.0).rescaled(3.0)
    assert not np.any(scaled.values)
    assert not np.any(scaled.derivs)
    assert scaled.u(0.5) == 0.0


def test_rescale_transforms_events():
    src = polynomial_profile(
        (1.0, -3.0, 2.0),
        events=[
            Event(kind="zero-crossing", r=0.5, value=-1.0),
            Event(kind="derivative-zero", r=0.75, value=-0.125),
        ],
    )
    M = 2.0
    c = M ** 0.4
    scaled = src.rescaled(M)
    zc, dz = scaled.events
    assert zc.r == pytest.approx(0.5 * c, rel=1e-15)
    # stored u' rescales by 1/(M c), stored u by 1/M
    assert zc.value == pytest.approx(-1.0 / (M * c), rel=1e-15)
    assert dz.r == pytest.approx(0.75 * c, rel=1e-15)
    assert dz.value == pytest.approx(-0.125 / M, rel=1e-15)


def test_norm_invariance_polynomial():
    profile = polynomial_profile((1.0, -1.0), n=7, lam=2.0)
    grad_gap, crit_gap, l2_gap = norm_invariance_check(profile, 2.0)
    assert grad_gap < 1e-10
    assert crit_gap < 1e-10
    assert l2_gap < 1e-10


def test_norm_invariance_identity_map_is_exact():
    profile = polynomial_profile((1.0, -1.0), n=7, lam=2.0)
    assert norm_invariance_check(profile, 1.0) == (0.0, 0.0, 0.0)


def test_lambda_absorb_round_trip(tight_k1):
    profile = tight_k1.profile
    M = profile.params.lam ** ((profile.params.n - 2) / 4)
    back = absorb(profile).rescaled(1.0 / M)
    assert np.allclose(back.knots, profile.knots, rtol=1e-14, atol=0.0)
    assert np.allclose(back.values, profile.values, rtol=1e-14, atol=1e-300)
    assert np.allclose(back.derivs, profile.derivs, rtol=1e-14, atol=1e-300)
    assert back.params.lam == pytest.approx(profile.params.lam, rel=1e-14)


def test_lambda_absorb_rejects_lambda_zero():
    """At lambda = 0 the absorbing scale M = lambda^{(n-2)/4} is 0."""
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    with pytest.raises(ConfigError):
        absorb(profile)


def test_absorbed_equation_residual_small_on_solution(tight_k1):
    assert absorbed_equation_residual(absorb(tight_k1.profile)) < 1e-8


def test_absorbed_frame_removes_lambda(tight_k1):
    """The absorbed profile solves the equation at lambda = 1 and starts
    at w(0) = lambda^{-(n-2)/4} a*."""
    absorbed = absorb(tight_k1.profile)
    assert absorbed.params.lam == pytest.approx(1.0, rel=1e-15)
    # at the origin: the first knot lies at the shot's series start
    w0 = absorbed.u(0.0)
    # against the source profile's own Taylor data
    lam = tight_k1.params.lam
    assert w0 == pytest.approx(tight_k1.a_star * lam ** -1.25, rel=1e-12)
