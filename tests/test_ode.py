"""Radial integrator: series start, events, and the lambda=0 bubble oracle."""

import math

import numpy as np
import pytest

from bnball.bubble import bubble_eval, normalized_mu
from bnball.model import Params, SingularPoint
from bnball.ode import integrate

# Below the first knot a profile evaluates the second-order series of the
# regular solution, u(r) = a - f(a) r^2/(2n), u'(r) = -f(a) r/n with
# f(a) = lambda a + |a|^(2*-2) a.  The first knot sits at 1e-6 for |a| = 1.
BELOW_START = 1e-7


def test_rhs_singular_origin():
    """The radial operator is singular at r=0, so no integration ends there."""
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1.0, 0.0)
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1.0, -1.0)


def test_taylor_start_bubble_case():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == pytest.approx(1.0 - 1e-14 / 14.0, rel=1e-15)
    assert profile.du(BELOW_START) == pytest.approx(-1e-7 / 7.0, rel=1e-15)


def test_taylor_start_negative_amplitude():
    # f(-1) = -1 - 1 = -2 at lambda=1
    profile = integrate(Params(n=7, lam=1.0), -1.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == pytest.approx(-1.0 + 2e-14 / 14.0, rel=1e-15)
    assert profile.du(BELOW_START) == pytest.approx(2e-7 / 7.0, rel=1e-15)


def test_taylor_start_zero_amplitude():
    profile = integrate(Params(n=7, lam=1.0), 0.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == 0.0
    assert profile.du(BELOW_START) == 0.0


@pytest.mark.parametrize("n", [7, 9])
def test_bubble_oracle(n):
    """lambda=0 from a=1 reproduces the standard bubble to sup error < 1e-8."""
    profile = integrate(Params(n=n, lam=0.0), 1.0, 10.0)
    ys = np.linspace(0.0, 10.0, 2001)
    sup = float(np.max(np.abs(profile.u(ys) - bubble_eval(n, normalized_mu(n), ys))))
    assert sup < 1e-8
    assert not profile.events  # the bubble is positive and strictly decreasing


def test_zero_amplitude_profile():
    profile = integrate(Params(n=7, lam=1.0), 0.0, 1.0)
    assert np.all(profile.values == 0.0)
    assert np.all(profile.derivs == 0.0)
    assert not profile.events


def test_knots_strictly_increasing(sol7_lam2):
    knots = sol7_lam2.profile.knots
    assert np.all(np.diff(knots) > 0.0)
    assert knots[0] > 0.0


def test_oscillation_at_large_amplitude():
    # beyond the k=1 shooting amplitude the first zero sits inside the ball
    profile = integrate(Params(n=7, lam=2.0), 1e4, 1.0)
    zeros = profile.zero_crossings()
    assert len(zeros) >= 1
    assert zeros[0].r < 1.0


def test_sign_constant_between_crossings():
    profile = integrate(Params(n=7, lam=2.0), 1e4, 1.0)
    bounds = [profile.knots[0]]
    bounds += [e.r for e in profile.zero_crossings()]
    bounds += [profile.r_end]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = (profile.knots > lo * (1 + 1e-12)) & (profile.knots < hi * (1 - 1e-12))
        vals = profile.values[inside]
        if vals.size:
            assert np.all(vals > 0.0) or np.all(vals < 0.0)


def test_dense_output_matches_knots(sol7_lam2):
    profile = sol7_lam2.profile
    idx = np.arange(0, len(profile.knots), 97)
    vals = profile.u(profile.knots[idx])
    assert np.allclose(vals, profile.values[idx], rtol=1e-12, atol=0.0)


def test_events_located_on_dense_output(sol7_lam2):
    profile = sol7_lam2.profile
    for e in profile.zero_crossings():
        assert abs(float(profile.u(e.r))) <= 1e-9 * sol7_lam2.a_star


def test_untrusted_sign_structure_suppressed():
    """Below the noise floor (n<=6 at blow-up amplitude) no zero is reported.

    At n=4 the deviation signal scales as lambda/a^2 while the absolute
    noise floor scales as atol/a, so for huge amplitude any crossing of
    the numerical profile is noise; the integrator must not report it.
    """
    profile = integrate(Params(n=4, lam=0.5), 1e25, 1.0)
    assert not profile.zero_crossings()


def test_tolerance_tightening_converges():
    p = Params(n=7, lam=2.0)
    coarse = integrate(p, 1e4, 1.0, rtol=1e-8, atol=1e-10)
    fine = integrate(p, 1e4, 1.0, rtol=1e-12, atol=1e-14)
    r = np.linspace(0.1, 0.9, 17)
    gap = np.max(np.abs(coarse.u(r) - fine.u(r))) / 1e4
    assert gap < 1e-7


def test_amplitude_must_be_finite():
    with pytest.raises(Exception):
        integrate(Params(n=7, lam=1.0), math.inf, 1.0)
